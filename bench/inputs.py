"""Seeded inputs of the three workloads, generated by the benchmark itself.

Nothing here calls the library's own samplers (random_valid_action,
random_commuting_rep), so a change to those helpers cannot change what
the benchmark runs.  The seed picks taps, coefficients and matrices; the
properties that set an instance's cost (field, rank, window size, and
the shape of the seed, which decides whether the policy window has to be
widened) are fixed per slot, so two seeds give inputs of the same cost
profile and different content.
"""

from __future__ import annotations

import hashlib
import json
import random

import numpy as np

# Bundled families, as (p, d, taps) with taps (in_comp, in_exp, out_comp, out_exp, coeff).
FAMILIES = {
    "tap": (2, 2, ((1, 0, 2, 0, 1),)),
    "dropping-tap": (2, 2, ((1, 0, 2, -1, 1),)),
    "chain-3": (3, 3, ((1, 0, 2, 0, 1), (2, 0, 3, 0, 1))),
}
LADDER = ((4, 3), (8, 6), (12, 8))

# Random solve slots: (p, d, precision, l_max, drop, shape).  The shape
# fixes what sets the cost beyond the window size: "flat" seeds never
# write below where they read, "lowers" seeds do (the chain cuts one more
# condition, about twice the work), and "widens" seeds read above
# max(0, write), so find_fixed_point retries on the doubled window at
# 8-30x the cost; those set the tail.
# The mix puts the median (15th of 29 instances) and the tail (about the
# 20th) inside groups of instances of similar cost, so that noise cannot
# swap which instance sets them.
SOLVE_SLOTS = (
    (2, 2, 4, 3, 0, "flat"), (3, 2, 4, 3, 0, "flat"), (5, 2, 4, 3, 1, "lowers"),
    (2, 3, 4, 3, 0, "flat"), (3, 3, 4, 3, 0, "flat"), (5, 3, 4, 3, 0, "flat"),
    (3, 2, 4, 3, 1, "flat"), (2, 2, 6, 4, 0, "flat"), (3, 2, 6, 4, 1, "lowers"),
    (5, 2, 6, 4, 0, "flat"), (5, 3, 4, 3, 0, "widens"), (2, 3, 4, 3, 0, "widens"),
    (5, 3, 6, 4, 1, "flat"),
    (2, 2, 4, 3, 0, "widens"), (3, 2, 4, 3, 1, "widens"), (5, 2, 4, 3, 0, "widens"),
    (2, 3, 4, 3, 0, "widens"), (3, 3, 4, 3, 1, "widens"), (5, 2, 6, 4, 0, "widens"),
    (2, 2, 6, 4, 1, "widens"),
)
EXP_LO, EXP_HI = -1, 1
MAX_TAPS = 3

LEMMA_N_MAX = (4, 5, 6)
# Commuting unipotent tuples: (p, dim, r).
REP_SLOTS = ((2, 48, 6), (3, 48, 4), (5, 45, 3), (2, 32, 3), (3, 30, 2),
             (5, 25, 2), (2, 24, 2), (3, 18, 6), (5, 15, 4), (2, 12, 1))
# brute_fixed cross-checks, p^dim <= 2^16: (p, dim, r).
FIXED_ORACLE_SLOTS = ((2, 16, 2), (2, 14, 3), (3, 10, 2), (3, 9, 3), (5, 6, 2), (5, 5, 1))
# brute_max_invariant cross-checks on the dim-6 window [-1, 2) of F_2((t))^2:
# (source, ell) with source a bundled family or None for a seeded action.
# They are the 12 costliest probe instances, so the tail (the 11th
# costliest) falls among instances of one kind.
MAXINV_WINDOW = (-1, 2)
MAXINV_SLOTS = (("tap", 0), ("tap", 1), ("dropping-tap", 0), (None, 0), (None, 1), (None, 0),
                (None, 1), (None, 0), (None, 1), (None, 0), (None, 1), (None, 0))


def digest(obj) -> str:
    """Short stable digest of a JSON-able description."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def action_desc(p: int, d: int, taps) -> dict:
    return {"p": p, "d": d, "taps": [list(t) for t in taps]}


def make_action(E, desc: dict):
    """Certify a described action with build_action (raises on rejection)."""
    entries = [E.TapEntry(*t) for t in desc["taps"]]
    seed = E.SparsePerturbation(desc["p"], desc["d"], entries)
    return E.build_action(E.ActionSpec(desc["p"], desc["d"], seed, desc.get("label", "")))


def shape_of(taps) -> str:
    """"widens" when some tap reads above max(0, its write): certifying a
    witness then needs coefficients beyond the policy window's top, so
    find_fixed_point falls back to the doubled window.  Otherwise
    "lowers" when some tap writes below where it reads, else "flat"."""
    if any(t[1] > max(0, t[3]) for t in taps):
        return "widens"
    return "lowers" if any(t[3] < t[1] for t in taps) else "flat"


def draw_action(E, rng: random.Random, p: int, d: int, drop: int, shape: str | None):
    """Draw candidate taps until build_action certifies one of the wanted shape."""
    while True:
        taps = []
        for _ in range(rng.randint(1, MAX_TAPS)):
            a, b = rng.sample(range(1, d + 1), 2)
            taps.append((a, rng.randint(EXP_LO, EXP_HI), b, rng.randint(EXP_LO, EXP_HI),
                         rng.randint(1, p - 1)))
        seed = E.SparsePerturbation(p, d, [E.TapEntry(*t) for t in taps])
        if seed.is_zero or seed.drop != drop:
            continue
        kept = [(e.in_comp, e.in_exp, e.out_comp, e.out_exp, e.coeff) for e in seed.entries]
        if shape is not None and shape_of(kept) != shape:
            continue
        desc = action_desc(p, d, kept)
        try:
            make_action(E, desc)
        except (E.NotOrderP, E.NonCommuting):
            continue
        return desc


def _unit_triangular(rng: random.Random, p: int, n: int, lower: bool) -> np.ndarray:
    a = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)], dtype=np.int64)
    a = np.tril(a, -1) if lower else np.triu(a, 1)
    return a + np.eye(n, dtype=np.int64)


def draw_commuting_tuple(rng: random.Random, p: int, dim: int, r: int) -> list[np.ndarray]:
    """r commuting order-p matrices: Q B_i Q^-1 with B_i block-diagonal
    polynomials id + sum c_j J^j in the Jordan shift J of shared cells of
    size <= p.  Q = L U with unit triangular L, U, so Q is invertible and
    Q^-1 = U^-1 L^-1 is exact over the integers, then reduced mod p."""
    sizes = []
    left = dim
    while left:
        sizes.append(rng.randint(1, min(p, left)))
        left -= sizes[-1]
    lo = _unit_triangular(rng, p, dim, lower=True)
    up = _unit_triangular(rng, p, dim, lower=False)
    q = (lo @ up) % p
    q_inv = (_unit_triangular_inverse(up, p) @ _unit_triangular_inverse(lo, p)) % p
    mats = []
    for _ in range(r):
        b = np.zeros((dim, dim), dtype=np.int64)
        at = 0
        for s in sizes:
            shift = np.eye(s, dtype=np.int64, k=1)
            block = np.eye(s, dtype=np.int64)
            power = shift
            for _ in range(1, s):
                block = block + rng.randrange(p) * power
                power = power @ shift
            b[at:at + s, at:at + s] = block % p
            at += s
        mats.append((q @ b % p) @ q_inv % p)
    return mats


def _unit_triangular_inverse(t: np.ndarray, p: int) -> np.ndarray:
    """Inverse mod p of a unit triangular matrix: sum of (I - T)^k, k < n."""
    n = t.shape[0]
    nil = (np.eye(n, dtype=np.int64) - t) % p
    inv = np.eye(n, dtype=np.int64)
    power = np.eye(n, dtype=np.int64)
    for _ in range(1, n):
        power = power @ nil % p
        if not power.any():
            break
        inv = (inv + power) % p
    return inv


def tuple_desc(p: int, mats) -> dict:
    blob = hashlib.sha256(b"".join(m.astype(np.int64).tobytes() for m in mats)).hexdigest()
    return {"p": p, "dim": int(mats[0].shape[0]), "r": len(mats), "matrices": blob}
