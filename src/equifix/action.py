"""Equivariant additive actions built from a certified seed automorphism.

An action is determined by one seed g = id + N through the equivariance
law phi(t x)(u) = t phi(x)(t^{-1} u): the group element attached to the
monomial c t^k is g_k^c with g_k = t^k g t^{-k}, and a general series
x = sum c_k t^k acts by the (commuting) product of its monomial factors.
Only finitely many factors are visible modulo any t^prec because the
contraction modulus mu(k) = k + min_out grows without bound, so every
evaluation here is a finite exact computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InsufficientPrecision, NonCommuting, NotOrderP
from .laurent import LatticeWindow, LaurentSeries, SeriesVector
from .linalg import FpMatrix
from .taps import (
    ContractionModulus,
    SeedAutomorphism,
    SparsePerturbation,
    TapEntry,
    induced_matrix,
)


@dataclass(frozen=True)
class ActionSpec:
    """Raw description of an action: field, rank, seed taps, display label."""

    p: int
    d: int
    seed: SparsePerturbation
    label: str = ""

    def __post_init__(self):
        if self.seed.p != self.p or self.seed.d != self.d:
            raise DimensionMismatch("seed does not match the declared p and d")


class Action:
    """A validated action; build with build_action."""

    __slots__ = ("spec", "seed_auto", "modulus")

    def __init__(self, spec: ActionSpec, seed_auto: SeedAutomorphism, modulus: ContractionModulus):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "seed_auto", seed_auto)
        object.__setattr__(self, "modulus", modulus)

    def __setattr__(self, name, value):
        raise AttributeError("Action is immutable")

    @property
    def p(self) -> int:
        return self.spec.p

    @property
    def d(self) -> int:
        return self.spec.d

    @property
    def seed(self) -> SparsePerturbation:
        return self.spec.seed

    @property
    def drop(self) -> int:
        return self.seed.drop

    @property
    def max_in_exp(self) -> int:
        mi = self.seed.max_in_exp
        return mi if mi is not None else 0

    def certificates(self) -> dict:
        return {
            "nilpotency": dict(self.seed_auto.nilpotency),
            "commutation": dict(self.seed_auto.commutation),
            "modulus_min_out": self.modulus.min_out,
        }

    def __repr__(self) -> str:
        label = self.spec.label or "action"
        return f"Action({label!r}, p={self.p}, d={self.d}, taps={len(self.seed.entries)})"


def build_action(spec: ActionSpec) -> Action:
    """Certify the seed (order p, commuting conjugates) and derive the modulus.

    Raises NotOrderP or NonCommuting with a witness when the seed does
    not generate an action of the required shape.
    """
    auto = SeedAutomorphism(spec.seed)  # raises with transcripts on failure
    return Action(spec, auto, ContractionModulus(spec.seed.min_out_exp))


@dataclass(frozen=True)
class PhiOperator:
    """phi(x) cut to a target order: a finite product of generator powers.

    Factors are stored ascending in k and applied in that fixed order;
    the factors commute, so the order is a determinism convention, not
    a mathematical choice.
    """

    action: Action
    target_prec: int
    factors: tuple[tuple[int, int], ...]

    def apply(self, u: SeriesVector) -> SeriesVector:
        steps = [k for k, c in self.factors for _ in range(c)]
        return self.action.seed_auto.apply_steps(u, steps, self.target_prec)


def phi(a: Action, x: LaurentSeries, target: int) -> PhiOperator:
    """The operator phi(x), exact modulo t^target: the (k, c_k) monomial
    factors of x that are visible there."""
    if x.p != a.p:
        raise DimensionMismatch("series and action live over different fields")
    # x's terms start at its valuation; a zero x has none below x.prec.
    ks = a.modulus.visible(x.prec if x.is_zero else x.val, target)
    if x.prec < ks.stop:
        raise InsufficientPrecision(
            f"x known mod t^{x.prec} does not determine the action mod t^{target}; "
            f"need x mod t^{ks.stop}"
        )
    return PhiOperator(a, target, tuple((k, c) for k, c in x.terms.items() if k in ks))


def apply_phi(a: Action, x: LaurentSeries, u: SeriesVector, out_prec: int | None = None) -> SeriesVector:
    """Evaluate phi(x)(u), exact modulo t^out_prec (default: u's precision)."""
    if u.p != a.p or u.d != a.d:
        raise DimensionMismatch("vector and action are incompatible")
    return phi(a, x, u.prec if out_prec is None else out_prec).apply(u)


@dataclass(frozen=True)
class EquivarianceSample:
    x: LaurentSeries
    u: SeriesVector
    ok: bool


@dataclass(frozen=True)
class EquivarianceReport:
    samples: tuple[EquivarianceSample, ...]
    ok: bool = field(default=True)

    @property
    def failures(self) -> list[EquivarianceSample]:
        return [s for s in self.samples if not s.ok]


def equivariance_check(a: Action, samples, precision: int | None = None) -> EquivarianceReport:
    """Verify phi(t x)(u) == t phi(x)(t^{-1} u) bit-for-bit on each sample.

    Both sides are computed along genuinely different routes (the factor
    set of t*x versus the shifted factor set of x), so agreement is an
    end-to-end consistency check of the evaluation machinery.  The
    comparison happens mod t^precision; by default the largest order
    both operands can support is used.  Seeds that drop exponents or
    read above their write position need operands with that much
    headroom beyond the comparison order.
    """
    results = []
    all_ok = True
    margin = a.drop + max(0, a.max_in_exp)
    for x, u in samples:
        n = precision
        if n is None:
            n = min(x.prec + 1 - a.drop, u.prec - margin)
        if n < 1:
            raise InsufficientPrecision(
                f"operands (x mod t^{x.prec}, u mod t^{u.prec}) cannot support "
                f"any comparison order for this seed"
            )
        lhs = apply_phi(a, x.shift(1), u, out_prec=n)
        rhs = apply_phi(a, x, u.shift(-1), out_prec=n - 1).shift(1)
        ok = lhs == rhs
        all_ok = all_ok and ok
        results.append(EquivarianceSample(x, u, ok))
    return EquivarianceReport(tuple(results), all_ok)


def generator_matrices(a: Action, ell: int, w: LatticeWindow) -> list[tuple[int, FpMatrix]]:
    """Window matrices of the visible generators g_k, k from -ell up.

    The list stops at the first k whose modulus pushes every write to
    t^hi or beyond; deeper k act as the identity on the window.  The
    trivial action has no visible generators at all.
    """
    if w.p != a.p or w.d != a.d:
        raise DimensionMismatch("window and action are incompatible")
    if ell < 0:
        raise ValueError("ell must be >= 0")
    return [(k, induced_matrix(a.seed.conjugate(k), w)) for k in a.modulus.visible(-ell, w.hi)]


def fixed_condition_rows(a: Action, w: LatticeWindow) -> list:
    """Linear functionals on window coordinates that cut out the fixed space.

    A window vector v (canonical representative, support in [lo, hi))
    is fixed by every g_k exactly when each aggregated tap write of
    each N_k vanishes; writes below the window floor are included as
    conditions, writes at or above t^hi vanish in the quotient.
    Grouping by output slot first matters: distinct taps feeding one
    slot may cancel.
    """
    groups: dict[tuple[int, int, int], dict[int, int]] = {}
    for e in a.seed.entries:
        # k-range where this tap both reads inside the window and
        # writes visibly below t^hi.
        k_lo = w.lo - e.in_exp
        k_hi = min(w.hi - e.in_exp, w.hi - e.out_exp)
        for k in range(k_lo, k_hi):
            key = (k, e.out_comp, e.out_exp + k)
            row = groups.setdefault(key, {})
            col = w.index(e.in_comp, e.in_exp + k)
            row[col] = (row.get(col, 0) + e.coeff) % w.p
    rows = np.zeros((len(groups), w.dim), dtype=np.int64)
    for i, key in enumerate(sorted(groups)):
        for col, c in groups[key].items():
            rows[i, col] = c
    return list(rows[rows.any(axis=1)])


def random_valid_action(rng, p: int, d: int, exp_lo: int = -1, exp_hi: int = 1) -> Action:
    """Rejection-sample a certified action labelled "random", with one to
    four taps, in at most 2000 draws.

    Taps always point from a lower to a higher component index, so the
    component graph is acyclic; the certification checks then reject
    the exponent patterns that break commutation or nilpotency.
    """
    if d < 2:
        raise ValueError("need d >= 2 for a nonzero seed")
    for _ in range(2000):
        count = rng.randint(1, 4)
        entries = []
        for _ in range(count):
            a, b = rng.randint(1, d), rng.randint(1, d)
            if a == b:
                continue
            if a > b:
                a, b = b, a
            entries.append(
                TapEntry(a, rng.randint(exp_lo, exp_hi), b, rng.randint(exp_lo, exp_hi),
                         rng.randint(1, p - 1))
            )
        if not entries:
            continue
        seed = SparsePerturbation(p, d, entries)
        if seed.is_zero:
            continue
        try:
            return build_action(ActionSpec(p, d, seed, "random"))
        except (NotOrderP, NonCommuting):
            continue
    raise RuntimeError("failed to sample a valid action within the attempt budget")
