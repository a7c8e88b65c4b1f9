"""Acceptance gate: one test per shipped guarantee, each printing a
PASS line with its runtime (visible under pytest -s; the -v result
column carries the same verdict either way).

All comparisons are exact — integer, rational, or string equality.
Every test seeds its own RNG, so the gate is deterministic end to end.
"""

import json
import random
import time
from fractions import Fraction

import numpy as np

from equifix.action import (
    apply_phi,
    build_action,
    generator_matrices,
    random_valid_action,
)
from equifix.action import ActionSpec
from equifix.cli import EXAMPLES, console_main
from equifix.fixpoint import (
    default_window,
    fixed_vectors,
    m_ell_chain,
    max_invariant_subspace,
    shift_matrix,
    window_b_image,
)
from equifix.laurent import (
    LatticeWindow,
    format_series,
    parse_series,
    random_series,
    random_vector,
)
from equifix.linalg import Subspace, map_image
from equifix.oracle import brute_fixed, brute_max_invariant
from equifix.replab import (
    fixed_bound_check,
    fixed_space,
    kernel_filtration,
    random_commuting_rep,
)
from equifix.taps import SparsePerturbation, TapEntry

from canon_cases import CANON_CASES


def bundled_action(name):
    fam = EXAMPLES[name]
    entries = [TapEntry(ic, ie, oc, oe, c) for (ic, ie), (oc, oe), c in fam["seed"]]
    seed = SparsePerturbation(fam["p"], fam["d"], entries)
    return build_action(
        ActionSpec(p=fam["p"], d=fam["d"], seed=seed, label=fam["label"])
    )


def finish(number, name, t0, budget):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"
    print(f"criterion {number} [{name}]: PASS in {elapsed:.2f}s (budget {budget}s)")


def test_criterion_1_fixed_dimension_lower_bound():
    t0 = time.perf_counter()
    rng = random.Random(1001)
    for p in (2, 3, 5):
        for r in (1, 2, 3):
            for _ in range(200):
                dim = rng.randint(1, 30)
                rep = random_commuting_rep(rng, p, dim, r)
                check = fixed_bound_check(rep)
                assert check.ok
                # same comparison without Fraction, as a cross-check
                assert check.fixed_dim * p**r >= dim
    finish(1, "fixed-dimension lower bound, 1800 tuples", t0, 30)


def test_criterion_2_kernel_filtration_laws():
    t0 = time.perf_counter()
    rng = random.Random(1002)
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        dim = rng.randint(1, 20)
        g = random_commuting_rep(rng, p, dim, 1).generators[0]
        report = kernel_filtration(g, p)
        diffs = [b - a for a, b in zip(report.dims, report.dims[1:])]
        assert all(x >= y for x, y in zip(diffs, diffs[1:]))
        assert report.dims[-1] == dim
        assert report.dims[1] * p >= dim
    finish(2, "filtration concavity/exhaustion, 300 generators", t0, 10)


def test_criterion_3_shift_equivariance_identity():
    t0 = time.perf_counter()
    rng = random.Random(1003)
    for name in sorted(EXAMPLES):
        a = bundled_action(name)
        n = 8 - (a.drop + max(0, a.max_in_exp))
        for _ in range(100):
            x = random_series(rng, a.p, prec=8, min_val=-2)
            u = random_vector(rng, a.p, a.d, prec=8, min_val=-2)
            lhs = apply_phi(a, x.shift(1), u, out_prec=n)
            rhs = apply_phi(a, x, u.shift(-1), out_prec=n - 1).shift(1)
            assert lhs == rhs
            assert repr(lhs) == repr(rhs)
    finish(3, "shift identity, 100 pairs x 4 families", t0, 5)


def test_criterion_4_certified_fixed_points_for_bundled_families(tmp_path, capsys):
    t0 = time.perf_counter()
    pinned = {"tap", "dropping-tap"}
    for name in sorted(EXAMPLES):
        cfg = tmp_path / f"{name}.yaml"
        assert console_main(["gen-example", name, "--config", str(cfg)]) == 0
        rpt = tmp_path / f"{name}.json"
        code = console_main(
            ["find-fixed", "--config", str(cfg), "--precision", "4",
             "--l-max", "3", "--json", str(rpt)]
        )
        assert code == 0, name
        report = json.loads(rpt.read_text())
        cert = report["result"]["certificate"]
        assert cert["ok"] and cert["in_m_hat"] and cert["outside_t_m_hat"]
        assert all(flag for _, flag in cert["checked_generators"])
        assert any(not s.startswith("0 ") for s in cert["witness"])  # nonzero
        if name in pinned:
            a = bundled_action(name)
            box = report["result"]["chain"]["window"]
            lo, hi = box["lo"], box["hi"]
            w = LatticeWindow(lo, hi, a.d, a.p)
            f = fixed_vectors(a, w)
            rows = [
                np.eye(w.dim, dtype=np.int64)[w.index(2, e)] for e in range(lo, hi)
            ]
            assert f == Subspace.from_rows(a.p, w.dim, rows), name
    capsys.readouterr()
    finish(4, "pipeline witnesses + pinned fixed spaces", t0, 10)


def test_criterion_5_chain_invariants_hold():
    t0 = time.perf_counter()
    rng = random.Random(1005)
    actions = [bundled_action(name) for name in sorted(EXAMPLES)]
    while len(actions) < 4 + 25:
        p = rng.choice([2, 3, 5])
        actions.append(random_valid_action(rng, p, rng.randint(2, 3)))
    for a in actions:
        l_max = 3 if a in actions[:4] else 2
        prec = 4 if a in actions[:4] else 3
        chain = m_ell_chain(a, l_max, default_window(a, prec, l_max))
        b = window_b_image(chain.window)
        shell_floor = map_image(shift_matrix(chain.window), b)
        prev = None
        for s in chain.subspaces:
            assert b.contains(s)
            assert not shell_floor.contains(s)
            if prev is not None:
                assert prev.contains(s)
            prev = s
        assert chain.m_hat.contains(
            map_image(shift_matrix(chain.window), chain.m_hat)
        )
    finish(5, "chain nesting/shell/shift-stability, 29 actions", t0, 60)


def test_criterion_6_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(1006)
    for i in range(100):
        p, cap = (2, 14) if i % 2 == 0 else (3, 8)
        rep = random_commuting_rep(rng, p, rng.randint(1, cap), rng.randint(1, 3))
        assert fixed_space(rep) == brute_fixed(rep.p, rep.dim, rep.generators)
    for i in range(50):
        p = 2 if i % 2 == 0 else 3
        a = random_valid_action(rng, p, 2)
        if p == 2:
            lo = -(1 + a.drop)
            w, l_max = LatticeWindow(lo, lo + 3, d=2, p=2), 1
        else:
            w, l_max = LatticeWindow(-1, 1, d=2, p=3), 1 if a.drop == 0 else 0
        gens = [m for _, m in generator_matrices(a, l_max, w)]
        b = window_b_image(w)
        assert max_invariant_subspace(gens, w, b) == brute_max_invariant(
            p, w.dim, gens, ambient=b
        )
    finish(6, "fixed-space and invariant-subspace oracles", t0, 120)


def test_criterion_7_scaling_intertwiner():
    t0 = time.perf_counter()
    rng = random.Random(1007)
    for name in sorted(EXAMPLES):
        a = bundled_action(name)
        m = 8 - (a.drop + max(0, a.max_in_exp))
        for _ in range(100):
            x = random_series(rng, a.p, prec=8, min_val=-2)
            u = random_vector(rng, a.p, a.d, prec=8, min_val=-2)
            base = apply_phi(a, x, u, out_prec=m)
            for n in range(1, 6):
                moved = apply_phi(a, x.shift(n), u.shift(n), out_prec=m + n)
                assert moved == base.shift(n)
    finish(7, "t^n scaling, n=1..5 x 100 pairs x 4 families", t0, 5)


def test_criterion_8_parser_round_trip_and_canonicalization():
    t0 = time.perf_counter()
    rng = random.Random(1008)
    for _ in range(500):
        p = rng.choice([2, 3, 5, 97])
        s = random_series(rng, p, prec=rng.randint(0, 8), min_val=rng.choice([-3, -1, 0]))
        assert parse_series(format_series(s), p, 0) == s
    for text, p, default_prec, expected in CANON_CASES:
        assert format_series(parse_series(text, p, default_prec)) == expected
    finish(8, "500 round-trips + 30 canonical literals", t0, 2)


def test_criterion_9_cli_reports_are_deterministic(tmp_path, capsys):
    t0 = time.perf_counter()
    verbs = ["validate", "find-fixed", "invariant-chain", "lemma-check"]
    for name in sorted(EXAMPLES):
        cfg = tmp_path / f"{name}.yaml"
        assert console_main(["gen-example", name, "--config", str(cfg)]) == 0
        for verb in verbs:
            blobs = []
            for run in (1, 2):
                rpt = tmp_path / f"{name}-{verb}-{run}.json"
                code = console_main(
                    [verb, "--config", str(cfg), "--seed", "3", "--json", str(rpt)]
                )
                assert code == 0, (name, verb)
                blobs.append(rpt.read_bytes())
            assert blobs[0] == blobs[1], (name, verb)
    capsys.readouterr()
    finish(9, "byte-identical reports, 4 verbs x 4 families", t0, 30)
