"""Building equivariant actions from seeds and evaluating them."""

import random

import pytest

from equifix.action import (
    ActionSpec,
    apply_phi,
    build_action,
    equivariance_check,
    fixed_condition_rows,
    generator_matrices,
    phi,
    random_valid_action,
)
from equifix.errors import InsufficientPrecision, NonCommuting, NotOrderP
from equifix.laurent import (
    LatticeWindow,
    LaurentSeries,
    SeriesVector,
    parse_series,
    random_series,
    random_vector,
)
from equifix.linalg import FpMatrix
from equifix.taps import SparsePerturbation, TapEntry


def mk_action(p, d, taps, label=""):
    seed = SparsePerturbation(p, d, [TapEntry(*t) for t in taps])
    return build_action(ActionSpec(p=p, d=d, seed=seed, label=label))


TRIVIAL = (2, 1, [])
TAP = (2, 2, [(1, 0, 2, 0, 1)])
DROP = (2, 2, [(1, 0, 2, -1, 1)])
CHAIN3 = (3, 3, [(1, 0, 2, 0, 1), (2, 0, 3, 0, 1)])

FAMILIES = [TRIVIAL, TAP, DROP, CHAIN3]


def sample_pair(rng, a, prec):
    """Random (x, u) with enough headroom for a's seed shape."""
    margin = a.drop + max(0, a.max_in_exp)
    x = random_series(rng, a.p, prec=prec + a.drop, min_val=-2)
    u = random_vector(rng, a.p, a.d, prec=prec + margin, min_val=-2)
    return x, u


# ---------------------------------------------------------------- building


def test_trivial_action_builds_and_acts_as_identity():
    a = mk_action(*TRIVIAL)
    assert a.seed.is_zero
    rng = random.Random(430)
    for _ in range(10):
        x = random_series(rng, 2, prec=4, min_val=-2)
        u = random_vector(rng, 2, 1, prec=4, min_val=0)
        assert apply_phi(a, x, u) == u


def test_build_rejects_invalid_seeds():
    with pytest.raises(NotOrderP):
        mk_action(2, 2, [(1, 0, 2, 0, 1), (2, 0, 1, 0, 1)])
    with pytest.raises(NonCommuting):
        mk_action(2, 3, [(1, 0, 2, 1, 1), (2, 0, 3, 0, 1)])


def test_action_exposes_shape_attributes():
    a = mk_action(*DROP)
    assert (a.p, a.d, a.drop, a.max_in_exp) == (2, 2, 1, 0)
    assert a.certificates()["nilpotency"]["ok"]
    assert a.certificates()["commutation"]["ok"]


# ---------------------------------------------------------------- phi


def test_phi_of_zero_is_identity():
    a = mk_action(*TAP)
    w = LatticeWindow(0, 3, d=2, p=2)
    op = phi(a, LaurentSeries.zero(2, 5), w.hi)
    assert op.factors == ()  # the empty product: the identity


def test_phi_of_one_plus_t_uses_two_factors():
    a = mk_action(*TAP)
    x = parse_series("1 + t + O(t^4)", 2, 4)
    u = SeriesVector(
        [parse_series("1 + t + O(t^4)", 2, 4), parse_series("0 + O(t^4)", 2, 4)]
    )
    out = apply_phi(a, x, u)
    # id + E0 + E1 sends (u1, 0) to (u1, coeff0(u1) + coeff1(u1)*t)
    assert out.component(1) == u.component(1)
    assert out.component(2) == parse_series("1 + t + O(t^4)", 2, 4)


def test_phi_of_deep_power_is_invisible_on_window():
    a = mk_action(*TAP)
    w = LatticeWindow(0, 3, d=2, p=2)
    # mu(k) = k for this seed, so the k = 3 generator writes at t^3
    op = phi(a, LaurentSeries(2, 3, (1,), 7), w.hi)
    assert op.factors == ()  # the empty product: the identity


def test_apply_phi_of_zero_vector_is_zero():
    rng = random.Random(431)
    for fam in FAMILIES:
        a = mk_action(*fam)
        x = random_series(rng, a.p, prec=5, min_val=-2)
        z = SeriesVector.zero(a.p, a.d, 6)
        assert apply_phi(a, x, z, out_prec=4).is_zero


def test_tap_action_example_values():
    a = mk_action(*TAP)
    one = LaurentSeries(2, 0, (1,), 4)
    u = SeriesVector(
        [parse_series("1 + O(t^4)", 2, 4), parse_series("0 + O(t^4)", 2, 4)]
    )
    out = apply_phi(a, one, u)
    assert out.component(1) == parse_series("1 + O(t^4)", 2, 4)
    assert out.component(2) == parse_series("1 + O(t^4)", 2, 4)


def test_tap_action_ignores_zero_first_coordinate():
    rng = random.Random(432)
    a = mk_action(*TAP)
    for _ in range(20):
        x = random_series(rng, 2, prec=5, min_val=-2)
        s = random_series(rng, 2, prec=4, min_val=0)
        u = SeriesVector([LaurentSeries.zero(2, 4), s])
        assert apply_phi(a, x, u, out_prec=4) == u


def test_tap_action_closed_form():
    # phi(x)(u1, u2) = (u1, u2 + sum_k c_k * coeff_k(u1) * t^k): evaluate
    # that closed form by hand and compare against the operator product.
    rng = random.Random(433)
    a = mk_action(*TAP)
    for _ in range(40):
        x = random_series(rng, 2, prec=4, min_val=-2)
        u = random_vector(rng, 2, 2, prec=4, min_val=0)
        terms = {}
        for k in range(min(x.val if not x.is_zero else 4, 4), 4):
            c = x.coeff(k) * u.component(1).coeff(k) if k >= 0 else 0
            if c % 2:
                terms[k] = c % 2
        expect2 = u.component(2).add(LaurentSeries.from_terms(2, terms, 4))
        out = apply_phi(a, x, u)
        assert out.component(1) == u.component(1)
        assert out.component(2) == expect2


def test_apply_phi_respects_requested_precision():
    a = mk_action(*DROP)
    x = parse_series("1 + O(t^6)", 2, 6)
    u = random_vector(random.Random(434), 2, 2, prec=6, min_val=0)
    out = apply_phi(a, x, u, out_prec=3)
    assert out.prec == 3
    with pytest.raises(InsufficientPrecision):
        # writing below t^6 requires reading u at t^6, which is unknown
        apply_phi(a, x, u, out_prec=7)


def test_apply_phi_reads_only_what_each_factor_needs():
    """Seed [1@0 -> 2@0], [1@5 -> 3@2]: mod t^4, g_3's second tap writes
    t^5 and vanishes, so it needs u only mod t^4, though at u's own
    precision it would read t^8; g_0 before it writes t^2 from t^5, so
    phi(1 + t^3) needs u mod t^6."""
    a = mk_action(2, 3, [(1, 0, 2, 0, 1), (1, 5, 3, 2, 1)])
    ones = SeriesVector([LaurentSeries.from_terms(2, dict.fromkeys(range(10), 1), 10)] * 3)
    for terms, need in (({3: 1}, 4), ({0: 1, 3: 1}, 6)):
        x = LaurentSeries.from_terms(2, terms, 4)
        expected = apply_phi(a, x, ones, out_prec=4)
        for prec in range(need, 10):
            assert apply_phi(a, x, ones.truncate(prec), out_prec=4) == expected
        if need > 4:
            with pytest.raises(InsufficientPrecision, match=f"read it mod t\\^{need}"):
                apply_phi(a, x, ones.truncate(need - 1), out_prec=4)


def _per_factor_apply(op, u):
    """Reference for PhiOperator.apply: the same backward walk, then one
    SeriesVector per factor, each g_k applied at its walk precision by
    reading the previous factor's series, and a final cut to the target."""
    n = op.action.seed
    steps = [k for k, c in op.factors for _ in range(c)]
    needs = [op.target_prec]
    for k in reversed(steps):
        need = needs[-1]
        needs.append(max([need] + [e.in_exp + k + 1 for e in n.entries if e.out_exp + k < need]))
    needs.reverse()
    if u.prec < needs[0]:
        raise InsufficientPrecision(
            f"operand known mod t^{u.prec}; the factors of phi mod t^{op.target_prec} "
            f"read it mod t^{needs[0]}"
        )
    v = u
    for k, need in zip(steps, needs[1:]):
        acc = [dict(s.terms) for s in v.series]
        for e in n.entries:
            if e.out_exp + k < need:
                c_in = v.series[e.in_comp - 1].coeff(e.in_exp + k)
                slot = acc[e.out_comp - 1]
                slot[e.out_exp + k] = slot.get(e.out_exp + k, 0) + e.coeff * c_in
        v = SeriesVector([LaurentSeries.from_terms(n.p, terms, need) for terms in acc])
    return v.truncate(op.target_prec)


def test_apply_phi_matches_the_per_factor_route():
    """On random certified actions whose seeds drop below the lattice or
    read above where they write, and x with coefficients up to p - 1,
    apply_phi equals the per-factor reference; on every shorter u it
    returns the same series or raises the same message."""
    rng = random.Random(440)
    actions = [
        random_valid_action(rng, p, rng.randint(2, 3), exp_lo=-2, exp_hi=2)
        for p in (2, 3, 5)
        for _ in range(12)
    ]
    # A relay: the tap into 2@3 feeds the tap out of 2@3, so the second
    # copy of a repeated factor reads what the first wrote above the target.
    actions += [mk_action(p, 3, [(1, 0, 2, 3, 1), (2, 3, 3, 0, 1)]) for p in (3, 5)]
    seen = {"drop": 0, "reads_above": 0, "top_coeff": 0, "short": 0}
    for a in actions:
        seen["drop"] += a.drop > 0
        seen["reads_above"] += any(e.in_exp > e.out_exp for e in a.seed.entries)
        for _ in range(3):
            target = rng.randint(1, 5)
            x = random_series(rng, a.p, prec=target + a.drop + 1, min_val=-3)
            seen["top_coeff"] += a.p - 1 in x.terms.values()
            full = random_vector(rng, a.p, a.d, prec=target + 12, min_val=-3)
            op = phi(a, x, target)
            expected = _per_factor_apply(op, full)
            for prec in range(target, target + 12):
                u = full.truncate(prec)
                try:
                    ref = _per_factor_apply(op, u)
                except InsufficientPrecision as exc:
                    seen["short"] += 1
                    with pytest.raises(InsufficientPrecision) as got:
                        apply_phi(a, x, u, out_prec=target)
                    assert str(got.value) == str(exc)
                    continue
                assert ref == expected
                assert apply_phi(a, x, u, out_prec=target) == expected
    assert all(seen.values()), seen


# ---------------------------------------------------------------- equivariance


def test_equivariance_x_zero_gives_u_back():
    a = mk_action(*TAP)
    u = random_vector(random.Random(435), 2, 2, prec=5, min_val=0)
    report = equivariance_check(a, [(LaurentSeries.zero(2, 5), u)])
    assert report.ok and len(report.samples) == 1


def test_equivariance_on_all_families():
    rng = random.Random(436)
    for fam in FAMILIES:
        a = mk_action(*fam)
        pairs = [sample_pair(rng, a, 8) for _ in range(25)]
        report = equivariance_check(a, pairs, precision=8)
        assert report.ok, f"equivariance failed for {fam}"
        assert not report.failures


def test_equivariance_needs_headroom():
    a = mk_action(*DROP)
    x = parse_series("1 + O(t^1)", 2, 1)
    u = random_vector(random.Random(437), 2, 2, prec=1, min_val=0)
    with pytest.raises(InsufficientPrecision):
        equivariance_check(a, [(x, u)])


def test_scaling_intertwiner_on_all_families():
    rng = random.Random(438)
    for fam in FAMILIES:
        a = mk_action(*fam)
        for _ in range(25):
            x, u = sample_pair(rng, a, 6)
            base = apply_phi(a, x, u, out_prec=4)
            for n in range(1, 4):
                lhs = apply_phi(a, x.shift(n), u.shift(n), out_prec=4 + n)
                assert lhs == base.shift(n)


# ---------------------------------------------------------------- generators


def test_trivial_action_has_no_visible_generators():
    a = mk_action(*TRIVIAL)
    w = LatticeWindow(0, 3, d=1, p=2)
    assert generator_matrices(a, 2, w) == []


def test_tap_generators_level_zero():
    a = mk_action(*TAP)
    w = LatticeWindow(0, 2, d=2, p=2)
    gens = generator_matrices(a, 0, w)
    assert [k for k, _ in gens] == [0, 1]
    for k, m in gens:
        expect = FpMatrix.identity(2, w.dim).a.copy()
        expect[w.index(2, k), w.index(1, k)] = 1
        assert m.a.tolist() == expect.tolist()


def test_tap_generators_level_one():
    a = mk_action(*TAP)
    w = LatticeWindow(-1, 2, d=2, p=2)
    gens = generator_matrices(a, 1, w)
    assert [k for k, _ in gens] == [-1, 0, 1]


def test_generator_matrices_have_order_p():
    rng = random.Random(439)
    for fam in FAMILIES:
        a = mk_action(*fam)
        w = LatticeWindow(-a.drop - 2, 3, d=a.d, p=a.p)
        for _, m in generator_matrices(a, 2, w):
            assert m**a.p == FpMatrix.identity(a.p, w.dim)
    _ = rng  # symmetry with the other loops; no randomness needed here


# ---------------------------------------------------------------- conditions


def test_trivial_action_has_no_conditions():
    a = mk_action(*TRIVIAL)
    assert fixed_condition_rows(a, LatticeWindow(0, 3, d=1, p=2)) == []


def test_fixed_conditions_pin_first_component():
    # Hand derivation for both two-component families on [0,3): being
    # fixed by every visible generator forces u1 = 0 there, while u2 is
    # untouched, so the cut space is the component-2 block.  For the
    # dropping variant the lowest write lands below the floor and still
    # counts as a condition on the canonical representative.
    import numpy as np

    from equifix.linalg import Subspace, kernel

    for fam in (TAP, DROP):
        a = mk_action(*fam)
        w = LatticeWindow(0, 3, d=2, p=2)
        rows = fixed_condition_rows(a, w)
        assert rows
        f = kernel(FpMatrix(2, np.array(rows, dtype=np.int64)))
        expect = Subspace.from_rows(
            2, w.dim, [[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]
        )
        assert f == expect


def _fixed_condition_rows_by_group(a, w):
    """Reference: one row per (k, output slot) group, built one at a time,
    in sorted key order, zero rows dropped."""
    import numpy as np

    groups = {}
    for e in a.seed.entries:
        for k in range(w.lo - e.in_exp, min(w.hi - e.in_exp, w.hi - e.out_exp)):
            row = groups.setdefault((k, e.out_comp, e.out_exp + k), {})
            col = w.index(e.in_comp, e.in_exp + k)
            row[col] = (row.get(col, 0) + e.coeff) % w.p
    rows = []
    for key in sorted(groups):
        row = np.zeros(w.dim, dtype=np.int64)
        for col, c in groups[key].items():
            row[col] = c
        if row.any():
            rows.append(row)
    return rows


def test_fixed_condition_rows_match_the_per_group_loop():
    rng = random.Random(441)
    for trial in range(30):
        p = (2, 3, 5)[trial % 3]
        a = random_valid_action(rng, p, rng.randint(2, 3), exp_lo=-2, exp_hi=2)
        w = LatticeWindow(-rng.randint(0, 3), rng.randint(1, 4), d=a.d, p=p)
        got, expected = fixed_condition_rows(a, w), _fixed_condition_rows_by_group(a, w)
        assert len(got) == len(expected)
        assert all((g == e).all() for g, e in zip(got, expected))
    assert fixed_condition_rows(mk_action(*TRIVIAL), LatticeWindow(-1, 2, d=1, p=2)) == []


# ---------------------------------------------------------------- sampling


def test_random_valid_action_produces_certified_actions():
    rng = random.Random(440)
    for _ in range(15):
        p = rng.choice([2, 3])
        d = rng.randint(2, 3)
        a = random_valid_action(rng, p, d)
        assert a.certificates()["nilpotency"]["ok"]
        assert a.certificates()["commutation"]["ok"]
        assert not a.seed.is_zero
