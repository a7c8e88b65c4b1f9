"""Sparse tap perturbations N and the automorphisms g = id + N."""

import random

import numpy as np
import pytest

from equifix.action import ActionSpec, apply_phi, build_action
from equifix.errors import (
    DimensionMismatch,
    InsufficientPrecision,
    NonCommuting,
    NotOrderP,
    WindowTooNarrow,
)
from equifix.laurent import (
    LatticeWindow,
    LaurentSeries,
    SeriesVector,
    parse_series,
    random_vector,
)
from equifix.linalg import FpMatrix
from equifix.taps import (
    ContractionModulus,
    SeedAutomorphism,
    SparsePerturbation,
    TapEntry,
    commutation_range_check,
    compose,
    derive_modulus,
    induced_matrix,
    inverse_perturbation,
    power_check_nilpotent,
)


def pert(p, d, *taps):
    return SparsePerturbation(p, d, [TapEntry(*t) for t in taps])


TAP = (1, 0, 2, 0, 1)  # read comp 1 at t^0, add to comp 2 at t^0
DROP = (1, 0, 2, -1, 1)  # same read, but write one exponent lower


# ---------------------------------------------------------------- entries


def test_entries_sorted_deduplicated_reduced():
    n = pert(3, 2, (1, 0, 2, 0, 2), (1, 0, 2, 0, 2), (1, 1, 2, 1, 5))
    # duplicate taps merge: 2+2 = 4 = 1 mod 3; 5 reduces to 2
    assert [(e.in_comp, e.in_exp, e.out_comp, e.out_exp, e.coeff) for e in n.entries] == [
        (1, 0, 2, 0, 1),
        (1, 1, 2, 1, 2),
    ]


def test_entries_cancel_to_zero():
    n = pert(2, 2, (1, 0, 2, 0, 1), (1, 0, 2, 0, 1))
    assert n.is_zero and n == SparsePerturbation.zero(2, 2)


def test_component_out_of_range_rejected():
    with pytest.raises(DimensionMismatch):
        pert(2, 2, (1, 0, 3, 0, 1))


# ---------------------------------------------------------------- conjugation


def test_conjugate_shifts_both_slots():
    n = pert(2, 2, TAP)
    k1 = n.conjugate(1)
    assert [(e.in_exp, e.out_exp) for e in k1.entries] == [(1, 1)]
    assert k1.entries[0].in_comp == 1 and k1.entries[0].out_comp == 2


def test_conjugate_equals_the_constructor_on_the_shifted_entries():
    rng = random.Random(18)
    for _ in range(300):
        p, d = rng.choice([2, 3, 5]), rng.randint(1, 3)
        taps = [
            (rng.randint(1, d), rng.randint(-4, 4), rng.randint(1, d), rng.randint(-4, 4),
             rng.randrange(-p, 2 * p))
            for _ in range(rng.randint(0, 8))
        ]
        n = pert(p, d, *taps)
        k = rng.randint(-20, 20)
        shifted = n.conjugate(k)
        expected = SparsePerturbation(p, d, [e.shifted(k) for e in n.entries])
        assert shifted == expected and shifted.entries == expected.entries
        assert type(shifted) is SparsePerturbation and (shifted.p, shifted.d) == (p, d)
        with pytest.raises(AttributeError):
            shifted.entries = ()
        assert n.conjugate(k).conjugate(-k) == n


def test_conjugate_matches_shifted_application():
    # g_k(v) = t^k g(t^-k v): the seed reads above where it writes, and for
    # some k one tap writes at or above the truncation order.
    rng = random.Random(420)
    g = SeedAutomorphism(pert(3, 2, (1, 1, 2, -1, 2), (1, 0, 2, 1, 1)))
    for _ in range(40):
        k = rng.randint(-2, 2)
        v = random_vector(rng, 3, 2, prec=6, min_val=-3)
        direct = g.apply(v, k, out_prec=2)
        via_shift = g.apply(v.shift(-k), out_prec=2 - k).shift(k)
        assert direct == via_shift


# ---------------------------------------------------------------- composition


def test_compose_with_empty_is_empty():
    n = pert(2, 2, TAP)
    z = SparsePerturbation.zero(2, 2)
    assert compose(n, z).is_zero and compose(z, n).is_zero


def test_tap_squares_to_zero():
    n = pert(2, 2, TAP)
    assert compose(n, n).is_zero  # output slot comp 2 is never read


def test_compose_chains_through_matching_slot():
    a = pert(2, 2, (1, 0, 2, 3, 1))
    b = pert(2, 2, (2, 3, 1, 5, 1))
    ba = compose(b, a)  # b after a: 1@0 feeds 2@3 feeds 1@5
    assert [(e.in_comp, e.in_exp, e.out_comp, e.out_exp, e.coeff) for e in ba.entries] == [
        (1, 0, 1, 5, 1)
    ]
    # the other order finds no matching slot
    assert compose(a, b).is_zero


def test_compose_multiplies_coefficients():
    a = pert(7, 2, (1, 0, 2, 1, 3))
    b = pert(7, 2, (2, 1, 1, 4, 4))
    ba = compose(b, a)
    assert ba.entries[0].coeff == (3 * 4) % 7


# ---------------------------------------------------------------- order p


def test_single_cross_tap_is_nilpotent():
    assert power_check_nilpotent(pert(2, 2, TAP))
    assert power_check_nilpotent(pert(5, 2, TAP))


def test_idempotent_tap_is_not_nilpotent():
    # N = read 1@0 write 1@0: N^k = N for every k, never vanishes.
    n = pert(2, 1, (1, 0, 1, 0, 1))
    assert compose(n, n) == n
    assert not power_check_nilpotent(n)


def test_empty_perturbation_is_nilpotent_and_commutes():
    z = SparsePerturbation.zero(3, 2)
    assert power_check_nilpotent(z)
    ok, witness = commutation_range_check(z)
    assert ok and witness is None


def test_tap_conjugates_commute():
    ok, witness = commutation_range_check(pert(2, 2, TAP))
    assert ok and witness is None


def test_swap_taps_fail_nilpotency_not_commutation():
    # Both taps live at level 0, so every cross-level product vanishes
    # and the conjugates commute; the seed is still invalid because
    # N^2 = (1@0->1@0) + (2@0->2@0) != 0.
    n = pert(2, 2, (1, 0, 2, 0, 1), (2, 0, 1, 0, 1))
    sq = compose(n, n)
    assert [(e.in_comp, e.out_comp) for e in sq.entries] == [(1, 1), (2, 2)]
    assert not power_check_nilpotent(n)
    ok, witness = commutation_range_check(n)
    assert ok and witness is None


def test_cross_level_chain_fails_commutation():
    # (1@0 -> 2@1) then (2@0 -> 3@0): the first tap's output lands one
    # level up, where the shifted copy of the second tap reads it, so
    # N_0 and N_1 do not commute.
    n = pert(2, 3, (1, 0, 2, 1, 1), (2, 0, 3, 0, 1))
    assert power_check_nilpotent(n)
    ok, witness = commutation_range_check(n)
    assert not ok and witness is not None


def full_commutation_sweep(n):
    """The sweep commutation_range_check replaced: every offset in
    [-span, span] but 0, ascending."""
    for delta in range(-n.span, n.span + 1):
        if delta:
            shifted = n.conjugate(delta)
            if n.compose(shifted) != shifted.compose(n):
                return False, (0, delta)
    return True, None


def test_commutation_check_matches_the_full_sweep():
    rng = random.Random(131)
    verdicts = []
    for _ in range(400):
        p, d = rng.choice([2, 3]), rng.randint(1, 3)
        taps = [
            (rng.randint(1, d), rng.randint(-4, 4), rng.randint(1, d), rng.randint(-4, 4),
             rng.randint(1, p - 1))
            for _ in range(rng.randint(0, 4))
        ]
        n = pert(p, d, *taps)
        verdict = commutation_range_check(n)
        assert verdict == full_commutation_sweep(n), taps
        verdicts.append(verdict[0])
    assert 50 < verdicts.count(False) < 350


def test_commutation_check_conjugates_only_where_taps_chain(monkeypatch):
    """A far tap has span 999999, but only at delta = -999999 and 999999
    can a conjugate's tap read what the other's writes."""
    calls = []
    real = SparsePerturbation.conjugate

    def counting_conjugate(self, k):
        calls.append(k)
        return real(self, k)

    monkeypatch.setattr(SparsePerturbation, "conjugate", counting_conjugate)
    n = pert(2, 2, (1, 999999, 2, 0, 1))
    assert commutation_range_check(n) == (True, None)
    assert calls == [-999999, 999999]


# ---------------------------------------------------------------- modulus


def test_modulus_of_level_tap():
    m = derive_modulus(pert(2, 2, TAP))
    assert not m.is_infinite
    for k in range(-3, 4):
        assert m.mu(k) == k


def test_modulus_of_dropping_tap():
    m = derive_modulus(pert(2, 2, DROP))
    for k in range(-3, 4):
        assert m.mu(k) == k - 1
    assert m.threshold(4) == 5  # generators at k >= 5 are invisible mod t^4


def test_modulus_of_empty_seed_is_infinite():
    m = derive_modulus(SparsePerturbation.zero(2, 2))
    assert m.is_infinite and m.threshold(4) is None


def test_visible_is_the_range_below_the_threshold():
    """visible(first, prec) is range(first, threshold(prec)) for a finite
    modulus, and for the infinite one empty, stopping at first."""
    infinite = ContractionModulus(None)
    for first in range(-6, 7):
        for prec in range(-4, 9):
            for min_out in (-3, -1, 0, 2, 5):
                m = ContractionModulus(min_out)
                ks = m.visible(first, prec)
                assert (ks.start, ks.stop, ks.step) == (first, m.threshold(prec), 1)
            ks = infinite.visible(first, prec)
            assert (ks.start, ks.stop) == (first, first) and not ks


def test_needs_walks_the_steps_backward():
    """A seed reading two above where it writes: g_k mod t^1 reads t^(2+k)
    when it writes t^k below 1, and a later step's need raises an earlier
    step's."""
    g = SeedAutomorphism(pert(2, 2, (1, 2, 2, 0, 1)))
    assert g.needs([], 4) == [4]
    assert g.needs([0], 4) == [4, 4]
    assert g.needs([0], 1) == [3, 1]
    assert g.needs([1], 1) == [1, 1]
    assert g.needs([-1, 0], 1) == [3, 3, 1]
    assert g.needs([0, -1], 1) == [3, 2, 1]


# ---------------------------------------------------------------- inverse


def test_inverse_perturbation_gives_group_inverse():
    rng = random.Random(421)
    seeds = [
        pert(2, 2, TAP),
        pert(2, 2, DROP),
        pert(3, 3, (1, 0, 2, 0, 1), (2, 0, 3, 0, 1)),
        pert(5, 2, (1, 2, 2, -1, 3)),
    ]
    for n in seeds:
        m = inverse_perturbation(n)
        # (id + n)(id + m) = id means n + m + n.m = 0
        total = n.add(m).add(compose(n, m))
        assert total.is_zero
        for _ in range(10):
            v = random_vector(rng, n.p, n.d, prec=5, min_val=-2)
            g = SeedAutomorphism(n)
            h = SeedAutomorphism(m)
            assert h.apply(g.apply(v, out_prec=3), out_prec=3) == v.truncate(3)


# ---------------------------------------------------------------- window matrix


def test_identity_operator_induces_identity_matrix():
    w = LatticeWindow(-2, 3, d=2, p=3)
    m = induced_matrix(SparsePerturbation.zero(3, 2), w)
    assert m == FpMatrix.identity(3, w.dim)


def test_level_tap_matrix_on_unit_window():
    w = LatticeWindow(0, 1, d=2, p=2)
    m = induced_matrix(pert(2, 2, TAP), w)
    # column convention: image of basis (1@0) is itself plus (2@0)
    assert m.a.tolist() == [[1, 0], [1, 1]]


def test_dropping_tap_needs_room_below():
    with pytest.raises(WindowTooNarrow):
        induced_matrix(pert(2, 2, DROP), LatticeWindow(0, 1, d=2, p=2))
    w = LatticeWindow(-1, 1, d=2, p=2)
    m = induced_matrix(pert(2, 2, DROP), w)
    assert m.shape == (4, 4)
    expect = np.eye(4, dtype=np.int64)
    expect[w.index(2, -1), w.index(1, 0)] = 1
    assert m.a.tolist() == expect.tolist()


def test_writes_above_window_are_dropped_silently():
    w = LatticeWindow(0, 1, d=2, p=2)
    m = induced_matrix(pert(2, 2, (1, 0, 2, 5, 1)), w)
    assert m == FpMatrix.identity(2, w.dim)


def test_matrix_matches_series_application():
    # The window matrix and the series-level automorphism must agree on
    # every basis class of the window.
    rng = random.Random(422)
    for _ in range(30):
        p = rng.choice([2, 3])
        n = pert(
            p,
            2,
            (1, rng.randint(0, 1), 2, rng.randint(-1, 1), rng.randint(1, p - 1) if p > 2 else 1),
        )
        w = LatticeWindow(-2, 2, d=2, p=p)
        mat = induced_matrix(n, w)
        g = SeedAutomorphism(n)
        from equifix.laurent import coords_to_vector, window_coords

        for j in range(w.dim):
            e = np.zeros(w.dim, dtype=np.int64)
            e[j] = 1
            v = coords_to_vector(e, w)
            assert (mat.apply(e) % p).tolist() == window_coords(
                g.apply(v, out_prec=w.hi), w
            ).tolist()


# ---------------------------------------------------------------- automorphism


def test_seed_automorphism_validates_and_certifies():
    g = SeedAutomorphism(pert(2, 2, TAP))
    assert g.nilpotency["ok"] and g.commutation["ok"]
    assert g.nilpotency["vanished_at_power"] == 2


def test_seed_automorphism_rejects_bad_seeds():
    with pytest.raises(NotOrderP):
        SeedAutomorphism(pert(2, 1, (1, 0, 1, 0, 1)))
    with pytest.raises(NotOrderP):
        SeedAutomorphism(pert(2, 2, (1, 0, 2, 0, 1), (2, 0, 1, 0, 1)))
    with pytest.raises(NonCommuting):
        SeedAutomorphism(pert(2, 3, (1, 0, 2, 1, 1), (2, 0, 3, 0, 1)))


def test_seed_automorphism_has_order_p():
    rng = random.Random(423)
    for p, d, taps in [
        (2, 2, [TAP]),
        (3, 2, [TAP]),
        (3, 3, [(1, 0, 2, 0, 1), (2, 0, 3, 0, 1)]),
    ]:
        g = SeedAutomorphism(pert(p, d, *taps))
        for _ in range(10):
            v = random_vector(rng, p, d, prec=4, min_val=0)
            out = v.truncate(3)
            for _ in range(p):
                out = g.apply(out, out_prec=3)
            assert out == v.truncate(3)


def test_apply_at_conjugate_level():
    g = SeedAutomorphism(pert(2, 2, TAP))
    v = SeriesVector(
        [parse_series("t^2 + O(t^4)", 2, 4), parse_series("0 + O(t^4)", 2, 4)]
    )
    # conjugate at k=2 reads 1@2 (which is 1 here) and writes 2@2
    out = g.apply(v, k=2)
    assert out.component(2).coeff(2) == 1
    # conjugate at k=3 reads 1@3 = 0: nothing happens
    assert g.apply(v, k=3) == v


def test_apply_reads_only_where_a_tap_writes_below_the_target():
    # The tap reads t^5 and writes t^2.  Known mod t^3, v cannot give the
    # write at t^2; mod t^2 the write vanishes and t^5 is never read.
    g = SeedAutomorphism(pert(2, 2, (1, 5, 2, 2, 1)))
    v = SeriesVector([parse_series("1 + t^2 + O(t^3)", 2, 3), parse_series("t + O(t^3)", 2, 3)])
    with pytest.raises(InsufficientPrecision):
        g.apply(v)
    assert g.apply(v, out_prec=2) == v.truncate(2)
    # at k = -3 the same tap reads t^2, which v knows, and writes t^-1
    out = g.apply(v, k=-3)
    assert out.component(2) == parse_series("t^-1 + t + O(t^3)", 2, 3)
    with pytest.raises(InsufficientPrecision):
        g.apply(v, out_prec=4)  # beyond what v knows
    with pytest.raises(DimensionMismatch):
        g.apply(SeriesVector.zero(2, 3, 3))
    with pytest.raises(DimensionMismatch):
        g.apply(SeriesVector.zero(3, 2, 3))


def test_apply_rebuilds_each_component_once(monkeypatch):
    """One application copies each component's terms, adds the writes of
    every tap and builds each of the d output series exactly once."""
    rng = random.Random(424)
    g = SeedAutomorphism(pert(3, 3, (1, 0, 2, 0, 1), (2, 0, 3, 0, 1), (1, 2, 3, -1, 2)))
    v = random_vector(rng, 3, 3, prec=8, min_val=-2)
    real = LaurentSeries.from_terms.__func__
    built = []

    def counting_from_terms(cls, p, terms, prec):
        built.append(prec)
        return real(cls, p, terms, prec)

    monkeypatch.setattr(LaurentSeries, "from_terms", classmethod(counting_from_terms))
    for k, out_prec in ((0, None), (1, 5), (-2, 8)):
        built.clear()
        out = g.apply(v, k, out_prec=out_prec)
        assert built == [out.prec] * 3


def test_apply_phi_builds_each_component_once(monkeypatch):
    """phi(1 + t + t^2) on d = 2 runs its three factors on term dicts and
    builds each of the two output series once, at the target precision."""
    a = build_action(ActionSpec(2, 2, pert(2, 2, TAP)))
    x = LaurentSeries.from_terms(2, {0: 1, 1: 1, 2: 1}, 4)
    v = random_vector(random.Random(425), 2, 2, prec=6, min_val=-1)
    real = LaurentSeries.from_terms.__func__
    built = []

    def counting_from_terms(cls, p, terms, prec):
        built.append(prec)
        return real(cls, p, terms, prec)

    monkeypatch.setattr(LaurentSeries, "from_terms", classmethod(counting_from_terms))
    out = apply_phi(a, x, v, out_prec=4)
    assert built == [4, 4]
    assert out.prec == 4
