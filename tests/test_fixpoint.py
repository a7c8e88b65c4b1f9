"""The invariant-chain / fixed-vector / growth-chain pipeline.

The two-component expectations were derived by hand before freezing:
for the level tap every generator preserves nonnegative exponents, so
the whole lattice image survives; for the dropping tap, any u with
coeff_0(u_1) != 0 is pushed below exponent 0 by the level-0 generator,
so exactly one condition cuts the invariant part.  Both statements are
re-verified here against the subspace-enumeration oracle on a window
small enough to enumerate.
"""

import random

import numpy as np
import pytest

from equifix.action import ActionSpec, apply_phi, build_action, random_valid_action
from equifix.action import fixed_condition_rows, generator_matrices
from equifix.errors import (
    ChainInvariantViolation,
    DimensionMismatch,
    EmptyFixedSpace,
    EquifixError,
    InsufficientPrecision,
    InvalidQuotient,
    LimitExceeded,
    LMaxTooSmall,
    SingularGenerator,
    WindowTooNarrow,
)
from equifix.fixpoint import (
    InvariantChain,
    _is_intersection,
    _shifted,
    _SpinUp,
    _t_stable,
    default_window,
    extract_witness,
    find_fixed_point,
    fixed_vectors,
    lemma_chain_from_action,
    m_ell_chain,
    max_invariant_subspace,
    monomial_transfer,
    shift_matrix,
    widen_window,
    window_b_image,
)
from equifix.laurent import LatticeWindow, LaurentSeries, format_vector, parse_series, random_vector
from equifix.linalg import FpMatrix, Subspace, inverse, map_image, map_preimage, quotient
from equifix.oracle import brute_max_invariant
from equifix.replab import FiniteRep, dichotomy_probe
from equifix.taps import SparsePerturbation, TapEntry, window_taps


def mk_action(p, d, taps, label=""):
    seed = SparsePerturbation(p, d, [TapEntry(*t) for t in taps])
    return build_action(ActionSpec(p=p, d=d, seed=seed, label=label))


TRIVIAL = (2, 1, [])
TAP = (2, 2, [(1, 0, 2, 0, 1)])
DROP = (2, 2, [(1, 0, 2, -1, 1)])
CHAIN3 = (3, 3, [(1, 0, 2, 0, 1), (2, 0, 3, 0, 1)])
FAMILIES = {"trivial": TRIVIAL, "tap": TAP, "dropping-tap": DROP, "chain-3": CHAIN3}


# ---------------------------------------------------------------- windows


def test_window_b_image_spans_nonnegative_exponents():
    w = LatticeWindow(-1, 2, d=2, p=2)
    b = window_b_image(w)
    assert b.dim == 4
    for c in (1, 2):
        for e in (0, 1):
            unit = np.zeros(w.dim, dtype=np.int64)
            unit[w.index(c, e)] = 1
            assert b.contains_vector(unit)
    below = np.zeros(w.dim, dtype=np.int64)
    below[w.index(1, -1)] = 1
    assert not b.contains_vector(below)


def test_window_b_image_with_positive_floor():
    w = LatticeWindow(1, 3, d=1, p=2)
    assert window_b_image(w) == Subspace.full(2, w.dim)


def test_window_b_image_floor_one_is_t_times_lattice():
    for w in (LatticeWindow(-2, 3, d=2, p=3), LatticeWindow(0, 4, d=3, p=2)):
        t_b = map_image(shift_matrix(w), window_b_image(w))
        assert window_b_image(w, floor=1) == t_b
        assert window_b_image(w, floor=1).dim == w.d * (w.hi - 1)


def test_monomial_transfer_shifts_exponents():
    w = LatticeWindow(0, 3, d=1, p=2)
    up = monomial_transfer(w, w, 1)
    v = np.zeros(3, dtype=np.int64)
    v[w.index(1, 0)] = 1
    assert up.apply(v).tolist() == [0, 1, 0]
    top = np.zeros(3, dtype=np.int64)
    top[w.index(1, 2)] = 1
    assert not up.apply(top).any()  # pushed past the ceiling: dropped


def test_monomial_transfer_between_windows():
    src = LatticeWindow(0, 4, d=1, p=3)
    dst = LatticeWindow(-2, 2, d=1, p=3)
    down = monomial_transfer(src, dst, -2)
    v = np.zeros(src.dim, dtype=np.int64)
    v[src.index(1, 1)] = 2
    out = down.apply(v)
    assert out[dst.index(1, -1)] == 2 and out.sum() == 2


def looped_monomial_transfer(src, dst, n):
    """The entry-by-entry matrix monomial_transfer replaced."""
    a = np.zeros((dst.dim, src.dim), dtype=np.int64)
    for c in range(1, src.d + 1):
        for e in range(src.lo, src.hi):
            if dst.contains_exp(e + n):
                a[dst.index(c, e + n), src.index(c, e)] = 1
    return a


def test_monomial_transfer_matches_the_entry_loop():
    windows = [
        LatticeWindow(lo, hi, d=d, p=3) for lo, hi in ((-3, 4), (0, 2), (-1, 5)) for d in (1, 2)
    ]
    for src in windows:
        for dst in windows:
            if src.d != dst.d:
                continue
            for n in range(-8, 9):
                assert np.array_equal(
                    monomial_transfer(src, dst, n).a, looped_monomial_transfer(src, dst, n)
                )


def test_shift_matrix_is_transfer_by_one():
    w = LatticeWindow(-1, 2, d=2, p=3)
    assert shift_matrix(w) == monomial_transfer(w, w, 1)


def test_default_and_widened_windows():
    tap = mk_action(*TAP)
    drop = mk_action(*DROP)
    assert default_window(tap, 4, 3) == LatticeWindow(-3, 4, d=2, p=2)
    assert default_window(drop, 4, 3) == LatticeWindow(-4, 5, d=2, p=2)
    assert default_window(drop, 4, 2, n_max=3) == LatticeWindow(-4, 5, d=2, p=2)
    assert widen_window(LatticeWindow(-3, 4, d=2, p=2)) == LatticeWindow(
        -6, 8, d=2, p=2
    )
    assert widen_window(LatticeWindow(0, 2, d=2, p=2)) == LatticeWindow(
        -2, 4, d=2, p=2
    )


# ---------------------------------------------------------------- iteration


def test_max_invariant_identity_generators():
    w = LatticeWindow(-1, 2, d=2, p=2)
    b = window_b_image(w)
    assert max_invariant_subspace([FpMatrix.identity(2, w.dim)], w, b) == b


def test_max_invariant_rejects_singular_generator():
    w = LatticeWindow(0, 1, d=2, p=2)
    singular = FpMatrix(2, [[1, 0], [1, 0]])
    with pytest.raises(SingularGenerator):
        max_invariant_subspace([singular], w, window_b_image(w))


def test_max_invariant_tap_keeps_whole_lattice_image():
    a = mk_action(*TAP)
    w = LatticeWindow(-1, 2, d=2, p=2)
    gens = [m for _, m in generator_matrices(a, 1, w)]
    b = window_b_image(w)
    result = max_invariant_subspace(gens, w, b)
    assert result == b
    assert result == brute_max_invariant(2, w.dim, gens, ambient=b)


def test_max_invariant_dropping_tap_cuts_one_condition():
    a = mk_action(*DROP)
    w = LatticeWindow(-2, 2, d=2, p=2)
    gens = [m for _, m in generator_matrices(a, 1, w)]
    b = window_b_image(w)
    result = max_invariant_subspace(gens, w, b)
    expect_rows = []
    for c, e in [(1, 1), (2, 0), (2, 1)]:
        row = np.zeros(w.dim, dtype=np.int64)
        row[w.index(c, e)] = 1
        expect_rows.append(row)
    assert result == Subspace.from_rows(2, w.dim, expect_rows)
    assert result == brute_max_invariant(2, w.dim, gens, ambient=b)


def test_max_invariant_is_generator_order_independent():
    rng = random.Random(470)
    for _ in range(10):
        a = random_valid_action(rng, rng.choice([2, 3]), rng.randint(2, 3))
        w = default_window(a, 3, 2)
        gens = [m for _, m in generator_matrices(a, 2, w)]
        if len(gens) < 2:
            continue
        b = window_b_image(w)
        base = max_invariant_subspace(gens, w, b)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert max_invariant_subspace(shuffled, w, b) == base


def reference_max_invariant(gens, b_image):
    """Greatest fixed point of N -> N ∩ ⋂_g (g*N ∩ g⁻¹*N) from b_image,
    taken against the N of the previous round, built from the public
    image, preimage and intersection maps only."""
    current = b_image
    while True:
        nxt = current
        for m in gens:
            nxt = nxt.intersect(map_image(m, current)).intersect(map_preimage(m, current))
        if nxt == current:
            return current
        current = nxt


def test_max_invariant_matches_image_preimage_fixpoint_on_random_actions():
    rng = random.Random(472)
    checked = 0
    while checked < 12:
        p = rng.choice([2, 3, 5])
        a = random_valid_action(rng, p, rng.randint(2, 3))
        ell = rng.randint(1, 3)
        w = default_window(a, rng.randint(2, 4), ell)
        if w.dim > 30:
            continue
        gens = [m for _, m in generator_matrices(a, ell, w)]
        b = window_b_image(w)
        assert max_invariant_subspace(gens, w, b) == reference_max_invariant(gens, b)
        checked += 1


def _random_invertible(rng, p, n):
    while True:
        m = FpMatrix(p, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        try:
            return m, inverse(m)
        except DimensionMismatch:
            continue


def test_max_invariant_matches_fixpoint_for_general_invertible_generators():
    """Invertible generators that are not all unipotent: block
    upper-triangular in a random basis, so a known subspace is invariant
    and the answer is nontrivial.  b_image adds a Krylov segment
    x, g*x, ..., g^j*x of the first generator, which takes several
    sweeps of the closure to cut away."""
    rng = random.Random(473)
    for trial in range(16):
        p = [2, 3, 5][trial % 3]
        n = rng.randint(6, 30)
        k = rng.randint(1, n - 1)
        basis, basis_inv = _random_invertible(rng, p, n)
        gens = []
        for _ in range(rng.randint(1, 3)):
            top, _ = _random_invertible(rng, p, k)
            bottom, _ = _random_invertible(rng, p, n - k)
            block = np.zeros((n, n), dtype=np.int64)
            block[:k, :k] = top.a
            block[k:, k:] = bottom.a
            block[:k, k:] = [[rng.randrange(p) for _ in range(n - k)] for _ in range(k)]
            gens.append(basis @ FpMatrix(p, block) @ basis_inv)
        ident = FpMatrix.identity(p, n)
        assert any(((g - ident) ** n).a.any() for g in gens)
        w = LatticeWindow(0, n, d=1, p=p)
        invariant = basis.a.T[:k]  # rows: images of the first k basis vectors
        noise = [np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)]
        for _ in range(rng.randint(0, 4)):
            noise.append(gens[0].apply(noise[-1]))
        b = Subspace.from_rows(p, n, [*invariant, *noise])
        result = max_invariant_subspace(gens, w, b)
        assert result == reference_max_invariant(gens, b)
        assert result.contains(Subspace.from_rows(p, n, invariant))


def test_find_fixed_point_dropping_tap_on_a_sixty_dim_window():
    a = mk_action(*DROP)
    chain, cert = find_fixed_point(a, 16, 12)
    assert chain.window.dim == 60
    assert chain.dims() == [33] * 13
    assert cert.ok


# ---------------------------------------------------------------- chains


def test_trivial_chain_is_constant_lattice_image():
    a = mk_action(*TRIVIAL)
    w = default_window(a, 4, 3)
    chain = m_ell_chain(a, 3, w)
    b = window_b_image(w)
    assert all(s == b for s in chain.subspaces)
    assert chain.m_hat == b and chain.l_stable == 0


def test_tap_chain_keeps_lattice_image():
    a = mk_action(*TAP)
    chain = m_ell_chain(a, 3, LatticeWindow(-3, 4, d=2, p=2))
    assert chain.dims() == [8, 8, 8, 8]
    assert chain.m_hat == window_b_image(chain.window)


def test_dropping_tap_chain_stabilizes_immediately():
    a = mk_action(*DROP)
    chain = m_ell_chain(a, 2, default_window(a, 4, 2))
    assert chain.l_stable == 0
    assert len(set(chain.dims())) == 1
    # the shell element (0, 1): second component constant one
    unit = np.zeros(chain.window.dim, dtype=np.int64)
    unit[chain.window.index(2, 0)] = 1
    assert chain.m_hat.contains_vector(unit)
    # ... while (1, 0) was expelled by the level-0 generator
    bad = np.zeros(chain.window.dim, dtype=np.int64)
    bad[chain.window.index(1, 0)] = 1
    assert not chain.m_hat.contains_vector(bad)


def test_chain_invariants_on_random_actions():
    rng = random.Random(471)
    for _ in range(12):
        a = random_valid_action(rng, rng.choice([2, 3]), rng.randint(2, 3))
        chain = m_ell_chain(a, 2, default_window(a, 3, 2))
        b = window_b_image(chain.window)
        t_b = map_image(shift_matrix(chain.window), b)
        prev = None
        for s in chain.subspaces:
            assert b.contains(s)
            assert not t_b.contains(s)  # still meets the shell
            if prev is not None:
                assert prev.contains(s)
            prev = s
        assert chain.m_hat == chain.subspaces[-1]
        t_m = map_image(shift_matrix(chain.window), chain.m_hat)
        assert chain.m_hat.contains(t_m)


def test_chain_to_dict_is_json_shaped():
    a = mk_action(*TAP)
    chain = m_ell_chain(a, 1, LatticeWindow(-1, 2, d=2, p=2))
    d = chain.to_dict()
    assert d["window"] == {"lo": -1, "hi": 2}
    assert d["dims"] == [4, 4]
    assert d["l_stable"] == 0
    assert all(isinstance(s, str) for s in d["m_hat_basis"])


# ---------------------------------------------------------------- fixed vectors


def test_fixed_vectors_trivial_action_is_everything():
    a = mk_action(*TRIVIAL)
    w = LatticeWindow(0, 3, d=1, p=2)
    f = meet = fixed_vectors(a, w)
    assert f == Subspace.full(2, w.dim)
    assert meet == window_b_image(w)


def test_fixed_vectors_tap_families_pin_first_component():
    for fam in (TAP, DROP):
        a = mk_action(*fam)
        w = LatticeWindow(0, 3, d=2, p=2)
        f = fixed_vectors(a, w)
        expect = Subspace.from_rows(
            2,
            w.dim,
            [np.eye(w.dim, dtype=np.int64)[w.index(2, e)] for e in range(3)],
        )
        assert f == expect


def test_fixed_vectors_meet_respects_supplied_m_hat():
    a = mk_action(*TAP)
    w = LatticeWindow(0, 3, d=2, p=2)
    tiny = Subspace.from_rows(2, w.dim, [np.eye(w.dim, dtype=np.int64)[w.index(2, 1)]])
    meet = fixed_vectors(a, w, m_hat=tiny)
    assert meet == tiny


def test_fixed_vectors_meet_matches_intersect_on_random_chains():
    rng = random.Random(476)
    for trial in range(30):
        p = [2, 3, 5][trial % 3]
        a = random_valid_action(rng, p, rng.randint(2, 3))
        l_max = rng.randint(1, 4)
        w = default_window(a, rng.randint(2, 5), l_max)
        chain = m_ell_chain(a, l_max, w)
        for m_hat in chain.subspaces + (window_b_image(w, floor=1),):
            f, meet = fixed_vectors(a, w), fixed_vectors(a, w, m_hat)
            expected = f.intersect(m_hat)
            assert meet.basis.a.tobytes() == expected.basis.a.tobytes()
            assert meet == expected


def test_fixed_vectors_meet_on_a_window_whose_codims_sum_past_the_cap():
    # dim 408: F has codim 204 and t^2 * lattice codim 404, so stacking
    # both sets of constraint rows (608) would pass 512.
    a = mk_action(*TAP)
    w = LatticeWindow(-200, 4, d=2, p=2)
    meet = fixed_vectors(a, w, window_b_image(w, floor=2))
    assert meet.dim == 2


def test_fixed_vectors_with_more_condition_rows_than_the_cap():
    # Three taps on a dim-400 window give 597 conditions: more rows than
    # the cap, on a space within it.  The reference cuts in two batches.
    a = mk_action(2, 2, [(1, 0, 2, k, 1) for k in range(3)])
    w = LatticeWindow(-100, 100, d=2, p=2)
    rows = np.array(fixed_condition_rows(a, w))
    assert rows.shape == (597, 400)
    m_hat = m_ell_chain(a, 0, w).m_hat
    full = Subspace.full(2, w.dim)
    assert fixed_vectors(a, w) == full.cut(rows[:300]).cut(rows[300:])
    assert fixed_vectors(a, w, m_hat) == m_hat.cut(rows[:300]).cut(rows[300:])


# ---------------------------------------------------------------- witnesses


def test_witness_for_tap_on_nonnegative_window():
    a = mk_action(*TAP)
    chain = m_ell_chain(a, 3, LatticeWindow(0, 3, d=2, p=2))
    cert = extract_witness(a, chain)
    assert format_vector(cert.witness) == "(0 + O(t^3), 1 + O(t^3))"
    assert cert.ok and cert.in_m_hat and cert.outside_t_m_hat
    assert [k for k, _ in cert.checked_generators] == [0, 1, 2]
    assert all(flag for _, flag in cert.checked_generators)


def test_witness_verification_is_independent_recomputation():
    # drop = 0 for the level tap, so every checked generator reads the
    # witness strictly below its certified precision.
    a = mk_action(*TAP)
    chain, cert = find_fixed_point(a, 4, 3)
    assert cert.ok
    for k, _ in cert.checked_generators:
        x = parse_series(f"t^{k}", 2, 8)
        moved = apply_phi(a, x, cert.witness, out_prec=cert.precision)
        assert moved == cert.witness


def test_witness_empty_when_m_hat_degenerates():
    a = mk_action(*TAP)
    w = LatticeWindow(0, 3, d=2, p=2)
    fake = InvariantChain(
        action=a,
        window=w,
        subspaces=(Subspace.zero(2, w.dim),),
        m_hat=Subspace.zero(2, w.dim),
        l_stable=0,
    )
    with pytest.raises(EmptyFixedSpace) as info:
        extract_witness(a, fake)
    assert info.value.suggestion is not None


def test_witness_requested_precision_validated():
    a = mk_action(*TAP)
    chain = m_ell_chain(a, 2, LatticeWindow(0, 2, d=2, p=2))
    with pytest.raises(WindowTooNarrow):
        extract_witness(a, chain, precision=5)


@pytest.mark.parametrize("precision", [0, -3])
def test_witness_precision_below_one_is_a_value_error(precision):
    a = mk_action(*TAP)
    chain = m_ell_chain(a, 3, LatticeWindow(-3, 4, d=2, p=2))
    with pytest.raises(ValueError) as info:
        extract_witness(a, chain, precision)
    assert type(info.value) is ValueError and str(info.value) == "precision must be >= 1"


@pytest.mark.parametrize("window", [None, LatticeWindow(-3, 4, d=2, p=2)])
def test_find_fixed_point_precision_below_one_fails_before_the_chain(monkeypatch, window):
    import equifix.fixpoint

    def no_chain(*args):
        raise AssertionError("the chain ran")

    monkeypatch.setattr(equifix.fixpoint, "m_ell_chain", no_chain)
    with pytest.raises(ValueError) as info:
        find_fixed_point(mk_action(*TAP), 0, 3, window=window)
    assert type(info.value) is ValueError and str(info.value) == "precision must be >= 1"


def test_default_precision_suggestion_widens_until_it_is_at_least_one():
    """On [-4, 1) the default precision hi - drop is 1 - 2 = -1; one widening
    gives [-8, 2) and precision 0, so the suggestion widens again, to
    [-16, 4), where the witness is certified mod t^2."""
    a = mk_action(2, 2, [(1, 0, 2, -2, 1)])
    with pytest.raises(WindowTooNarrow) as info:
        extract_witness(a, m_ell_chain(a, 2, LatticeWindow(-4, 1, d=2, p=2)))
    assert str(info.value) == "precision -1 not representable on window [-4,1)"
    assert info.value.suggestion == "retry with window [-16,4)"
    cert = extract_witness(a, m_ell_chain(a, 2, LatticeWindow(-16, 4, d=2, p=2)))
    assert cert.ok and cert.precision == 2


# ---------------------------------------------------------------- find_fixed


def test_find_fixed_point_all_families():
    expected_witness = {
        "trivial": "(1 + O(t^4))",
        "tap": "(0 + O(t^4), 1 + O(t^4))",
        "dropping-tap": "(0 + O(t^4), 1 + O(t^4))",
        "chain-3": "(0 + O(t^4), 0 + O(t^4), 1 + O(t^4))",
    }
    for name, fam in FAMILIES.items():
        a = mk_action(*fam, label=name)
        chain, cert = find_fixed_point(a, 4, 3)
        assert cert.ok, name
        assert format_vector(cert.witness) == expected_witness[name]
        assert cert.in_m_hat and cert.outside_t_m_hat


def test_find_fixed_point_rejects_explicit_narrow_window():
    a = mk_action(*DROP)
    with pytest.raises(WindowTooNarrow):
        find_fixed_point(a, 4, 3, window=LatticeWindow(0, 5, d=2, p=2))


def test_find_fixed_point_default_window_recovers():
    # The policy window always works for the bundled families, so the
    # widened window is exercised by the property tests below.
    a = mk_action(*DROP)
    chain, cert = find_fixed_point(a, 2, 1)
    assert cert.ok and chain.window.lo <= -2


# ---------------------------------------------------------------- refinement


def test_m_hat_projects_consistently_to_narrower_window():
    a = mk_action(*DROP)
    big = LatticeWindow(-3, 5, d=2, p=2)
    small = LatticeWindow(-2, 3, d=2, p=2)
    m_big = m_ell_chain(a, 1, big).m_hat
    m_small = m_ell_chain(a, 1, small).m_hat
    projected = map_image(monomial_transfer(big, small, 0), m_big)
    assert projected == m_small


# ---------------------------------------------------------------- lemma chain


def test_lemma_chain_dims_per_family():
    expected = {
        "trivial": ([1, 2, 3], [1, 2, 3]),
        "tap": ([2, 4, 6], [1, 2, 3]),
        "dropping-tap": ([2, 4, 6], [1, 2, 3]),
        "chain-3": ([3, 6, 9], [1, 2, 3]),
    }
    for name, fam in FAMILIES.items():
        a = mk_action(*fam, label=name)
        w = default_window(a, 4, 3, n_max=3)
        chain = m_ell_chain(a, 3, w)
        lc = lemma_chain_from_action(a, chain, 3)
        probe = dichotomy_probe(lc.rep, lc.nested)
        dims = [row.total_dim for row in probe.rows]
        fixed = [row.fixed_dim for row in probe.rows]
        assert (dims, fixed) == expected[name], name
        assert probe.ok, name


def test_lemma_chain_requires_room():
    a = mk_action(*TAP)
    w = LatticeWindow(-3, 3, d=2, p=2)
    chain = m_ell_chain(a, 3, w)
    with pytest.raises(WindowTooNarrow):
        lemma_chain_from_action(a, chain, 3)  # ceiling 3 leaves no quotient room


def test_lemma_nested_chain_is_strict_and_invariant():
    a = mk_action(*CHAIN3)
    w = default_window(a, 4, 3, n_max=3)
    lc = lemma_chain_from_action(a, m_ell_chain(a, 3, w), 3)
    prev = None
    for v in lc.nested:
        if prev is not None:
            assert v.contains(prev) and v.dim > prev.dim
        for g in lc.rep.generators:
            assert v.contains(map_image(g, v))
        prev = v


# ---------------------------------------------------------------- incremental chain


def _assert_members_are_max_invariant(a, l_max, w):
    """Each chain member equals max_invariant_subspace of its depth's
    generators, in either order."""
    chain = m_ell_chain(a, l_max, w)
    b = window_b_image(w)
    for ell, sub in enumerate(chain.subspaces):
        gens = [m for _, m in generator_matrices(a, ell, w)]
        assert sub == max_invariant_subspace(gens, w, b), ell
        assert sub == max_invariant_subspace(gens[::-1], w, b), ell


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_chain_members_match_max_invariant_on_bundled_families(name):
    a = mk_action(*FAMILIES[name], label=name)
    for precision, l_max in ((4, 3), (8, 6)):
        _assert_members_are_max_invariant(a, l_max, default_window(a, precision, l_max))


def test_chain_members_match_max_invariant_on_random_actions():
    rng = random.Random(474)
    for trial in range(15):
        p = [2, 3, 5][trial % 3]
        a = random_valid_action(rng, p, rng.randint(2, 3))
        l_max = rng.randint(1, 4)
        w = default_window(a, rng.randint(2, 5), l_max)
        _assert_members_are_max_invariant(a, l_max, w)


def test_tap_chain_on_a_window_whose_lattice_image_has_codim_beyond_half_the_cap():
    # dim 260, codim 258: stacking 2 x codim constraint rows would pass 512.
    a = mk_action(*TAP)
    w = LatticeWindow(-129, 1, d=2, p=2)
    assert window_b_image(w).dim == 2
    assert m_ell_chain(a, 0, w).dims() == [2]


def test_chain_eliminations_stay_within_budget(monkeypatch):
    """One spin-up per chain: each generator is checked and applied once,
    so the chain needs far fewer eliminations than a closure restarted
    at every depth (1102 rref calls here)."""
    import equifix.fixpoint
    import equifix.linalg

    real = equifix.linalg.rref
    calls = []

    def counting_rref(m):
        calls.append(m.shape)
        return real(m)

    monkeypatch.setattr(equifix.linalg, "rref", counting_rref)
    monkeypatch.setattr(equifix.fixpoint, "rref", counting_rref)
    a = mk_action(*DROP)
    chain = m_ell_chain(a, 12, default_window(a, 16, 12))
    assert chain.window.dim == 60
    assert len(calls) <= 300


def test_chain_eliminations_stay_within_the_read_off_budget(monkeypatch):
    """Members, the lattice image's constraint rows, the member checks and
    the t-stability check are read off or multiplied, and no generator
    here writes into a column it reads, so no g[C, C] is eliminated.  The
    one elimination is the one row that enters R: g_0 maps the constraint
    row of t^-1 in component 2 onto the unit row of t^0 in component 1.
    It was 13 rref calls with a fold of cuts for the intersection, 42
    with each g[C, C] eliminated and 70 with members eliminated."""
    shapes = _recording_rref(monkeypatch)
    a = mk_action(*DROP)
    chain = m_ell_chain(a, 12, default_window(a, 16, 12))
    assert chain.window.dim == 60
    assert shapes == [(1, 60)]


def test_lemma_chain_and_probe_stay_within_the_read_off_budget(monkeypatch):
    """The shifted copies of m_hat are read off its canonical basis, and
    only the rows whose pivot leaves the sub-window are eliminated: 3 of
    the 4 copies lose some.  Each nested image (3) is one elimination and
    the quotient one more; the probe makes 3 (the stacked g - id, and one
    per layer on the flag-adapted basis): 10 rref calls.  It was 20 with
    every copy eliminated and two cuts per member in the probe, 29 when
    the probe derived two representations per member and 115 with a
    greedy transversal and per-vector coordinates."""
    a = mk_action(*CHAIN3)
    chain = m_ell_chain(a, 3, default_window(a, 4, 3, n_max=3))
    shapes = _recording_rref(monkeypatch)
    lc = lemma_chain_from_action(a, chain, 3)
    probe = dichotomy_probe(lc.rep, lc.nested)
    assert lc.rep.r == 3 and [row.total_dim for row in probe.rows] == [3, 6, 9]
    assert len(shapes) <= 10


def _random_rref_space(rng, p, n):
    """A canonical subspace of F_p^n from random rows, each zero before a
    random column so that pivots spread over the whole window; now and
    then the zero or the full space."""
    kind = rng.random()
    if kind < 0.1:
        return Subspace.zero(p, n)
    if kind < 0.2:
        return Subspace.full(p, n)
    rows = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(rng.randint(1, n))])
    for row in rows:
        row[: rng.randrange(n)] = 0
    return Subspace.from_rows(p, n, rows)


def test_shifted_matches_from_rows_of_the_shifted_rows():
    """_shifted reads t^n * space off the canonical basis of space and
    eliminates only the rows whose pivot leaves dst; from_rows of the
    shifted rows eliminates them all.  The windows drop columns at the
    bottom, at the top, at both ends or nowhere."""
    from equifix.fixpoint import _shift, _shifted

    rng = random.Random(24)
    drops, eliminated, kinds = set(), 0, set()
    for trial in range(1200):
        p = [2, 3, 5, 7][trial % 4]
        d = rng.randint(1, 3)
        src = LatticeWindow(-rng.randint(0, 3), rng.randint(1, 4), d, p)
        dst = LatticeWindow(-rng.randint(0, 3), rng.randint(1, 4), d, p)
        n = rng.randint(-4, 4)
        space = _random_rref_space(rng, p, src.dim)
        shifted = _shift(space.basis.a, src, dst, n)
        got = _shifted(space, src, dst, n)
        expect = Subspace.from_rows(p, dst.dim, shifted)
        assert got == expect
        assert got.pivots.tolist() == expect.pivots.tolist()
        assert got.pivots.dtype == np.int64 and not got.pivots.flags.writeable
        drops.add((src.lo + n < dst.lo, src.hi + n > dst.hi))
        eliminated += not np.array_equal(shifted, expect.basis.a)
        kinds.add("zero" if space.dim == 0 else "full" if space.dim == src.dim else "proper")
    assert drops == {(False, False), (True, False), (False, True), (True, True)}
    assert kinds == {"zero", "full", "proper"} and eliminated > 100


def test_t_m_hat_and_the_lemma_copies_are_the_shifted_rows_eliminated():
    """The two callers of _shifted build what from_rows of the shifted
    rows of m_hat builds, on the bundled families."""
    from equifix.fixpoint import _shift, _shifted

    for name, family in FAMILIES.items():
        a = mk_action(*family)
        for n_max in (1, 3, 6):
            w = default_window(a, n_max + 2, 3, n_max=n_max)
            m_hat = m_ell_chain(a, 3, w).m_hat
            wp = LatticeWindow(w.lo, w.hi - n_max, a.d, a.p)
            for src, dst, n in [(w, w, 1)] + [(w, wp, -k) for k in range(n_max + 1)]:
                expect = Subspace.from_rows(a.p, dst.dim, _shift(m_hat.basis.a, src, dst, n))
                got = _shifted(m_hat, src, dst, n)
                assert got == expect and got.pivots.tolist() == expect.pivots.tolist(), name


def _induced_route_message(q, gens):
    """The message of the per-generator route: QuotientSpace.induced on
    each generator in turn."""
    for k, m in gens:
        try:
            q.induced(m)
        except InvalidQuotient as exc:
            return f"generator at t^{k} does not preserve the shifted chain: {exc}"
    return None


def _dense_route(q, gens):
    """The route lemma_chain_from_action took before it read generators
    as taps: every g_k a dense window matrix, all side by side, one
    product per basis.  Returns the induced matrices kept, or the message
    of the first generator that fails a check."""
    p, dim = q.p, q.ambient.ambient_dim
    stack = np.hstack([np.zeros((dim, 0), dtype=np.int64), *(m.a.T for _, m in gens)])

    def images(basis):
        return (basis @ stack % p).reshape(len(basis), len(gens), dim).swapaxes(0, 1)

    def moved(space):
        imgs = images(space.basis.a)
        return ((imgs - imgs[:, :, space.pivots] @ space.basis.a) % p).any(axis=(1, 2))

    ambient, modded = moved(q.ambient), moved(q.modded)
    failing = np.flatnonzero(ambient | modded)
    if failing.size:
        i = failing[0]
        return (f"generator at t^{gens[i][0]} does not preserve the shifted chain: map does not "
                f"preserve the {'ambient' if ambient[i] else 'modded'} subspace")
    induced = q.project(images(q.coset_basis.a).reshape(-1, dim)).reshape(len(gens), q.dim, q.dim)
    ident = np.eye(q.dim, dtype=np.int64)
    return [FpMatrix._wrap(p, m.T) for m in induced if (m != ident).any()]


def _quotient_and_generators(a, chain, n_max):
    """The quotient lemma_chain_from_action builds, and the dense window
    matrices of the generators it reads."""
    w = chain.window
    wp = LatticeWindow(w.lo, w.hi - n_max, a.d, a.p)
    q = quotient(_shifted(chain.m_hat, w, wp, -n_max), _shifted(chain.m_hat, w, wp, 0))
    return q, generator_matrices(a, max(0, n_max + a.max_in_exp), wp)


def _taps_of(m):
    """The window taps of the generator m = I + N: the nonzero entries of N."""
    n = (m.a - np.eye(m.rows, dtype=np.int64)) % m.p
    r, c = np.nonzero(n)
    return dict(zip(zip(r.tolist(), c.tolist()), n[r, c].tolist()))


def test_a_generator_breaking_the_shifted_chain_is_named_like_the_induced_route(monkeypatch):
    """The generators are checked one at a time on their taps, and the
    failure names the first failing t^k with the check it failed, the
    ambient's before the modded's, as the per-generator induced route and
    the dense side-by-side route do."""
    import equifix.fixpoint

    a = mk_action(*CHAIN3)
    n_max = 3
    # A floor below the deepest copy's, so that some vector leaves the ambient.
    chain = m_ell_chain(a, 5, default_window(a, 4, 5, n_max=n_max))
    lc = lemma_chain_from_action(a, chain, n_max)
    q, n = lc.space, lc.window.dim
    gens = generator_matrices(a, n_max + a.max_in_exp, lc.window)
    assert len(gens) >= 4 and _induced_route_message(q, gens) is None
    ambient, modded, e = q.ambient, q.modded, np.eye(n, dtype=np.int64)
    # I + x y^T with x in the ambient and outside the modded, y the unit
    # functional at a modded pivot: the ambient is kept, the modded is not.
    keeps_ambient = e + np.outer(q.coset_basis.a[0], e[modded.pivots[0]])
    # I + z y^T with z a unit vector outside the ambient and y as above:
    # both are left, and the ambient's check is the one named.
    outside = next(i for i in range(n) if not ambient.contains_vector(e[i]))
    leaves_ambient = e + np.outer(e[outside], e[modded.pivots[0]])
    assert not modded.spans(modded.basis.a @ leaves_ambient.T % a.p)
    with pytest.raises(InvalidQuotient, match="modded"):
        q.induced(FpMatrix(a.p, keeps_ambient))
    with pytest.raises(InvalidQuotient, match="ambient"):
        q.induced(FpMatrix(a.p, leaves_ambient))
    cases = {
        "modded first": {1: keeps_ambient, 2: leaves_ambient},
        "ambient first": {1: leaves_ambient, 3: keeps_ambient},
        "last only": {len(gens) - 1: keeps_ambient},
    }
    for name, swaps in cases.items():
        patched = [(k, FpMatrix(a.p, swaps[i]) if i in swaps else m) for i, (k, m) in enumerate(gens)]
        expect = _induced_route_message(q, patched)
        k = gens[min(swaps)][0]
        assert expect.startswith(f"generator at t^{k} does not preserve"), name
        assert _dense_route(q, patched) == expect, name
        taps = {a.seed.conjugate(k): _taps_of(m) for k, m in patched}
        monkeypatch.setattr(equifix.fixpoint, "window_taps", lambda n, w: taps[n])
        with pytest.raises(ChainInvariantViolation) as info:
            lemma_chain_from_action(a, chain, n_max)
        assert str(info.value) == expect, name


def _lemma_cases():
    """(action, l_max, n_max, window): the bundled families and random
    actions at p = 2, 3, 5 with reads ahead of their writes, at n_max
    1..6, on the policy window and on one two wider each way."""
    rng = random.Random(33)
    actions = [mk_action(*fam) for fam in FAMILIES.values()]
    actions += [random_valid_action(rng, (2, 3, 5)[i % 3], rng.randint(2, 4), exp_lo=-2, exp_hi=2)
                for i in range(24)]
    for i, a in enumerate(actions):
        for n_max in range(1, 7):
            l_max = (0, 1, 2)[(i + n_max) % 3]
            w = default_window(a, n_max + 2, l_max, n_max=n_max)
            yield a, l_max, n_max, w
            yield a, l_max, n_max, LatticeWindow(w.lo - 2, w.hi + 2, a.d, a.p)


def test_lemma_chain_matches_the_dense_route():
    """The tap route gives the dense route's quotient, induced matrices
    and nested images, and where the dense route names a failing
    generator, raises for the same t^k: ChainInvariantViolation with the
    same message, or LMaxTooSmall when l_max is below the read-ahead."""
    outcomes = set()
    for a, l_max, n_max, w in _lemma_cases():
        try:
            chain = m_ell_chain(a, l_max, w)
        except LMaxTooSmall:
            continue
        q, gens = _quotient_and_generators(a, chain, n_max)
        expect = _dense_route(q, gens)
        if isinstance(expect, str):
            error = LMaxTooSmall if l_max < a.max_in_exp else ChainInvariantViolation
            with pytest.raises(error) as info:
                lemma_chain_from_action(a, chain, n_max)
            assert str(info.value).startswith(expect.split(":")[0] + ":")
            if error is ChainInvariantViolation:
                assert str(info.value) == expect
            outcomes.add(error.__name__)
            continue
        if len(expect) > FiniteRep.MAX_GENERATORS:
            with pytest.raises(LimitExceeded):
                lemma_chain_from_action(a, chain, n_max)
            outcomes.add("LimitExceeded")
            continue
        lc = lemma_chain_from_action(a, chain, n_max)
        assert lc.space.ambient == q.ambient and lc.space.modded == q.modded
        assert list(lc.rep.generators) == expect
        assert [s.basis.a.tolist() for s in lc.nested] == [
            Subspace.from_rows(a.p, q.dim, q.project(_shifted(chain.m_hat, w, lc.window, -n).basis.a))
            .basis.a.tolist() for n in range(1, n_max + 1)
        ]
        outcomes.add("ok")
    assert outcomes == {"ok", "LMaxTooSmall", "LimitExceeded"}


def test_lemma_chain_below_the_read_ahead_is_l_max_too_small():
    """g_k with k >= -max_in_exp read m_hat, which is closed only under
    the g_j with j >= -l_max: below the read-ahead the check fails, and
    that is an l_max to raise."""
    a = mk_action(2, 3, [(2, 1, 3, 0, 1)])
    chain = m_ell_chain(a, 0, default_window(a, 4, 0, n_max=1))
    with pytest.raises(LMaxTooSmall, match="generator at t\\^-2 does not preserve") as info:
        lemma_chain_from_action(a, chain, 1)
    assert "l_max 0 is below the seed's read-ahead 1" in str(info.value)
    assert not isinstance(info.value, ChainInvariantViolation)
    lc = lemma_chain_from_action(a, m_ell_chain(a, 1, default_window(a, 4, 1, n_max=1)), 1)
    assert lc.rep.r >= 1


def test_pipeline_builds_no_dense_generator(monkeypatch):
    """With induced_matrix and generator_matrices raising wherever the
    package binds them, the chain, the fixed point and the lemma chain
    still run, on the bundled families and on a dim-492 sub-window."""
    import equifix.action
    import equifix.fixpoint
    import equifix.taps

    def no_dense(*args):
        raise AssertionError("dense generator matrix built")

    for mod in (equifix.taps, equifix.action, equifix.fixpoint):
        for name in ("induced_matrix", "generator_matrices"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, no_dense)
    for name, fam in FAMILIES.items():
        a = mk_action(*fam)
        find_fixed_point(a, 4, 3)
        lc = lemma_chain_from_action(a, m_ell_chain(a, 3, default_window(a, 4, 3, n_max=3)), 3)
        assert lc.space.dim == {"trivial": 3, "chain-3": 9}.get(name, 6), name
    a = mk_action(*TAP)
    lc = lemma_chain_from_action(a, m_ell_chain(a, 3, LatticeWindow(-150, 100, d=2, p=2)), 4)
    assert lc.window.dim == 492 and lc.space.dim == 8 and lc.rep.r == 4


# ------------------------------------------------- generator checks and guards


def _identity_with_columns(p, n, cols):
    """I with the given columns replaced: {j: column vector}."""
    g = np.eye(n, dtype=np.int64)
    for j, col in cols.items():
        g[:, j] = col
    return FpMatrix(p, g)


def _unit(n, *idx):
    v = np.zeros(n, dtype=np.int64)
    v[list(idx)] = 1
    return v


@pytest.mark.parametrize(
    "cols",
    [
        {3: _unit(8, 5)},  # one column, equal to column 5
        {2: _unit(8, 2, 6), 6: _unit(8, 2, 6)},  # two equal columns
        {1: _unit(8, 1, 4), 4: _unit(8, 1, 4) * 2},  # two dependent columns (p = 3)
    ],
)
def test_singular_generator_with_few_changed_columns_is_rejected(cols):
    w = LatticeWindow(0, 4, d=2, p=3)
    g = _identity_with_columns(3, w.dim, cols)
    with pytest.raises(SingularGenerator):
        max_invariant_subspace([g], w, window_b_image(w))


def test_singular_generator_differing_from_identity_everywhere_is_rejected():
    w = LatticeWindow(0, 3, d=2, p=5)
    rng = random.Random(11)
    g = np.array([[rng.randrange(1, 5) for _ in range(w.dim)] for _ in range(w.dim)])
    g[np.diag_indices(w.dim)] = 0  # no column equals its identity column
    g[:, -1] = (2 * g[:, 0] + 3 * g[:, 1]) % 5
    assert all((g[:, j] != np.eye(w.dim, dtype=np.int64)[:, j]).any() for j in range(w.dim))
    with pytest.raises(SingularGenerator):
        max_invariant_subspace([FpMatrix(5, g)], w, window_b_image(w))


def test_dimension_mismatch_is_raised_before_singular_generator():
    w = LatticeWindow(0, 2, d=2, p=2)
    wrong_shape = FpMatrix(2, np.zeros((w.dim + 1, w.dim + 1), dtype=np.int64))
    wrong_field = FpMatrix(3, np.zeros((w.dim, w.dim), dtype=np.int64))
    for g in (wrong_shape, wrong_field):
        with pytest.raises(DimensionMismatch) as info:
            max_invariant_subspace([g], w, window_b_image(w))
        assert not isinstance(info.value, SingularGenerator)
    # Checks run generator by generator, in the order given.
    singular = FpMatrix(2, np.zeros((w.dim, w.dim), dtype=np.int64))
    with pytest.raises(SingularGenerator):
        max_invariant_subspace([singular, wrong_shape], w, window_b_image(w))


def _recording_rref(monkeypatch):
    """Record the shape of every rref call, as the name is bound in
    linalg, fixpoint and replab."""
    import equifix.fixpoint
    import equifix.linalg
    import equifix.replab

    real = equifix.linalg.rref
    shapes = []

    def recording_rref(m):
        shapes.append(m.shape)
        return real(m)

    monkeypatch.setattr(equifix.linalg, "rref", recording_rref)
    monkeypatch.setattr(equifix.fixpoint, "rref", recording_rref)
    monkeypatch.setattr(equifix.replab, "rref", recording_rref)
    return shapes


# Whether a family's taps write into the columns they read: tap and
# dropping-tap write and read disjoint slots, chain-3's middle slot is both.
CHECK_ELIMINATES = {"tap": False, "dropping-tap": False, "chain-3": True}


@pytest.mark.parametrize("name", ["tap", "dropping-tap", "chain-3"])
def test_tap_generator_check_eliminates_only_its_changed_columns(monkeypatch, name):
    """Each generator's invertibility check is one |C|x|C| elimination,
    C the columns where g differs from I (at most one per tap), when a
    tap writes into a row of C, and none otherwise: then g[C, C] = I.
    Checked on an empty spin-up, where the check is the only
    elimination."""
    from equifix.fixpoint import _SpinUp

    a = mk_action(*FAMILIES[name])
    w = default_window(a, 12, 8)
    gens = generator_matrices(a, 8, w)
    shapes = _recording_rref(monkeypatch)
    eliminated = 0
    for _, m in gens:
        moved = m.a != np.eye(w.dim, dtype=np.int64)
        rows, cols = moved.any(axis=1), moved.any(axis=0)
        changed = int(cols.sum())
        assert changed <= len(a.seed.entries)
        assert (rows & cols).any() == (CHECK_ELIMINATES[name] and changed > 0)
        del shapes[:]
        _SpinUp(w).add_generator(m)
        expected = [(changed, changed)] if CHECK_ELIMINATES[name] and changed else []
        assert shapes == expected
        eliminated += len(shapes)
    assert (eliminated > 0) == CHECK_ELIMINATES[name]
    assert w.dim > 2 * len(a.seed.entries)


def test_pipeline_subspaces_keep_the_pivots_of_their_basis():
    """Every subspace the pipeline builds, from the window's lattice image
    to the spin-up's kernels and the lemma chain's quotient, carries the
    pivots read off its basis."""
    from equifix.oracle import brute_fixed, enumerate_subspaces

    def argmax_pivots(s):
        a = s.basis.a
        return (a != 0).argmax(axis=1).tolist() if a.size else []

    subs = []
    for name, family in FAMILIES.items():
        a = mk_action(*family)
        w = default_window(a, 4, 3, n_max=2)
        chain = m_ell_chain(a, 3, w)
        subs += [window_b_image(w), window_b_image(w, 1), fixed_vectors(a, w, chain.m_hat)]
        subs += [*chain.subspaces, chain.m_hat]
        if name != "trivial":
            lemma = lemma_chain_from_action(a, chain, 2)
            subs += [lemma.space.ambient, lemma.space.modded, *lemma.nested]
    gens = [FpMatrix(2, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])]
    subs += [brute_fixed(2, 3, gens), brute_max_invariant(2, 3, gens)]
    subs += list(enumerate_subspaces(2, 3))
    for s in subs:
        assert s.pivots.dtype == np.int64 and not s.pivots.flags.writeable
        assert s.pivots.tolist() == argmax_pivots(s)
    assert any(s.pivots.size for s in subs) and any(not s.pivots.size for s in subs)


def test_contains_makes_no_elimination(monkeypatch):
    a = mk_action(*DROP)
    chain = m_ell_chain(a, 6, default_window(a, 8, 6))
    shapes = _recording_rref(monkeypatch)
    b_img = window_b_image(chain.window)
    for sub in chain.subspaces:
        assert b_img.contains(sub)
        assert sub.contains(chain.m_hat)
    assert not chain.m_hat.contains(b_img)
    assert shapes == []


def test_chain_builds_each_generator_matrix_once(monkeypatch):
    """Each generator's window taps are built once across all depths."""
    import equifix.fixpoint

    a = mk_action(*DROP)
    w = default_window(a, 16, 12)
    distinct = len(generator_matrices(a, 12, w))
    reference = m_ell_chain(a, 12, w)
    real = equifix.fixpoint.window_taps
    built = []

    def counting_window_taps(n, win):
        built.append(n)
        return real(n, win)

    monkeypatch.setattr(equifix.fixpoint, "window_taps", counting_window_taps)
    chain = m_ell_chain(a, 12, w)
    assert len(built) == distinct == 12 + a.modulus.threshold(w.hi)
    assert chain == reference


def test_too_narrow_window_fails_at_the_same_depth_with_the_same_message():
    """Dropping-tap: g_k writes t^(k-1) from t^k, so on a floor of -3 the
    first generator the window cannot represent is g_{-3}, at depth 3."""
    a = mk_action(*DROP)
    w = LatticeWindow(-3, 8, d=2, p=2)
    m_ell_chain(a, 2, w)  # depths 0..2 build fine
    with pytest.raises(WindowTooNarrow) as expected:
        generator_matrices(a, 3, w)
    for l_max in (3, 5):
        with pytest.raises(WindowTooNarrow) as info:
            m_ell_chain(a, l_max, w)
        assert str(info.value) == str(expected.value)
        assert "writes below the window floor -3" in str(info.value)


# ------------------------------------------- read-offs off the spin-up rows

LMAX_INPUT = (5, 3, [(3, 2, 1, -2, 4)])  # the chain stabilizes at depth 2


def _spin_up_by_depth(a, l_max, w):
    """A chain's spin-up, yielded after each depth."""
    from equifix.fixpoint import _SpinUp

    spin = _SpinUp(w, [w.index(c, e) for c in range(1, w.d + 1) for e in range(w.lo, 0)])
    top = -l_max if a.seed.is_zero else a.modulus.threshold(w.hi)
    for ell in range(l_max + 1):
        for k in range(0, top) if ell == 0 else range(-ell, min(top, 1 - ell)):
            spin.add_taps(window_taps(a.seed.conjugate(k), w))
        yield spin


def _assert_spin_kernel_is_the_eliminated_kernel(a, l_max, w):
    from equifix.linalg import kernel

    for spin in _spin_up_by_depth(a, l_max, w):
        rows = spin.rows[:, ::-1]  # R in window coordinates
        assert np.array_equal(spin.kernel().basis.a, kernel(FpMatrix(w.p, rows)).basis.a)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_spin_up_kernel_is_the_eliminated_kernel_on_bundled_families(name):
    a = mk_action(*FAMILIES[name])
    for precision, l_max in ((4, 3), (8, 6)):
        _assert_spin_kernel_is_the_eliminated_kernel(a, l_max, default_window(a, precision, l_max))


def test_spin_up_kernel_is_the_eliminated_kernel_on_random_actions():
    rng = random.Random(909)
    for trial in range(15):
        p = [2, 3, 5][trial % 3]
        a = random_valid_action(rng, p, rng.randint(2, 3))
        l_max = rng.randint(0, 4)
        w = default_window(a, rng.randint(2, 5), l_max)
        _assert_spin_kernel_is_the_eliminated_kernel(a, l_max, w)


def test_spin_up_rows_added_after_generators_read_off_the_same_kernel():
    # max_invariant_subspace's route: generators first, then arbitrary rows.
    from equifix.fixpoint import _SpinUp
    from equifix.linalg import kernel

    rng = random.Random(17)
    for p in (2, 3, 5):
        a = random_valid_action(rng, p, 2)
        w = default_window(a, 3, 2)
        spin = _SpinUp(w)
        for _, m in generator_matrices(a, 2, w):
            spin.add_generator(m)
        spin.add_rows(np.array([[rng.randrange(p) for _ in range(w.dim)] for _ in range(3)]))
        assert np.array_equal(spin.kernel().basis.a,
                              kernel(FpMatrix(p, spin.rows[:, ::-1])).basis.a)


def _raising_rref(monkeypatch):
    import equifix.fixpoint
    import equifix.linalg

    def no_rref(m):
        raise AssertionError("eliminated")

    monkeypatch.setattr(equifix.linalg, "rref", no_rref)
    monkeypatch.setattr(equifix.fixpoint, "rref", no_rref)


def _old_t_stable(m_hat, w):
    return m_hat.contains(map_image(shift_matrix(w), m_hat))


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_spin_up_kernel_and_t_stability_make_no_elimination(monkeypatch, name):
    from equifix.fixpoint import _t_stable

    a = mk_action(*FAMILIES[name])
    w = default_window(a, 8, 6)
    spin = list(_spin_up_by_depth(a, 6, w))[-1]
    expected = m_ell_chain(a, 6, w).m_hat
    stable = _old_t_stable(expected, w)
    b_img = window_b_image(w)
    _raising_rref(monkeypatch)
    assert spin.kernel() == expected
    assert _t_stable(expected, w) is stable is True
    assert _t_stable(b_img, w) is True
    # A subspace that is not t-stable: the top coefficient of component 1.
    top = np.zeros((1, w.dim), dtype=np.int64)
    top[0, w.index(1, w.hi - 2)] = 1
    assert _t_stable(Subspace(w.p, w.dim, FpMatrix(w.p, top)), w) is False


def test_trivial_chain_at_depth_zero_makes_no_elimination(monkeypatch):
    a = mk_action(*TRIVIAL)
    w = default_window(a, 4, 0)
    _raising_rref(monkeypatch)
    assert m_ell_chain(a, 0, w).m_hat == window_b_image(w)


def test_t_stability_read_off_matches_the_image_containment():
    from equifix.fixpoint import _t_stable

    rng = random.Random(5)
    answers = set()
    for trial in range(60):
        p = [2, 3, 5][trial % 3]
        w = LatticeWindow(-rng.randint(0, 2), rng.randint(1, 4), d=rng.randint(1, 3), p=p)
        k = rng.randint(0, w.dim)
        rows = [[rng.randrange(p) for _ in range(w.dim)] for _ in range(k)]
        sub = Subspace.from_rows(p, w.dim, rows)
        if trial % 2:  # close a random seed under t, so stable cases occur
            for _ in range(w.dim):
                rows = sub.basis.a
                sub = Subspace.from_rows(p, w.dim, np.vstack([rows, rows @ shift_matrix(w).a.T]))
        answers.add(_t_stable(sub, w))
        assert _t_stable(sub, w) == _old_t_stable(sub, w)
    assert answers == {True, False}


@pytest.mark.parametrize("family, precision, l_max",
                         [(name, 8, 6) for name in sorted(FAMILIES)] + [("dropping-tap", 16, 12)])
def test_chain_eliminates_only_inside_its_spin_up(monkeypatch, family, precision, l_max):
    a = mk_action(*FAMILIES[family])
    w = default_window(a, precision, l_max)
    shapes = _recording_rref(monkeypatch)
    for _ in _spin_up_by_depth(a, l_max, w):
        pass
    spin_up = list(shapes)
    shapes.clear()
    m_ell_chain(a, l_max, w)
    assert shapes == spin_up


def test_member_checks_read_off_match_the_subspace_checks():
    """The lattice image and t times it are coordinate subspaces: a member
    lies in the first iff it vanishes on the exponents below 0, and then
    in the second iff it also vanishes at exponent 0.  The intersection
    certificate accepts exactly when the fold of cuts it replaced, ker R_0
    cut by each later R_ell, equals the member."""
    from equifix.fixpoint import _is_intersection
    from equifix.linalg import kernel

    rng = random.Random(19)
    answers = {"image": set(), "shell": set(), "certificate": set()}
    cut_further = 0
    for trial in range(90):
        p = [2, 3, 5][trial % 3]
        w = LatticeWindow(-rng.randint(0, 3), rng.randint(1, 4), d=rng.randint(1, 3), p=p)
        below = [w.index(c, e) for c in range(1, w.d + 1) for e in range(w.lo, 0)]
        shell = [w.index(c, 0) for c in range(1, w.d + 1)]
        rows = np.array([[rng.randrange(p) for _ in range(w.dim)]
                         for _ in range(rng.randint(0, w.dim))], dtype=np.int64).reshape(-1, w.dim)
        if trial % 2:  # inside the lattice image, so the shell check is reached
            rows[:, below] = 0
        if trial % 4 == 1:  # off the shell too
            rows[:, shell] = 0
        sub = Subspace.from_rows(p, w.dim, rows)
        in_image = not sub.basis.a[:, below].any()
        assert in_image == window_b_image(w).contains(sub)
        answers["image"].add(in_image)
        if in_image:
            off_shell = not sub.basis.a[:, shell].any()
            assert off_shell == window_b_image(w, floor=1).contains(sub)
            answers["shell"].add(off_shell)
        # Nested row spaces R_0 ⊆ .. ⊆ R_L, as the spin-up grows them.
        gens = [[rng.randrange(p) for _ in range(w.dim)] for _ in range(rng.randint(1, w.dim))]
        cuts = [Subspace.from_rows(p, w.dim, gens[:k]).basis.a
                for k in sorted(rng.randint(1, len(gens)) for _ in range(rng.randint(1, 3)))]
        fold = kernel(FpMatrix(p, cuts[0]))
        for r in cuts[1:]:
            fold = fold.cut(r)
        deepest = kernel(FpMatrix(p, cuts[-1]))
        for member in (deepest, sub, kernel(FpMatrix(p, cuts[0])),
                       deepest.cut(rows[:1]), Subspace.from_rows(p, w.dim, np.vstack(
                           [deepest.basis.a, rows[:1]]))):
            accepted = _is_intersection(member, cuts)
            assert accepted == (fold == member), trial
            answers["certificate"].add(accepted)
        # Row blocks that do not nest: the certificate is still sound, and
        # rejects ker R_L where the other blocks cut it further.
        loose = [Subspace.from_rows(p, w.dim, rng.sample(gens, rng.randint(1, len(gens)))).basis.a
                 for _ in range(2)]
        fold = kernel(FpMatrix(p, loose[0])).cut(loose[1])
        deepest = kernel(FpMatrix(p, loose[1]))
        for member in (deepest, fold):
            assert not _is_intersection(member, loose) or fold == member, trial
        cut_further += fold != deepest
    assert all(seen == {True, False} for seen in answers.values()), answers
    assert cut_further >= 10


@pytest.mark.parametrize("floor, message", [
    (None, "member escapes the lattice image"),
    (1, "member at depth 0 misses the shell: every element is divisible by t"),
], ids=["image", "shell"])
def test_member_tampered_off_the_lattice_image_or_the_shell_is_caught(monkeypatch, floor, message):
    """The column read-offs catch a depth-0 member that is all of the
    window (nonzero below exponent 0) or t times the lattice image (zero
    at exponent 0)."""
    from equifix.fixpoint import _SpinUp

    a = mk_action(*LMAX_INPUT)
    w = default_window(a, 4, 2)
    member = Subspace.full(w.p, w.dim) if floor is None else window_b_image(w, floor=floor)
    monkeypatch.setattr(_SpinUp, "kernel", lambda self: member)
    with pytest.raises(ChainInvariantViolation, match=f"^{message}$"):
        m_ell_chain(a, 2, w)


@pytest.mark.parametrize("tamper", ["larger", "smaller"])
def test_deepest_member_tampered_disagrees_with_the_intersection(monkeypatch, tamper):
    """The deepest kernel the spin-up returns is replaced by one larger
    than ker R_L (the lattice image, with the nesting check neutralised)
    or smaller (m_hat less a basis row off the shell): the certificate
    R_ell*K^T = 0, dim K = dim ker R_L rejects both."""
    from equifix.fixpoint import _SpinUp

    a = mk_action(*LMAX_INPUT)
    w = default_window(a, 4, 2)
    chain = m_ell_chain(a, 2, w)
    assert len(set(chain.dims())) == 3
    m_hat = chain.m_hat
    if tamper == "larger":
        member = window_b_image(w)
        monkeypatch.setattr(Subspace, "contains", lambda self, other: True)
    else:
        shell = [w.index(c, 0) for c in range(1, w.d + 1)]
        off = [i for i, row in enumerate(m_hat.basis.a) if not row[shell].any()]
        keep = np.delete(np.arange(m_hat.dim), off[0])
        member = Subspace(w.p, w.dim, FpMatrix(w.p, m_hat.basis.a[keep]), m_hat.pivots[keep])
        assert m_hat.contains(member) and member.basis.a[:, shell].any()
    real = _SpinUp.kernel
    calls = []

    def tampered_kernel(self):
        calls.append(self)
        return member if len(calls) == 3 else real(self)

    monkeypatch.setattr(_SpinUp, "kernel", tampered_kernel)
    with pytest.raises(ChainInvariantViolation,
                       match="intersection disagrees with the deepest member"):
        m_ell_chain(a, 2, w)
    assert len(calls) == 3


def test_chain_below_its_stabilizing_depth_is_l_max_too_small():
    a = mk_action(*LMAX_INPUT)
    for l_max in (0, 1):
        with pytest.raises(LMaxTooSmall, match="t \\* m_hat is not contained in m_hat") as info:
            m_ell_chain(a, l_max, default_window(a, 4, l_max))
        assert not isinstance(info.value, ChainInvariantViolation)
    chain = m_ell_chain(a, 2, default_window(a, 4, 2))
    assert chain.dims() == [16, 15, 14] and chain.l_stable == 2


def test_find_fixed_point_does_not_widen_for_l_max_too_small(monkeypatch):
    import equifix.fixpoint

    a = mk_action(*LMAX_INPUT)
    real = equifix.fixpoint.m_ell_chain
    windows = []

    def recording_chain(act, l_max, w):
        windows.append(w)
        return real(act, l_max, w)

    monkeypatch.setattr(equifix.fixpoint, "m_ell_chain", recording_chain)
    with pytest.raises(LMaxTooSmall):
        find_fixed_point(a, 4, 0)
    # The seed reads t^2 and writes t^-2, so the certificate cannot read
    # its taps on the policy window [-2, 6): the one chain runs widened.
    assert windows == [widen_window(default_window(a, 4, 0))]


# A seed that reads t^3 and writes t^-2: the certificate cannot read its
# taps on the policy window [-7, 4) at precision 2 and l_max 5.
WIDENED_INPUT = (2, 4, [(1, 3, 3, -2, 1), (2, 0, 3, -2, 1), (1, -2, 3, -1, 1)])


def test_find_fixed_point_widens_before_a_chain_that_cannot_stabilize():
    """The one change in find_fixed_point's outputs: the policy window's
    chain raised LMaxTooSmall before the certificate, so no retry ran;
    the window is now widened first, and the result is the one the
    widened window gives when passed explicitly."""
    a = mk_action(*WIDENED_INPUT)
    w = default_window(a, 2, 5)
    assert (w.lo, w.hi) == (-7, 4)
    with pytest.raises(LMaxTooSmall):
        m_ell_chain(a, 5, w)
    chain, cert = find_fixed_point(a, 2, 5)
    assert chain.window == widen_window(w) == LatticeWindow(-14, 8, d=4, p=2)
    assert chain.dims() == [30, 29, 28, 27, 27, 27] and cert.ok
    explicit, explicit_cert = find_fixed_point(a, 2, 5, window=chain.window)
    assert (chain.to_dict(), cert.to_dict()) == (explicit.to_dict(), explicit_cert.to_dict())


def _outcome(fn, *args):
    """fn's result, or the EquifixError it raised."""
    try:
        return fn(*args)
    except EquifixError as exc:
        return exc


def _report(outcome):
    """A (chain, certificate) pair as its reports; an error as its type
    and message."""
    if isinstance(outcome, EquifixError):
        return type(outcome), str(outcome)
    return outcome[0].to_dict(), outcome[1].to_dict()


def _certificate_reads(a, precision, w):
    """Whether every g_k of the certificate reads inside the window: the
    tap e of g_k, applied mod t^precision (PhiOperator.apply), reads
    t^(e.in_exp + k) when it writes t^(e.out_exp + k) below t^precision."""
    if a.seed.is_zero:
        return True
    top = a.modulus.threshold(precision)
    return not any(
        max(-a.max_in_exp, w.hi - e.in_exp) < min(top, precision - e.out_exp)
        for e in a.seed.entries
    )


def _reads_fit_per_tap(a, precision, w):
    """The window test as a per-tap formula: tap e of the certificate's g_k,
    k in [-max_in_exp, threshold(precision)), fails for hi - e.in_exp <= k
    < hi - e.out_exp."""
    if a.seed.is_zero:
        return True
    top = a.modulus.threshold(precision)
    return not any(
        max(-a.max_in_exp, w.hi - e.in_exp) < min(top, w.hi - e.out_exp)
        for e in a.seed.entries
    )


def test_certificate_reads_fit_matches_the_per_tap_formula():
    """_certificate_reads_fit, which asks SeedAutomorphism.needs for each
    visible g_k, agrees with the per-tap formula on policy, doubled and
    explicit windows of 1000 seeded actions and of the trivial action."""
    from equifix.fixpoint import _certificate_reads_fit

    rng = random.Random(2323)
    actions = [mk_action(*TRIVIAL), mk_action(2, 3, [])]
    actions += [random_valid_action(rng, (2, 3, 5)[i % 3], rng.randint(2, 4), exp_lo=-3, exp_hi=3)
                for i in range(1000)]
    verdicts = {True: 0, False: 0}
    for a in actions:
        precision, l_max = rng.randint(1, 4), rng.randint(0, 3)
        policy = default_window(a, precision, l_max)
        lo = rng.randint(-8, 0)
        explicit = LatticeWindow(lo, rng.randint(lo + 1, 8), d=a.d, p=a.p)
        for w in (policy, widen_window(policy), explicit):
            fits = _certificate_reads_fit(a, precision, w)
            assert fits == _reads_fit_per_tap(a, precision, w), (a, precision, w)
            verdicts[fits] += 1
    assert min(verdicts.values()) >= 300, verdicts


def _moved_by_apply_phi(a, v, n):
    """(k, g_k(v) mod t^n) for the certificate's k, each g_k evaluated as
    the one-factor phi of the monomial t^k by apply_phi."""
    if a.seed.is_zero:
        return []
    threshold = a.modulus.threshold(n)
    return [
        (k, apply_phi(a, LaurentSeries(a.p, k, (1,), max(k + 1, threshold)), v,
                      out_prec=n))
        for k in range(-a.max_in_exp, threshold)
    ]


def test_checked_generators_match_the_apply_phi_route(monkeypatch):
    """extract_witness applies each visible g_k to the lifted witness
    directly; the monomial + apply_phi route gives the same checks, and the
    same InsufficientPrecision where the lifted witness is too short.  On
    random vectors, which the g_k move, the two routes give the same
    images."""
    import equifix.fixpoint

    lifts = []

    def recording_coords_to_vector(row, w):
        lifts.append(real(row, w))
        return lifts[-1]

    real = equifix.fixpoint.coords_to_vector
    monkeypatch.setattr(equifix.fixpoint, "coords_to_vector", recording_coords_to_vector)
    rng = random.Random(77)
    cases = [(mk_action(*fam), 4, 3) for fam in FAMILIES.values()]
    cases += [(random_valid_action(rng, (2, 3, 5)[i % 3], rng.randint(2, 3), exp_lo=-3,
                                   exp_hi=3), rng.randint(1, 4), rng.randint(0, 3))
              for i in range(150)]
    seen = {"certified": 0, "short": 0, "checks": 0, "moved": 0}
    for a, precision, l_max in cases:
        policy = default_window(a, precision, l_max)
        for w in (policy, widen_window(policy)):
            chain = _outcome(m_ell_chain, a, l_max, w)
            if isinstance(chain, EquifixError):
                continue
            lifts.clear()
            cert = _outcome(extract_witness, a, chain, precision)
            if not lifts:  # no witness was picked
                continue
            (lifted,) = lifts
            witness = lifted.truncate(precision)
            expected = _outcome(_moved_by_apply_phi, a, lifted, precision)
            if isinstance(cert, EquifixError):
                assert isinstance(cert, InsufficientPrecision)
                assert (type(cert), str(cert)) == (type(expected), str(expected))
                seen["short"] += 1
                continue
            assert cert.checked_generators == tuple((k, m == witness) for k, m in expected)
            seen["certified"] += 1
            seen["checks"] += len(expected)
            u = random_vector(rng, a.p, a.d, prec=w.hi, min_val=w.lo)
            moved = [(k, a.seed_auto.apply(u, k, precision))
                     for k in a.modulus.visible(-a.max_in_exp, precision)]
            assert moved == _moved_by_apply_phi(a, u, precision)
            seen["moved"] += sum(m != u.truncate(precision) for _, m in moved)
    assert seen["certified"] >= 100 and seen["short"] >= 5, seen
    assert seen["checks"] >= 500 and seen["moved"] >= 100, seen


def test_window_choice_matches_the_two_attempt_route():
    """Over seeded random actions:

    (a) extract_witness raises InsufficientPrecision on a window's chain
        exactly when some tap its certificate applies reads above the
        window (policy window, and the doubled one where the two-attempt
        route reaches it), and never where the window test passes: the
        test reads each g_k at the window's top, not at the precision, so
        it is conservative;
    (b) find_fixed_point gives what the two-attempt route gave (run the
        policy window, and on WindowTooNarrow or InsufficientPrecision
        run it doubled), except where the window test widened a window
        whose first attempt raised before the certificate or whose
        certificate reads its taps there;
    (c) the result is the one its own window gives when passed."""
    from equifix.fixpoint import _certificate_reads_fit

    rng = random.Random(2024)
    seen = {"fits": 0, "cannot read": 0, "retried": 0, "early": 0, "widened early": 0}
    conservative = {"reads but fails the test": 0, "widened though it reads": 0}

    def attempt(a, precision, l_max, w):
        chain = _outcome(m_ell_chain, a, l_max, w)
        if isinstance(chain, EquifixError):
            return chain
        cert = _outcome(extract_witness, a, chain, precision)
        if not isinstance(cert, EmptyFixedSpace):  # (a): the certificate ran
            reads = _certificate_reads(a, precision, w)
            assert reads == (not isinstance(cert, InsufficientPrecision))
            fits = _certificate_reads_fit(a, precision, w)
            assert reads or not fits
            if reads and not fits:
                conservative["reads but fails the test"] += 1
            else:
                seen["fits" if fits else "cannot read"] += 1
        return cert if isinstance(cert, EquifixError) else (chain, cert)

    for trial in range(1000):
        a = random_valid_action(rng, (2, 3, 5)[trial % 3], rng.randint(2, 4),
                                exp_lo=-3, exp_hi=3)
        precision, l_max = rng.randint(1, 3), rng.randint(0, 3)
        w = default_window(a, precision, l_max)
        expected = first = attempt(a, precision, l_max, w)
        if isinstance(first, (WindowTooNarrow, InsufficientPrecision)):
            seen["retried"] += 1
            expected = attempt(a, precision, l_max, widen_window(w))
        elif isinstance(first, EquifixError):
            seen["early"] += 1
            if not _certificate_reads_fit(a, precision, w):
                seen["widened early"] += 1
                continue
        elif not _certificate_reads_fit(a, precision, w):
            conservative["widened though it reads"] += 1
            continue
        got = _outcome(find_fixed_point, a, precision, l_max)
        assert _report(got) == _report(expected), trial  # (b)
        if not isinstance(got, EquifixError):  # (c)
            again = find_fixed_point(a, precision, l_max, window=got[0].window)
            assert _report(again) == _report(got), trial
    assert min(seen.values()) >= 50, seen
    assert min(conservative.values()) >= 20, conservative


def test_chain_builds_no_dense_matrix(monkeypatch):
    """m_ell_chain feeds window taps to the spin-up: with induced_matrix
    raising, the bundled-family chains and the dim-500 tap chain still
    equal max_invariant_subspace of their dense generators."""
    import equifix.action
    import equifix.taps

    cases = [(mk_action(*fam), l_max, default_window(mk_action(*fam), precision, l_max))
             for fam in FAMILIES.values() for precision, l_max in ((4, 3), (8, 6))]
    cases.append((mk_action(*TAP), 0, LatticeWindow(-150, 100, d=2, p=2)))
    references = []
    for a, l_max, w in cases:
        b = window_b_image(w)
        references.append([
            max_invariant_subspace([m for _, m in generator_matrices(a, ell, w)], w, b)
            for ell in range(l_max + 1)
        ])

    def no_dense(n, w):
        raise AssertionError("dense generator matrix built")

    monkeypatch.setattr(equifix.taps, "induced_matrix", no_dense)
    monkeypatch.setattr(equifix.action, "induced_matrix", no_dense)
    for (a, l_max, w), expected in zip(cases, references):
        assert list(m_ell_chain(a, l_max, w).subspaces) == expected
    assert references[-1][0].dim == 200


@pytest.mark.parametrize("lo, hi", [(3, 4), (1, 5), (-4, -3), (-4, 0)])
def test_window_without_exponent_zero_is_too_narrow(lo, hi):
    for fam in (TRIVIAL, TAP):
        a = mk_action(*fam)
        with pytest.raises(WindowTooNarrow, match="leaves out exponent 0") as info:
            m_ell_chain(a, 1, LatticeWindow(lo, hi, d=a.d, p=a.p))
        assert info.value.suggestion is None



def test_chain_checks_its_window_and_depth_as_the_generator_list_does():
    """m_ell_chain builds no generator list, but keeps its checks."""
    for fam in (TRIVIAL, TAP, DROP):
        a = mk_action(*fam)
        with pytest.raises(DimensionMismatch, match="window and action are incompatible"):
            m_ell_chain(a, 1, LatticeWindow(-1, 2, d=a.d, p=3))
        with pytest.raises(DimensionMismatch, match="window and action are incompatible"):
            m_ell_chain(a, 1, LatticeWindow(-1, 2, d=a.d + 1, p=a.p))
        with pytest.raises(ValueError, match="l_max must be >= 0"):
            m_ell_chain(a, -1, default_window(a, 2, 0))


# ------------------------------------------- depths where R does not grow


class _DenseDeltaSpinUp(_SpinUp):
    """_SpinUp closing each block with the full-width delta = block*N,
    zero rows included, as the closure did before it dropped them."""

    def _close(self, block, gens):
        work = [(block, gens)]
        while work:
            block, gens = work.pop()
            for rows, cols, taps in gens:
                delta = np.zeros(block.shape, dtype=np.int64)
                delta[:, cols] = block[:, rows] @ taps % self.w.p
                new = self._absorb(delta)
                if new.shape[0]:
                    work.append((new, self.gens))


def _per_depth_chain(a, l_max, w):
    """m_ell_chain's members and l_stable the way they were computed
    before members were read off only where R grew: a read-off and its
    checks at every depth, the intersection certified against R after
    every depth, and l_stable by walking back over equal members."""
    if w.lo > 0 or w.hi <= 0:
        raise WindowTooNarrow(
            f"window [{w.lo},{w.hi}) leaves out exponent 0, where every member meets the shell"
        )
    top = a.modulus.visible(-l_max, w.hi).stop
    below = [w.index(c, e) for c in range(1, w.d + 1) for e in range(w.lo, 0)]
    shell = [w.index(c, 0) for c in range(1, w.d + 1)]
    spin = _DenseDeltaSpinUp(w, below)
    subs, cuts = [], []
    for ell in range(l_max + 1):
        for k in range(0, top) if ell == 0 else range(-ell, min(top, 1 - ell)):
            spin.add_taps(window_taps(a.seed.conjugate(k), w))
        sub = spin.kernel()
        if sub.basis.a[:, below].any():
            raise ChainInvariantViolation("member escapes the lattice image")
        if not sub.basis.a[:, shell].any():
            raise ChainInvariantViolation(
                f"member at depth {ell} misses the shell: every element is divisible by t"
            )
        if subs and not subs[-1].contains(sub):
            raise ChainInvariantViolation(f"chain fails to nest at depth {ell}")
        subs.append(sub)
        cuts.append(spin.rows[:, ::-1])
    if not _is_intersection(subs[-1], cuts):
        raise ChainInvariantViolation("intersection disagrees with the deepest member")
    if not _t_stable(subs[-1], w):
        raise LMaxTooSmall(
            f"t * m_hat is not contained in m_hat: the chain has not stabilized by l_max = {l_max}"
        )
    l_stable = l_max
    while l_stable > 0 and subs[l_stable - 1] == subs[l_max]:
        l_stable -= 1
    return subs, l_stable


def _assert_chain_matches_per_depth_route(a, l_max, w):
    """The chain's members, dims and l_stable, or its error, against
    _per_depth_chain's; returns l_stable or the error type."""
    try:
        subs, l_stable = _per_depth_chain(a, l_max, w)
    except (LMaxTooSmall, WindowTooNarrow) as expected:
        with pytest.raises(type(expected)) as info:
            m_ell_chain(a, l_max, w)
        assert type(info.value) is type(expected)
        assert str(info.value) == str(expected)
        assert getattr(info.value, "suggestion", None) == getattr(expected, "suggestion", None)
        return type(expected)
    chain = m_ell_chain(a, l_max, w)
    assert chain.dims() == [s.dim for s in subs]
    for ell, (got, want) in enumerate(zip(chain.subspaces, subs, strict=True)):
        assert np.array_equal(got.basis.a, want.basis.a), ell
        assert np.array_equal(got.pivots, want.pivots), ell
    assert chain.l_stable == l_stable
    return l_stable


def test_chain_matches_the_per_depth_route():
    """Members read off only where R grew, and l_stable as the last such
    depth, agree with a read-off at every depth and the backward walk:
    on the bundled families over the ladder (policy, widened and explicit
    windows), on trivial actions, and on random actions at p = 2, 3, 5
    whose windows are sometimes too narrow and whose l_max is sometimes
    below the stabilizing depth."""
    outcomes = []
    for name, fam in sorted(FAMILIES.items()):
        a = mk_action(*fam, label=name)
        for precision, l_max in ((4, 3), (8, 6), (12, 8)):
            w = default_window(a, precision, l_max)
            for window in (w, widen_window(w), LatticeWindow(-1, 3, a.d, a.p),
                           LatticeWindow(w.lo + 2, w.hi, a.d, a.p)):
                outcomes.append(_assert_chain_matches_per_depth_route(a, l_max, window))
    for p in (2, 3, 5):
        for d in (1, 2, 3):
            a = mk_action(p, d, [])
            for l_max in (0, 4):
                outcomes.append(_assert_chain_matches_per_depth_route(a, l_max, LatticeWindow(-2, 3, d, p)))
    for l_max in range(4):  # stabilizes at depth 2
        a = mk_action(*LMAX_INPUT)
        outcomes.append(_assert_chain_matches_per_depth_route(a, l_max, default_window(a, 4, l_max)))
    rng = random.Random(27)
    for trial in range(240):
        p = [2, 3, 5][trial % 3]
        span = rng.choice([1, 2, 3])
        a = random_valid_action(rng, p, rng.randint(2, 3), exp_lo=-span, exp_hi=span)
        l_max = rng.randint(0, 8)
        w = default_window(a, rng.randint(1, 5), l_max)
        if trial % 2:  # an explicit window around the policy's
            lo = w.lo + rng.randint(-2, 3)
            w = LatticeWindow(lo, max(lo + 1, w.hi + rng.randint(-3, 2)), a.d, a.p)
        outcomes.append(_assert_chain_matches_per_depth_route(a, l_max, w))
    assert {LMaxTooSmall, WindowTooNarrow, 0, 1, 2, 3} <= set(outcomes)


def _random_taps(rng, n, p):
    """Entries {(row, col): coeff} of a nilpotent N, all strictly below or
    all strictly above the diagonal, so that I + N is invertible; now and
    then two taps chain, so that one writes into a column another reads
    (g[C, C] is not the identity)."""
    lower = rng.random() < 0.5
    entries = {}
    for _ in range(rng.randint(1, 4)):
        r, c = sorted(rng.sample(range(n), 2), reverse=lower)
        entries[r, c] = rng.randrange(1, p)
    if n >= 3 and rng.random() < 0.3:
        i, j, k = sorted(rng.sample(range(n), 3), reverse=not lower)
        entries[j, i] = entries[k, j] = rng.randrange(1, p)
    return entries


def _random_spin_up_steps(rng, spins, p, n):
    """Apply the same random add_taps or add_rows to every spin-up in
    spins, and yield the first one's rows from before each step.  The
    rows added are random, in R (combinations of R's rows) or zero, so
    that some steps grow R and some leave it alone."""
    for _ in range(rng.randint(1, 8)):
        old = spins[0].rows
        if rng.random() < 0.5:
            entries = _random_taps(rng, n, p)
            for spin in spins:
                spin.add_taps(entries)
            yield old
            continue
        k = rng.randint(1, 3)
        rows = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(k)], dtype=np.int64)
        kind = rng.random()
        if kind < 0.4:
            mix = np.array([[rng.randrange(p) for _ in old] for _ in range(k)], dtype=np.int64)
            rows = mix.reshape(k, len(old)) @ old[:, ::-1] % p
        elif kind < 0.6:
            rows[:] = 0
        for spin in spins:
            spin.add_rows(rows)
        yield old


def test_spin_up_rows_are_replaced_exactly_when_the_rank_grows():
    """m_ell_chain tells a depth that grew R by identity: after add_taps
    or add_rows, `rows is old` holds iff the rank did not change."""
    rng = random.Random(2)
    seen, chained = set(), 0
    for trial in range(300):
        p = [2, 3, 5][trial % 3]
        w = LatticeWindow(-rng.randint(1, 3), rng.randint(1, 4), d=rng.randint(1, 3), p=p)
        spin = _SpinUp(w, rng.sample(range(w.dim), rng.randint(0, w.dim)))
        for old in _random_spin_up_steps(rng, [spin], p, w.dim):
            same = spin.rows is old
            assert same == (spin.rows.shape[0] == old.shape[0]), trial
            assert same or spin.rows.shape[0] > old.shape[0]
            seen.add(same)
        chained += any(not set(rows.tolist()).isdisjoint(cols.tolist())
                       for rows, cols, _ in spin.gens)
    assert seen == {True, False}
    assert chained >= 20


def test_closure_matches_the_dense_delta_closure():
    """Dropping the zero rows of block*N before widening it gives the
    same R, rows and pivots, after every add_taps and add_rows."""
    rng = random.Random(3)
    grew = 0
    for trial in range(300):
        p = [2, 3, 5][trial % 3]
        w = LatticeWindow(-rng.randint(1, 3), rng.randint(1, 4), d=rng.randint(1, 3), p=p)
        units = rng.sample(range(w.dim), rng.randint(0, w.dim))
        spin, dense = _SpinUp(w, units), _DenseDeltaSpinUp(w, units)
        for old in _random_spin_up_steps(rng, [spin, dense], p, w.dim):
            assert np.array_equal(spin.rows, dense.rows), trial
            assert np.array_equal(spin.pivots, dense.pivots), trial
            grew += spin.rows is not old
    assert grew >= 100


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_chain_reads_members_off_only_where_r_grew(monkeypatch, name):
    """One _SpinUp.kernel call per depth where R grew: each bundled family
    stabilizes at depth 0, so 1 instead of 9 at (12, 8)."""
    a = mk_action(*FAMILIES[name])
    w = default_window(a, 12, 8)
    ranks = [spin.rows.shape[0] for spin in _spin_up_by_depth(a, 8, w)]
    grew = 1 + sum(r != q for q, r in zip(ranks, ranks[1:]))
    real = _SpinUp.kernel
    calls = []

    def counting_kernel(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(_SpinUp, "kernel", counting_kernel)
    chain = m_ell_chain(a, 8, w)
    assert len(calls) == grew == 1
    assert chain.l_stable == 0 and len(set(map(id, chain.subspaces))) == 1

