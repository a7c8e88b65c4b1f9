"""Brute-force oracles: exhaustive vector and subspace enumeration.

The subspace totals frozen below come from the product formula for the
number of k-dimensional subspaces of F_q^n (each factor (q^n - q^i) /
(q^k - q^i)), evaluated by hand:

    F_2^2: 1 + 3 + 1             = 5
    F_2^3: 1 + 7 + 7 + 1         = 16
    F_2^4: 1 + 15 + 35 + 15 + 1  = 67
    F_2^6: 1+63+651+1395+651+63+1 = 2825
    F_3^4: 1 + 40 + 130 + 40 + 1 = 212
"""

import hashlib
import itertools
import random
import tracemalloc

import numpy as np
import pytest

import equifix.linalg
from equifix.errors import BudgetExceeded, DimensionMismatch
from equifix.linalg import FpMatrix, Subspace, map_image
from equifix.oracle import (
    brute_fixed,
    brute_max_invariant,
    count_subspaces,
    enumerate_subspaces,
)
from equifix.replab import fixed_space, random_commuting_rep


# ---------------------------------------------------------------- brute_fixed


def test_brute_fixed_identity_is_everything():
    gens = [FpMatrix.identity(2, 3)]
    assert brute_fixed(2, 3, gens) == Subspace.full(2, 3)


def test_brute_fixed_jordan_blocks():
    j2 = FpMatrix(2, [[1, 1], [0, 1]])
    assert brute_fixed(2, 2, [j2]).basis.a.tolist() == [[1, 0]]
    j3 = FpMatrix(3, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    assert brute_fixed(3, 3, [j3]).basis.a.tolist() == [[1, 0, 0]]


def test_brute_fixed_agrees_with_kernel_computation():
    rng = random.Random(460)
    for _ in range(30):
        p = rng.choice([2, 3])
        dim = rng.randint(1, 5 if p == 3 else 8)
        rep = random_commuting_rep(rng, p, dim, rng.randint(1, 2))
        assert brute_fixed(p, dim, list(rep.generators)) == fixed_space(rep)


def test_brute_fixed_budget_guard():
    # 2^21 vectors, past the 2^20 cap: refused before any table is built.
    with pytest.raises(BudgetExceeded):
        brute_fixed(2, 21, [FpMatrix.identity(2, 21)])


# ---------------------------------------------------------------- counting


@pytest.mark.parametrize(
    "p,dim,total",
    [(2, 1, 2), (2, 2, 5), (2, 3, 16), (2, 4, 67), (2, 6, 2825), (3, 4, 212)],
)
def test_subspace_totals(p, dim, total):
    assert sum(count_subspaces(p, dim, k) for k in range(dim + 1)) == total


def test_count_symmetry_and_edges():
    # Gaussian binomials are symmetric in k <-> dim - k.
    for p in (2, 3, 5):
        for dim in range(5):
            for k in range(dim + 1):
                assert count_subspaces(p, dim, k) == count_subspaces(p, dim, dim - k)
            assert count_subspaces(p, dim, 0) == 1


# ---------------------------------------------------------------- enumeration


def test_enumerate_matches_counts_and_is_duplicate_free():
    for p, dim in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]:
        seen = list(enumerate_subspaces(p, dim))
        assert len(seen) == sum(count_subspaces(p, dim, k) for k in range(dim + 1))
        assert len(set(seen)) == len(seen)
        for s in seen:
            # every emitted basis must already be canonical
            assert s == Subspace.from_rows(p, dim, s.basis.a)


def test_enumerate_budget_guard():
    # F_2^9 has 8,283,458 subspaces, past the 2^22 cap.
    with pytest.raises(BudgetExceeded):
        list(enumerate_subspaces(2, 9))


# ---------------------------------------------------------------- invariants


def test_identity_generators_give_back_ambient():
    ambient = Subspace.from_rows(2, 4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    best = brute_max_invariant(2, 4, [FpMatrix.identity(2, 4)], ambient=ambient)
    assert best == ambient


def test_max_invariant_single_block():
    # g = J2 + J2 acting on F_2^4: the whole space is invariant, so the
    # brute search over all 67 subspaces must land on it.
    a = np.eye(4, dtype=np.int64)
    a[0, 1] = a[2, 3] = 1
    g = FpMatrix(2, a)
    assert brute_max_invariant(2, 4, [g]) == Subspace.full(2, 4)


def test_max_invariant_respects_ambient_constraint():
    # Same generator, but the ambient is the fixed plane span{e1, e3}:
    # it is invariant and therefore optimal inside itself.
    a = np.eye(4, dtype=np.int64)
    a[0, 1] = a[2, 3] = 1
    g = FpMatrix(2, a)
    plane = Subspace.from_rows(2, 4, [[1, 0, 0, 0], [0, 0, 1, 0]])
    assert brute_max_invariant(2, 4, [g], ambient=plane) == plane


def test_max_invariant_verifies_against_filtered_enumeration():
    rng = random.Random(461)
    for _ in range(10):
        p = 2
        dim = 4
        rep = random_commuting_rep(rng, p, dim, 1)
        g = rep.generators[0]
        ambient = Subspace.from_rows(
            p, dim, [[rng.randrange(p) for _ in range(dim)] for _ in range(3)]
        )
        # independent computation: filter the full enumeration manually
        invariant = [
            s
            for s in enumerate_subspaces(p, dim)
            if ambient.contains(s) and s.contains(map_image(g, s))
        ]
        expected = max(invariant, key=lambda s: s.dim)
        assert brute_max_invariant(p, dim, [g], ambient=ambient) == expected


# ---------------------------------------------------------------- independence


def _refuse_elimination(monkeypatch):
    def refuse(m):
        raise AssertionError("the oracle eliminated")

    monkeypatch.setattr(equifix.linalg, "rref", refuse)


def test_oracles_run_without_elimination(monkeypatch):
    a = np.eye(4, dtype=np.int64)
    a[0, 1] = a[2, 3] = 1
    g = FpMatrix(2, a)
    plane = Subspace.from_rows(2, 4, [[1, 0, 0, 0], [0, 0, 1, 0]])
    full = Subspace.full(2, 4)
    # g moves e2 to e1 + e2 and fixes e3: only span{e3} survives here.
    skew = Subspace.from_rows(2, 4, [[0, 1, 0, 0], [0, 0, 1, 0]])
    h = FpMatrix(3, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    fixed_line = Subspace.from_rows(3, 3, [[1, 0, 0]])
    _refuse_elimination(monkeypatch)
    assert brute_max_invariant(2, 4, [g]) == full
    assert brute_max_invariant(2, 4, [g], ambient=plane) == plane
    assert brute_max_invariant(2, 4, [g], ambient=skew).basis.a.tolist() == [[0, 0, 1, 0]]
    assert brute_fixed(2, 4, [g]) == plane
    assert brute_fixed(3, 3, [h]) == fixed_line
    assert brute_fixed(2, 4, []) == full


@pytest.mark.parametrize(
    "gen",
    [FpMatrix.identity(2, 3), FpMatrix(2, np.eye(4, 3, dtype=np.int64)), FpMatrix.identity(3, 4)],
    ids=["too-small", "not-square", "wrong-field"],
)
def test_oracles_reject_a_generator_off_the_space(gen):
    with pytest.raises(DimensionMismatch):
        brute_max_invariant(2, 4, [FpMatrix.identity(2, 4), gen])
    with pytest.raises(DimensionMismatch):
        brute_fixed(2, 4, [FpMatrix.identity(2, 4), gen])


@pytest.mark.parametrize(
    "ambient",
    [Subspace.full(2, 3), Subspace.full(3, 4)],
    ids=["wrong-dimension", "wrong-field"],
)
def test_max_invariant_rejects_an_ambient_off_the_space(ambient):
    with pytest.raises(DimensionMismatch):
        brute_max_invariant(2, 4, [FpMatrix.identity(2, 4)], ambient=ambient)


@pytest.mark.parametrize("p,k,n", [(2, 3, 6), (2, 4, 5), (3, 2, 5), (5, 2, 3)])
def test_coefficients_times_rref_basis_is_canonical(p, k, n):
    """The oracle's C·B is the canonical basis of its span, for every
    subspace C of F_p^k and an RREF ambient B of dimension k."""
    rng = random.Random(462 + 10 * p + k)
    ambient = Subspace.from_rows(p, n, [])
    while ambient.dim < k:
        ambient = Subspace.from_rows(p, n, [[rng.randrange(p) for _ in range(n)] for _ in range(k)])
    b = ambient.basis.a
    for c in enumerate_subspaces(p, k):
        product = c.basis.a @ b % p
        assert np.array_equal(product, Subspace.from_rows(p, n, product).basis.a)


def test_max_invariant_builds_no_matrix_per_enumerated_subspace(monkeypatch):
    """The walk uses the raw RREF arrays; the only FpMatrix built is the
    answer's, however many subspaces are enumerated (51 of F_2^4 here)."""
    import equifix.oracle

    real = equifix.oracle.FpMatrix
    built = []

    def counting_fp_matrix(p, data):
        built.append(p)
        return real(p, data)

    a = np.eye(4, dtype=np.int64)
    a[0, 1] = 1
    g = FpMatrix(2, a)
    expected = brute_max_invariant(2, 4, [g])
    monkeypatch.setattr(equifix.oracle, "FpMatrix", counting_fp_matrix)
    assert brute_max_invariant(2, 4, [g]) == expected
    assert len(built) == 2  # the identity ambient and the answer


def test_enumerate_subspaces_wraps_the_raw_bases_in_order():
    from equifix.oracle import _rref_bases

    for p, dim in [(2, 0), (2, 3), (3, 2)]:
        subs = [s.basis.a for s in enumerate_subspaces(p, dim)]
        raw = [c for stack in _rref_bases(p, dim) for c in stack]
        assert len(subs) == len(raw)
        assert all(np.array_equal(s, r) for s, r in zip(subs, raw))


# ---------------------------------------------------------------- reference
# The per-vector and per-subspace oracles the span-table versions
# replaced, kept here as the reference they are compared against.


def _reference_all_vectors(p, dim):
    idx = np.arange(p**dim, dtype=np.int64)
    cols = []
    for _ in range(dim):
        cols.append(idx % p)
        idx //= p
    return np.stack(cols, axis=1) if cols else np.zeros((1, 0), dtype=np.int64)


def _reference_leading(rows):
    if not rows.size:
        return np.zeros(len(rows), dtype=np.int64)
    return (rows != 0).argmax(axis=1)


def _reference_in_span(vecs, basis, pivots, p):
    return not ((vecs - vecs[:, pivots] @ basis) % p).any()


def _reference_rref_bases(p, dim):
    yield np.zeros((0, dim), dtype=np.int64)
    for k in range(1, dim + 1):
        for pivots in itertools.combinations(range(dim), k):
            free = [(r, c) for r, pc in enumerate(pivots)
                    for c in range(pc + 1, dim) if c not in pivots]
            base = np.zeros((k, dim), dtype=np.int64)
            base[range(k), pivots] = 1
            for fill in itertools.product(range(p), repeat=len(free)):
                m = base.copy()
                m[[r for r, _ in free], [c for _, c in free]] = fill
                yield m


def _reference_brute_fixed(p, dim, gens):
    vs = _reference_all_vectors(p, dim)
    mask = np.ones(len(vs), dtype=bool)
    for g in gens:
        mask &= ((vs @ g.a.T) % p == vs).all(axis=1)
    picked = vs[mask]
    picked = picked[picked.any(axis=1)]
    pivots = np.unique(_reference_leading(picked))
    rows = [picked[(picked[:, pivots] == e).all(axis=1)][0]
            for e in np.eye(len(pivots), dtype=np.int64)]
    return Subspace(p, dim, FpMatrix(p, np.array(rows, dtype=np.int64).reshape(len(pivots), dim)))


def _reference_brute_max_invariant(p, dim, gens, ambient):
    span = ambient.basis.a
    act = np.hstack([g.a.T for g in gens]) if gens else np.zeros((dim, 0), dtype=np.int64)
    invariant = []
    for c in _reference_rref_bases(p, ambient.dim):
        b = c @ span % p
        imgs = (b @ act).reshape(len(b) * len(gens), dim)
        if _reference_in_span(imgs, b, _reference_leading(b), p):
            invariant.append(b)
    return Subspace(p, dim, FpMatrix(p, max(invariant, key=len)))


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a, dtype=np.int64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


ORDER_CASES = [(2, d) for d in range(7)] + [(3, d) for d in range(5)] + [(5, d) for d in range(4)]


@pytest.mark.parametrize("p,dim", ORDER_CASES)
def test_enumeration_order_is_pinned(p, dim):
    from equifix.oracle import _rref_bases

    expected = _digest(_reference_rref_bases(p, dim))
    stacks = list(_rref_bases(p, dim))
    assert all(len({tuple(_reference_leading(c)) for c in s}) == 1 for s in stacks)
    assert _digest(c for s in stacks for c in s) == expected
    assert _digest(s.basis.a for s in enumerate_subspaces(p, dim)) == expected


def _fixed_free(p, dim):
    """A generator fixing only the zero vector: the companion matrix of
    x^dim - 2 (F_p^dim has no nonzero fixed vector while 2 != 1)."""
    a = np.zeros((dim, dim), dtype=np.int64)
    a[1:, :-1] = np.eye(dim - 1, dtype=np.int64)
    a[0, -1] = 2
    return FpMatrix(p, a)


def _differential_cases():
    rng = random.Random(463)
    cases = []
    # p = 97, the largest prime allowed, needs sums wider than a byte.
    for p, dims in [(2, (1, 3, 5, 7)), (3, (1, 2, 4)), (5, (1, 2, 3)), (97, (1, 2))]:
        for dim in dims:
            for r in (1, 2, 3):
                cases.append((p, dim, list(random_commuting_rep(rng, p, dim, r).generators)))
        cases.append((p, 0, [FpMatrix(p, np.zeros((0, 0), dtype=np.int64))]))
        cases.append((p, dims[-1], []))
        cases.append((p, 3, [_fixed_free(p, 3)]))
    return rng, cases


def test_brute_fixed_matches_the_per_vector_reference():
    _, cases = _differential_cases()
    for p, dim, gens in cases:
        expected = _reference_brute_fixed(p, dim, gens)
        assert np.array_equal(brute_fixed(p, dim, gens).basis.a, expected.basis.a)
    for p in (2, 3, 5, 97):
        assert brute_fixed(p, 3, [_fixed_free(p, 3)]).dim == 0


def test_max_invariant_matches_the_per_subspace_reference():
    rng, cases = _differential_cases()
    for p, dim, gens in cases:
        top = {2: 5, 3: 3, 5: 2, 97: 2}[p]
        ambients = [Subspace.full(p, dim) if dim <= top else None, Subspace.from_rows(p, dim, [])]
        for k in range(1, min(dim, top) + 1):
            ambients.append(Subspace.from_rows(
                p, dim, [[rng.randrange(p) for _ in range(dim)] for _ in range(k)]))
        for ambient in filter(None, ambients):
            got = brute_max_invariant(p, dim, gens, ambient=ambient)
            expected = _reference_brute_max_invariant(p, dim, gens, ambient)
            assert np.array_equal(got.basis.a, expected.basis.a)


def test_max_invariant_at_the_largest_prime():
    # In the plane span{e1, e2} of F_97^3, g keeps the line through
    # (1, 96, 0) (eigenvalue 5) and moves every other line out of the
    # plane; reading the line's image back takes 5 * 96 = 480 > 255.
    g = FpMatrix(97, [[5, 0, 0], [93, 1, 0], [1, 1, 1]])
    plane = Subspace.from_rows(97, 3, [[1, 0, 0], [0, 1, 0]])
    assert brute_max_invariant(97, 3, [g], ambient=plane).basis.a.tolist() == [[1, 96, 0]]


def test_brute_fixed_memory_at_two_to_the_eighteen():
    a = np.eye(18, dtype=np.int64)
    a[range(17), range(1, 18)] = 1
    g = FpMatrix(2, a)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fixed = brute_fixed(2, 18, [g])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fixed.basis.a.tolist() == [[1] + [0] * 17]
    assert peak < 32 * 2**20


@pytest.mark.parametrize("k", [0, 1, 5, 12])
def test_span_table_over_f2_matches_the_digit_sums(k):
    """Row i of the table is the sum of the rows picked by the binary
    digits of i, least significant first, reduced mod 2."""
    from equifix.oracle import _span_table

    rows = np.random.default_rng(k).integers(-5, 6, (k, 9))
    digits = (np.arange(2**k)[:, None] >> np.arange(k)) & 1
    table = _span_table(2, rows)
    assert table.dtype == np.uint8
    assert np.array_equal(table, digits @ (rows % 2) % 2)


@pytest.mark.parametrize("p,k", [(3, 0), (3, 7), (5, 5), (97, 2)])
def test_span_table_over_odd_p_matches_the_digit_sums(p, k):
    """Row i of the table is the sum of the rows picked by the base-p
    digits of i, least significant first, reduced mod p by a conditional
    subtraction.  Column 0 holds p - 1 in every row, so sums reach
    2(p - 1), 192 at p = 97, where block - p wraps in a byte."""
    from equifix.oracle import _span_table

    rows = np.random.default_rng(k).integers(-200, 200, (k, 9))
    rows[:, 0] = p - 1
    digits = (np.arange(p**k)[:, None] // p ** np.arange(k)) % p
    table = _span_table(p, rows)
    assert table.dtype == np.uint8
    assert np.array_equal(table, digits @ (rows % p) % p)
