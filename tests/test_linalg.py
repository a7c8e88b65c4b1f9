"""Exact linear algebra over F_p: rref, kernels, subspaces, quotients.

Derived expectations in this file were computed by brute enumeration
(every vector of the ambient space is checked) before being frozen in,
so each test is backed by an independent oracle, not by the code under
test.
"""

import random

import numpy as np
import pytest

from equifix.errors import DimensionMismatch, InvalidQuotient, LimitExceeded
from equifix.linalg import (
    MAX_DIM,
    FpMatrix,
    Subspace,
    check_prime,
    inverse,
    kernel,
    map_image,
    map_preimage,
    quotient,
    _mul,
    rref,
)
from equifix.replab import fixed_space, random_commuting_rep, restrict_rep


def all_vectors(p, dim):
    """Every vector of F_p^dim, as a list of int64 arrays."""
    out = []
    for idx in range(p**dim):
        v = []
        n = idx
        for _ in range(dim):
            v.append(n % p)
            n //= p
        out.append(np.array(v, dtype=np.int64))
    return out


def span_by_enumeration(p, dim, rows):
    """Oracle: the set of vectors obtainable as F_p-combinations of rows."""
    vecs = {tuple(np.zeros(dim, dtype=np.int64))}
    for coeffs in all_vectors(p, len(rows)):
        acc = np.zeros(dim, dtype=np.int64)
        for c, r in zip(coeffs, rows):
            acc = (acc + c * np.asarray(r, dtype=np.int64)) % p
        vecs.add(tuple(int(x) for x in acc))
    return vecs


def subspace_vector_set(s):
    return span_by_enumeration(s.p, s.ambient_dim, list(s.basis.a))


# ---------------------------------------------------------------- primes


def test_check_prime_accepts_small_primes():
    for p in (2, 3, 5, 7, 97):
        assert check_prime(p) == p


def test_check_prime_rejects_composites_and_out_of_range():
    for bad in (0, 1, 4, 6, 9, 91, 101):
        with pytest.raises(ValueError):
            check_prime(bad)


# ---------------------------------------------------------------- rref


def test_rref_nilpotent_2x2():
    # Enumerating the 4 row-space vectors of [[0,1],[0,0]] over F_2 gives
    # {(0,0),(0,1)}: rank 1, single pivot in column 1.
    red = rref(FpMatrix(2, [[0, 1], [0, 0]]))
    assert red.rank == 1
    assert red.pivots == (1,)
    assert red.matrix.a.tolist() == [[0, 1], [0, 0]]


def test_rref_idempotent_and_row_space_preserved():
    rng = random.Random(401)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = FpMatrix(p, [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])
        red = rref(m)
        again = rref(red.matrix)
        assert red.matrix == again.matrix and red.rank == again.rank
        assert span_by_enumeration(p, cols, list(m.a)) == span_by_enumeration(
            p, cols, list(red.matrix.a)
        )


def test_rank_nullity_on_random_matrices():
    rng = random.Random(402)
    for _ in range(80):
        p = rng.choice([2, 3, 5])
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = FpMatrix(p, [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])
        assert kernel(m).dim + rref(m).rank == cols


# ---------------------------------------------------------------- kernel


def test_kernel_of_shifted_jordan_block():
    # Oracle: of the 4 vectors of F_2^2, exactly (0,0) and (1,0) are
    # annihilated by [[0,1],[0,0]].
    m = FpMatrix(2, [[0, 1], [0, 0]])
    annihilated = {
        tuple(int(x) for x in v) for v in all_vectors(2, 2) if not (m.a @ v % 2).any()
    }
    assert annihilated == {(0, 0), (1, 0)}
    ker = kernel(m)
    assert subspace_vector_set(ker) == annihilated
    assert ker.basis.a.tolist() == [[1, 0]]


def test_kernel_matches_enumeration_oracle():
    rng = random.Random(403)
    for _ in range(60):
        p = rng.choice([2, 3])
        rows, cols = rng.randint(1, 3), rng.randint(1, 4)
        m = FpMatrix(p, [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])
        expected = {
            tuple(int(x) for x in v)
            for v in all_vectors(p, cols)
            if not (m.a @ v % p).any()
        }
        assert subspace_vector_set(kernel(m)) == expected


# ---------------------------------------------------------------- subspaces


def test_sum_of_coordinate_lines_is_plane():
    u = Subspace.from_rows(2, 2, [[1, 0]])
    v = Subspace.from_rows(2, 2, [[0, 1]])
    assert u.sum(v) == Subspace.full(2, 2)


def test_intersection_of_coordinate_planes():
    # Oracle: of the 8 vectors of F_2^3, those in both spans are exactly
    # the multiples of (0,1,0).
    u = Subspace.from_rows(2, 3, [[1, 0, 0], [0, 1, 0]])
    w = Subspace.from_rows(2, 3, [[0, 1, 0], [0, 0, 1]])
    both = subspace_vector_set(u) & subspace_vector_set(w)
    assert both == {(0, 0, 0), (0, 1, 0)}
    meet = u.intersect(w)
    assert subspace_vector_set(meet) == both
    assert meet.basis.a.tolist() == [[0, 1, 0]]


def test_intersection_matches_enumeration_oracle():
    rng = random.Random(404)
    for _ in range(40):
        p = rng.choice([2, 3])
        dim = rng.randint(1, 4)
        u = Subspace.from_rows(
            p, dim, [[rng.randrange(p) for _ in range(dim)] for _ in range(2)]
        )
        w = Subspace.from_rows(
            p, dim, [[rng.randrange(p) for _ in range(dim)] for _ in range(2)]
        )
        assert subspace_vector_set(u.intersect(w)) == (
            subspace_vector_set(u) & subspace_vector_set(w)
        )


def test_canonical_basis_ignores_generating_set_presentation():
    rng = random.Random(405)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        dim = rng.randint(2, 5)
        rows = [[rng.randrange(p) for _ in range(dim)] for _ in range(3)]
        s = Subspace.from_rows(p, dim, rows)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        rescaled = []
        for row in shuffled:
            unit = rng.randrange(1, p)
            rescaled.append([(c * unit) % p for c in row])
        # also throw in a random sum of two generators
        rescaled.append([(a + b) % p for a, b in zip(rows[0], rows[1])])
        assert Subspace.from_rows(p, dim, rescaled) == s


def test_modular_law_inclusion():
    rng = random.Random(406)
    for _ in range(40):
        p = rng.choice([2, 3])
        dim = rng.randint(2, 4)

        def rand_space():
            return Subspace.from_rows(
                p, dim, [[rng.randrange(p) for _ in range(dim)] for _ in range(2)]
            )

        u, v, w = rand_space(), rand_space(), rand_space()
        lhs = u.intersect(w).sum(v.intersect(w))
        rhs = u.sum(v).intersect(w)
        assert rhs.contains(lhs)


def test_contains_vector_and_coordinates_round_trip():
    rng = random.Random(407)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        dim = rng.randint(1, 5)
        s = Subspace.from_rows(
            p, dim, [[rng.randrange(p) for _ in range(dim)] for _ in range(3)]
        )
        if s.dim == 0:
            continue
        coeffs = [rng.randrange(p) for _ in range(s.dim)]
        v = np.zeros(dim, dtype=np.int64)
        for c, row in zip(coeffs, s.basis.a):
            v = (v + c * row) % p
        assert s.contains_vector(v)
        assert s.coordinates(v).tolist() == coeffs


def test_coordinates_rejects_outside_vector():
    s = Subspace.from_rows(2, 2, [[1, 0]])
    with pytest.raises(DimensionMismatch):
        s.coordinates([0, 1])


def test_zero_dimensional_ambient_spaces():
    assert Subspace.full(2, 0) == Subspace.zero(2, 0)
    assert Subspace.full(2, 0).dim == 0
    assert kernel(FpMatrix(2, np.zeros((0, 0), dtype=np.int64))).dim == 0


# ---------------------------------------------------------------- maps


def test_image_of_line_under_nilpotent_map():
    # Oracle: the map sends (0,0) -> (0,0) and (1,0) -> (0,0); the whole
    # line collapses.
    m = FpMatrix(2, [[0, 1], [0, 0]])
    line = Subspace.from_rows(2, 2, [[1, 0]])
    assert map_image(m, line) == Subspace.zero(2, 2)
    # ... while the other coordinate line maps onto the first.
    other = Subspace.from_rows(2, 2, [[0, 1]])
    assert map_image(m, other) == line


def test_image_and_preimage_against_enumeration():
    rng = random.Random(408)
    for _ in range(40):
        p = rng.choice([2, 3])
        dim = rng.randint(1, 4)
        m = FpMatrix(p, [[rng.randrange(p) for _ in range(dim)] for _ in range(dim)])
        s = Subspace.from_rows(
            p, dim, [[rng.randrange(p) for _ in range(dim)] for _ in range(2)]
        )
        imset = {
            tuple(int(x) for x in (m.a @ np.array(v) % p))
            for v in subspace_vector_set(s)
        }
        # the image of a subspace is spanned by images of basis vectors
        assert subspace_vector_set(map_image(m, s)) == span_by_enumeration(
            p, dim, [np.array(v) for v in imset]
        )
        pre = map_preimage(m, s)
        expected_pre = {
            tuple(int(x) for x in v)
            for v in all_vectors(p, dim)
            if tuple(int(x) for x in (m.a @ v % p)) in subspace_vector_set(s)
        }
        assert subspace_vector_set(pre) == expected_pre


def test_inverse_round_trips():
    rng = random.Random(409)
    found = 0
    while found < 20:
        p = rng.choice([2, 3, 5])
        dim = rng.randint(1, 4)
        m = FpMatrix(p, [[rng.randrange(p) for _ in range(dim)] for _ in range(dim)])
        if rref(m).rank < dim:
            continue
        found += 1
        assert m @ inverse(m) == FpMatrix.identity(p, dim)
        assert inverse(m) @ m == FpMatrix.identity(p, dim)


def test_inverse_rejects_singular():
    with pytest.raises(DimensionMismatch):
        inverse(FpMatrix(2, [[1, 1], [1, 1]]))


def test_inverse_of_a_matrix_past_half_the_cap():
    # The [m | I] eliminated is 300 x 600: wider than the cap, though m is
    # within it.
    rng = np.random.default_rng(11)
    p, n = 5, 300
    lower = np.tril(rng.integers(0, p, (n, n)), -1) + np.eye(n, dtype=np.int64)
    upper = np.triu(rng.integers(0, p, (n, n)), 1) + np.eye(n, dtype=np.int64)
    m = FpMatrix(p, lower @ upper)
    assert m @ inverse(m) == FpMatrix.identity(p, n)


# ---------------------------------------------------------------- quotients


def test_quotient_plane_by_line():
    # Oracle: F_2^2 / span{(1,0)} has the 2 cosets {(0,0),(1,0)} and
    # {(0,1),(1,1)}; one dimension survives with representative (0,1).
    q = quotient(Subspace.full(2, 2), Subspace.from_rows(2, 2, [[1, 0]]))
    assert q.dim == 1
    assert q.project([0, 1]).tolist() == [1]
    assert q.project([1, 0]).tolist() == [0]
    assert q.lift([1]).tolist() == [0, 1]


def test_quotient_by_self_is_zero_dimensional():
    v = Subspace.from_rows(3, 3, [[1, 0, 0], [0, 1, 0]])
    assert quotient(v, v).dim == 0


def test_quotient_project_is_linear_and_kills_modded():
    rng = random.Random(410)
    for _ in range(30):
        p = rng.choice([2, 3])
        dim = rng.randint(2, 4)
        sub = Subspace.from_rows(
            p, dim, [[rng.randrange(p) for _ in range(dim)] for _ in range(1)]
        )
        q = quotient(Subspace.full(p, dim), sub)
        for v in subspace_vector_set(sub):
            assert not q.project(np.array(v)).any()
        a = np.array([rng.randrange(p) for _ in range(dim)], dtype=np.int64)
        b = np.array([rng.randrange(p) for _ in range(dim)], dtype=np.int64)
        assert q.project((a + b) % p).tolist() == (
            (q.project(a) + q.project(b)) % p
        ).tolist()


def test_quotient_induced_rejects_nonpreserving_map():
    q = quotient(Subspace.full(2, 2), Subspace.from_rows(2, 2, [[1, 0]]))
    # this map sends the modded line outside itself
    swap = FpMatrix(2, [[0, 1], [1, 0]])
    with pytest.raises(InvalidQuotient):
        q.induced(swap)


def test_quotient_requires_containment():
    with pytest.raises(InvalidQuotient):
        quotient(
            Subspace.from_rows(2, 2, [[1, 0]]),
            Subspace.from_rows(2, 2, [[0, 1]]),
        )


# ------------------------------------------- read-offs against the old code
#
# Test-local copies of the eliminating versions that kernel, contains and
# intersect replaced; canonical RREF is unique, so the outputs must be
# array-equal, not merely equal as spans.


def two_elimination_kernel(m):
    red = rref(m)
    p, ncols = m.p, m.cols
    pivots = list(red.pivots)
    rows = []
    for f in [c for c in range(ncols) if c not in pivots]:
        v = np.zeros(ncols, dtype=np.int64)
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = (-int(red.matrix.a[i, f])) % p
        rows.append(v)
    return Subspace.from_rows(p, ncols, rows)


def rank_contains(s, o):
    if o.dim == 0:
        return True
    return rref(FpMatrix(s.p, np.vstack([s.basis.a, o.basis.a]))).rank == s.dim


def stacked_intersect(s, o):
    def constraints(u):
        if u.dim == 0:
            return np.eye(u.ambient_dim, dtype=np.int64)
        return two_elimination_kernel(u.basis).basis.a

    c = np.vstack([constraints(s), constraints(o)])
    if c.shape[0] == 0:
        return Subspace.from_rows(s.p, s.ambient_dim, np.eye(s.ambient_dim, dtype=np.int64))
    return two_elimination_kernel(FpMatrix(s.p, c))


READOFF_PRIMES = (2, 3, 5, 97)


def random_rank_matrix(rng, p, rows, cols, rank):
    """rows x cols over F_p, of rank at most `rank` (a product of two factors)."""
    left = [[rng.randrange(p) for _ in range(rank)] for _ in range(rows)]
    right = [[rng.randrange(p) for _ in range(cols)] for _ in range(rank)]
    return FpMatrix(p, np.array(left, dtype=np.int64).reshape(rows, rank)
                    @ np.array(right, dtype=np.int64).reshape(rank, cols))


def readoff_matrices(p, seed):
    rng = random.Random(seed)
    mats = [
        FpMatrix(p, np.zeros((0, 0), dtype=np.int64)),
        FpMatrix(p, np.zeros((0, 5), dtype=np.int64)),
        FpMatrix(p, np.zeros((4, 0), dtype=np.int64)),
        FpMatrix(p, np.zeros((3, 6), dtype=np.int64)),
        FpMatrix.identity(p, 6),
        random_rank_matrix(rng, p, 5, 5, 5),  # full rank unless unlucky
        FpMatrix(p, np.triu(np.ones((7, 7), dtype=np.int64))),  # full rank
    ]
    for _ in range(24):
        rows, cols = rng.randint(0, 9), rng.randint(0, 9)
        mats.append(random_rank_matrix(rng, p, rows, cols, rng.randint(0, max(rows, cols))))
    return mats


def readoff_subspaces(p, n, seed):
    rng = random.Random(seed)
    subs = [Subspace.zero(p, n), Subspace.full(p, n)]
    for _ in range(10):
        rank = rng.randint(0, n)
        subs.append(Subspace.from_rows(p, n, random_rank_matrix(rng, p, rank + 1, n, rank).a))
    # Members of each other, so that contains answers True off the trivial cases.
    for s in list(subs):
        k = rng.randint(0, s.dim)
        subs.append(Subspace.from_rows(p, n, random_rank_matrix(rng, p, k, s.dim, k).a @ s.basis.a))
    return subs


@pytest.mark.parametrize("p", READOFF_PRIMES)
def test_kernel_matches_the_two_elimination_kernel(p):
    for m in readoff_matrices(p, seed=p):
        new, old = kernel(m), two_elimination_kernel(m)
        assert new.ambient_dim == old.ambient_dim == m.cols
        assert new.basis.shape == old.basis.shape
        assert np.array_equal(new.basis.a, old.basis.a), m


@pytest.mark.parametrize("p", READOFF_PRIMES)
@pytest.mark.parametrize("n", [0, 1, 6])
def test_contains_matches_the_rank_test(p, n):
    subs = readoff_subspaces(p, n, seed=100 * p + n)
    answers = set()
    for s in subs:
        for o in subs:
            answers.add(s.contains(o))
            assert s.contains(o) == rank_contains(s, o)
    assert answers == {True, False} or n == 0


@pytest.mark.parametrize("p", READOFF_PRIMES)
@pytest.mark.parametrize("n", [0, 1, 6])
def test_intersect_matches_the_stacked_constraints(p, n):
    subs = readoff_subspaces(p, n, seed=1000 + 100 * p + n)
    for s in subs:
        for o in subs:
            new, old = s.intersect(o), stacked_intersect(s, o)
            assert new.ambient_dim == old.ambient_dim == n
            assert new.basis.shape == old.basis.shape
            assert np.array_equal(new.basis.a, old.basis.a)


def test_kernel_eliminates_once(monkeypatch):
    import equifix.linalg

    real = equifix.linalg.rref
    calls = []

    def counting_rref(mat):
        calls.append(mat.shape)
        return real(mat)

    monkeypatch.setattr(equifix.linalg, "rref", counting_rref)
    for m in readoff_matrices(3, seed=7):
        del calls[:]
        kernel(m)
        assert calls == [m.shape]


@pytest.mark.parametrize("p", READOFF_PRIMES)
@pytest.mark.parametrize("n", [0, 1, 6])
def test_cut_matches_the_stacked_intersect(p, n):
    """s.cut(rows) is s ∩ ker(rows), array-equal to the old stacked
    intersect with the kernel of the rows."""
    rng = random.Random(2000 + 100 * p + n)
    subs = readoff_subspaces(p, n, seed=3000 + 100 * p + n)
    for s in subs:
        for _ in range(4):
            k = rng.randint(0, 2 * n)
            rows = random_rank_matrix(rng, p, k, n, rng.randint(0, max(k, 1)))
            new, old = s.cut(rows.a), stacked_intersect(s, two_elimination_kernel(rows))
            assert new.ambient_dim == old.ambient_dim == n
            assert new.basis.shape == old.basis.shape
            assert np.array_equal(new.basis.a, old.basis.a)


def test_cut_by_more_rows_than_the_cap():
    rng = np.random.default_rng(5)
    p, n = 3, 40
    c = rng.integers(0, p, (10, n))
    rows = rng.integers(0, p, (600, 10)) @ c  # 600 unreduced combinations of c
    assert Subspace.full(p, n).cut(rows) == kernel(FpMatrix(p, c))


def test_cut_rejects_rows_of_another_width():
    s = Subspace.full(3, 4)
    for rows in (np.zeros((2, 5), dtype=np.int64), np.zeros(4, dtype=np.int64)):
        with pytest.raises(DimensionMismatch):
            s.cut(rows)


# Raw int64 input is reduced before any product: 3^39 fits int64, but a
# sum of its products with basis entries would not.
def test_cut_reads_unreduced_rows_mod_p():
    line = Subspace.from_rows(3, 2, [[1, 2]])
    assert line.cut([[3**39, 3**39]]) == line  # the row is 0 mod 3


def test_spans_reads_unreduced_vectors_mod_p():
    line = Subspace.from_rows(3, 2, [[1, 2]])
    assert line.spans(np.array([[2 * 3**39 + 1, 2]]))  # (1, 2) mod 3
    assert not line.spans(np.array([[2 * 3**39 + 1, 1]]))


def test_sum_of_subspaces_whose_bases_stack_past_the_cap():
    eye = np.eye(400, dtype=np.int64)
    u = Subspace.from_rows(2, 400, eye[:300])
    v = Subspace.from_rows(2, 400, eye[100:])
    assert u.sum(v) == Subspace.full(2, 400)
    assert u.sum(u) == u and v.sum(Subspace.zero(2, 400)) == v


def old_row_strings(m):
    """The per-entry strings row_strings built before."""
    return [",".join(str(int(x)) for x in row) for row in m.a]


@pytest.mark.parametrize("p", [2, 3, 97])
def test_row_strings_match_the_per_entry_strings(p):
    rng = np.random.default_rng(p)
    for shape in ((0, 0), (0, 4), (3, 0), (1, 1), (5, 7), (12, 3)):
        m = FpMatrix(p, rng.integers(0, p, shape))
        assert [r.encode() for r in m.row_strings()] == [r.encode() for r in old_row_strings(m)]


# ------------------------------------- quotients against the greedy transversal
#
# A test-local copy of the construction the read-off quotient replaced: a
# greedy scan of the ambient basis for the transversal, then the left
# inverse of [coset rows; modded rows]^T from one elimination of [cols | I]
# for the coordinates.


def greedy_quotient(ambient, modded):
    """(coset basis, P) of the greedy construction: P @ v is the quotient
    coordinates of an ambient member v."""
    p, n = ambient.p, ambient.ambient_dim
    chosen, span = [], modded
    for row in ambient.basis.a:
        if not span.contains_vector(row):
            chosen.append(np.array(row))
            span = span.sum(Subspace.from_rows(p, n, [row]))
    coset = np.array(chosen, dtype=np.int64).reshape(len(chosen), n)
    cols = np.vstack([coset, modded.basis.a]).T
    k = cols.shape[1]
    red = rref(FpMatrix(p, np.hstack([cols, np.eye(n, dtype=np.int64)])))
    assert red.pivots[:k] == tuple(range(k))
    return coset, red.matrix.a[: len(chosen), k:]


QUOTIENT_PRIMES = (2, 3, 5, 7)


def quotient_pairs(p, n, seed):
    subs = readoff_subspaces(p, n, seed)
    return [(s, o) for s in subs for o in subs if s.contains(o)]


def random_members(rng, s, count):
    coeffs = [[rng.randrange(s.p) for _ in range(s.dim)] for _ in range(count)]
    return np.array(coeffs, dtype=np.int64).reshape(count, s.dim) @ s.basis.a % s.p


@pytest.mark.parametrize("p", QUOTIENT_PRIMES)
@pytest.mark.parametrize("n", [0, 1, 6])
def test_quotient_matches_the_greedy_transversal(p, n):
    rng = random.Random(4000 + 100 * p + n)
    pairs = quotient_pairs(p, n, seed=5000 + 100 * p + n)
    assert any(m.dim == 0 for _, m in pairs) and any(a == m for a, m in pairs)
    assert any(a.dim == n for a, _ in pairs)
    for ambient, modded in pairs:
        q = quotient(ambient, modded)
        coset, proj = greedy_quotient(ambient, modded)
        assert q.coset_basis.shape == coset.shape
        assert np.array_equal(q.coset_basis.a, coset)
        members = random_members(rng, ambient, 4)
        for v in members:
            assert np.array_equal(q.project(v), proj @ v % p)
            assert modded.contains_vector((v - q.lift(q.project(v))) % p)
        assert np.array_equal(q.project(members), members @ proj.T % p)


def test_quotient_of_the_zero_space():
    z = Subspace.zero(2, 0)
    q = quotient(z, z)
    assert q.dim == 0 and q.coset_basis.shape == (0, 0)
    assert q.project(np.zeros(0, dtype=np.int64)).shape == (0,)
    assert q.lift([]).shape == (0,)
    assert q.induced(FpMatrix(2, np.zeros((0, 0), dtype=np.int64))).shape == (0, 0)


def test_project_checks_every_row_for_membership():
    ambient = Subspace.from_rows(3, 3, [[1, 0, 0], [0, 1, 0]])
    q = quotient(ambient, Subspace.from_rows(3, 3, [[1, 1, 0]]))
    # coset basis (1,0,0); (0,1,0) = -(1,0,0) + (1,1,0)
    assert q.project([[1, 0, 0], [0, 1, 0]]).tolist() == [[1], [2]]
    for bad in ([0, 0, 1], [[1, 0, 0], [0, 0, 1]]):
        with pytest.raises(DimensionMismatch):
            q.project(bad)
    for wrong in ([1, 0], [[1, 0]], np.zeros((1, 1, 3), dtype=np.int64)):
        with pytest.raises(DimensionMismatch):
            q.project(wrong)


def test_quotient_eliminates_once_and_reads_off_the_rest(monkeypatch):
    """Building a quotient is one rref; project, lift and induced make none.
    A map I + X with X into the modded subspace preserves both subspaces
    and induces the identity."""
    import equifix.linalg

    real = equifix.linalg.rref
    calls = []

    def counting_rref(m):
        calls.append(m.shape)
        return real(m)

    def refusing_rref(m):
        raise AssertionError("rref called")

    rng = random.Random(6000)
    pairs = quotient_pairs(2, 6, seed=7002) + quotient_pairs(5, 6, seed=7005)
    for ambient, modded in pairs:
        p = ambient.p
        monkeypatch.setattr(equifix.linalg, "rref", counting_rref)
        del calls[:]
        q = quotient(ambient, modded)
        assert len(calls) == 1
        x = random_members(rng, modded, 6).T
        m = FpMatrix(p, np.eye(6, dtype=np.int64) + x)
        monkeypatch.setattr(equifix.linalg, "rref", refusing_rref)
        coords = q.project(random_members(rng, ambient, 3))
        for c in coords:
            assert np.array_equal(q.project(q.lift(c)), c)
        assert q.induced(m) == FpMatrix.identity(p, q.dim)


def test_zero_and_full_build_their_bases_directly(monkeypatch):
    import equifix.linalg

    def refusing_rref(m):
        raise AssertionError("rref called")

    expected = {
        n: (Subspace.from_rows(3, n, np.zeros((0, n), dtype=np.int64)),
            Subspace.from_rows(3, n, np.eye(n, dtype=np.int64)))
        for n in (0, 1, 5)
    }
    monkeypatch.setattr(equifix.linalg, "rref", refusing_rref)
    for n, (zero, full) in expected.items():
        assert Subspace.zero(3, n) == zero and Subspace.full(3, n) == full


# ------------------------------------------ validation at the public boundary


def boundary_results(name):
    """The FpMatrix results of one internal operation, on a seeded
    commuting pair g, h over F_5 and an unreduced public matrix m."""
    p = 5
    rep = random_commuting_rep(random.Random(7), p, 6, 2)
    g, h = rep.generators
    m = FpMatrix(p, np.random.default_rng(7).integers(-50, 50, (6, 6)))
    nil = g - FpMatrix.identity(p, 6)
    if name == "@":
        return [g @ m]
    if name == "+":
        return [g + m]
    if name == "-":
        return [g - m]
    if name == "scale":
        return [m.scale(-3)]
    if name == "transpose":
        return [m.transpose()]
    if name == "rref":
        return [rref(m).matrix]
    if name == "kernel":
        return [kernel(nil).basis]
    if name == "Subspace.cut":
        return [Subspace.from_rows(p, 6, m.a[:4]).cut(7 * m.a[4:] - 100).basis]
    if name == "QuotientSpace.induced":
        return [quotient(Subspace.full(p, 6), fixed_space(rep)).induced(h)]
    if name == "restrict_rep":
        return list(restrict_rep(rep, kernel(nil @ nil)).generators)
    assert name == "inverse"
    return [inverse(g)]


@pytest.mark.parametrize(
    "name",
    ["@", "+", "-", "scale", "transpose", "rref", "kernel", "Subspace.cut",
     "QuotientSpace.induced", "restrict_rep", "inverse"],
)
def test_internal_results_are_read_only_reduced_int64(name):
    for r in boundary_results(name):
        assert r.p == 5 and r.a.ndim == 2
        assert r.a.dtype == np.int64
        assert not r.a.flags.writeable
        assert ((r.a >= 0) & (r.a < 5)).all()


def test_public_constructors_keep_their_checks():
    with pytest.raises(ValueError):
        FpMatrix(4, [[1]])
    with pytest.raises(DimensionMismatch):
        FpMatrix(2, np.zeros((2, 2, 2), dtype=np.int64))
    for shape in ((513, 1), (1, 513)):
        with pytest.raises(LimitExceeded):
            FpMatrix(2, np.zeros(shape, dtype=np.int64))
    with pytest.raises(ValueError):
        FpMatrix.identity(6, 2)
    with pytest.raises(ValueError):
        Subspace.zero(9, 2)
    for make in (FpMatrix.identity, Subspace.zero, Subspace.full):
        with pytest.raises(LimitExceeded):
            make(2, 513)


def test_public_constructor_copies_and_reduces():
    for data in (np.array([[7, -1], [5, 12]]), np.array([[2, 4], [0, 2]], dtype=np.int64)):
        m = FpMatrix(5, data)
        assert m.a.tolist() == [[2, 4], [0, 2]] and m.a.dtype == np.int64
        assert not m.a.flags.writeable and not np.shares_memory(m.a, data)
        data[0, 0] = 1
        assert m.a[0, 0] == 2 and data.flags.writeable


# ------------------------------------------- F_2 on packed rows


def int64_rref(m):
    """Test-local copy of the Gauss–Jordan elimination on int64 arrays
    that rref ran for p = 2 before F_2 moved to packed rows, and for odd
    p before reduction mod p was delayed: it swaps rows and reduces the
    whole matrix at every pivot."""
    p = m.p
    a = np.array(m.a, dtype=np.int64)
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % p
        pivots.append(c)
        r += 1
    return a, r, tuple(pivots)


def f2_matrices(seed):
    """Seeded 0/1 matrices: empty and 1x1, then at widths on either side
    of a byte and of a 64-bit word, and far past both, matrices that are
    tall, wide, sparse, rank-deficient (tall) and with repeated rows.  At
    width 1024 only the rank-deficient one is tall: the int64 copy would
    take seconds to eliminate a full-rank 1027 x 1024."""
    rng = np.random.default_rng(seed)
    mats = [np.zeros((0, 0)), np.zeros((0, 9)), np.zeros((5, 0)), np.zeros((1, 1)), np.ones((1, 1))]
    for width in (7, 8, 9, 63, 64, 65, 200, 1024):
        short = min(width // 2 + 1, 40)
        tall = width + 3 if width <= 200 else short
        low = rng.integers(0, 2, (width + 3, 4)) @ rng.integers(0, 2, (4, width))
        wide = rng.integers(0, 2, (short, width))
        mats += [
            rng.integers(0, 2, (tall, width)),
            wide,
            (rng.random((tall, width)) < 0.05).astype(np.int64),
            low % 2,
            np.vstack([wide, wide[rng.permutation(short)], wide[:3]]),
        ]
    return [FpMatrix._wrap(2, a.astype(np.int64) % 2) for a in mats]


def assert_rref_matches_int64(mats):
    """rref of each matrix equals int64_rref's (RREF, rank, pivots) and is
    read-only int64; returns the shapes seen."""
    for m in mats:
        red = rref(m)
        a, rank, pivots = int64_rref(m)
        assert red.matrix.a.dtype == np.int64 and not red.matrix.a.flags.writeable
        assert np.array_equal(red.matrix.a, a), m.shape
        assert (red.rank, red.pivots) == (rank, pivots), m.shape
    return {m.shape for m in mats}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_f2_rref_matches_the_int64_elimination(seed):
    shapes = assert_rref_matches_int64(f2_matrices(seed))
    assert {(1027, 1024), (40, 1024), (83, 1024)} <= shapes


def test_f2_inverse_at_the_cap():
    # [m | I] is 512 x 1024: every packed row spans 128 bytes.
    rng = np.random.default_rng(5)
    n = 512
    lower = np.tril(rng.integers(0, 2, (n, n)), -1) + np.eye(n, dtype=np.int64)
    upper = np.triu(rng.integers(0, 2, (n, n)), 1) + np.eye(n, dtype=np.int64)
    m = FpMatrix(2, lower @ upper)
    assert m @ inverse(m) == FpMatrix.identity(2, n)
    singular = np.array(m.a)
    singular[:, -1] = (singular[:, 0] + singular[:, 1]) % 2
    with pytest.raises(DimensionMismatch):
        inverse(FpMatrix(2, singular))


# ------------------------------------------- odd p, reduced once


def odd_matrices(p, seed):
    """Seeded matrices over F_p: empty, 1x1 and 2x2 (a 2x2 whose pivot
    row sits below a row with none), then at a few widths matrices that
    are tall, wide, rank-deficient (tall) and with repeated rows; sparse
    rows of 2-4 x 200+ columns, as the spin-up absorbs and shifts; and a
    stack of more rows than the cap, as Subspace.cut stacks conditions."""
    rng = np.random.default_rng(seed)
    mats = [np.zeros((0, 0)), np.zeros((0, 9)), np.zeros((5, 0)), np.zeros((1, 1)),
            rng.integers(1, p, (1, 1)), rng.integers(0, p, (2, 2)), np.array([[0, 1], [1, 0]])]
    for width in (3, 12, 40):
        short = width // 2 + 1
        low = rng.integers(0, p, (width + 3, 4)) @ rng.integers(0, p, (4, width))
        wide = rng.integers(0, p, (short, width))
        mats += [
            rng.integers(0, p, (width + 3, width)),
            wide,
            low,
            np.vstack([wide, 2 * wide[rng.permutation(short)], wide[:3]]),
        ]
    for rows, width in ((2, 200), (3, 256), (4, 300)):
        mats.append((rng.random((rows, width)) < 0.02) * rng.integers(1, p, (rows, width)))
    stack = rng.integers(0, p, (MAX_DIM + 30, 12)) @ rng.integers(0, p, (12, 30))
    mats.append(np.vstack([stack, rng.integers(0, p, (5, 30))]))
    return [FpMatrix._wrap(p, a.astype(np.int64) % p) for a in mats]


@pytest.mark.parametrize("p", [3, 5, 7, 97])
def test_odd_rref_matches_the_int64_elimination(p):
    shapes = assert_rref_matches_int64(odd_matrices(p, p))
    assert {(0, 0), (0, 9), (5, 0), (1, 1), (2, 2), (3, 256), (MAX_DIM + 35, 30)} <= shapes


def test_odd_inverse_at_the_cap():
    # [m | I] is 512 x 1024 of rank 512 at p = 97: the largest entry the
    # delayed reduction can reach, (p - 1) + 512 * (p - 1)^2 < 2^23.
    rng = np.random.default_rng(26)
    n, p = MAX_DIM, 97
    lower = np.tril(rng.integers(0, p, (n, n)), -1) + np.eye(n, dtype=np.int64)
    upper = np.triu(rng.integers(0, p, (n, n)), 1) + np.diag(rng.integers(1, p, n))
    m = FpMatrix(p, _mul(lower, upper, p))
    assert FpMatrix(p, _mul(m.a, inverse(m).a, p)) == FpMatrix.identity(p, n)
    singular = np.array(m.a)
    singular[:, -1] = (singular[:, 0] + 3 * singular[:, 1]) % p
    with pytest.raises(DimensionMismatch):
        inverse(FpMatrix(p, singular))


def argmax_pivots(s):
    """The first nonzero column of each basis row, read off the array."""
    a = s.basis.a
    return (a != 0).argmax(axis=1).tolist() if a.size else []


def assert_pivots_kept(s):
    assert s.pivots.dtype == np.int64 and not s.pivots.flags.writeable
    assert s.pivots.tolist() == argmax_pivots(s)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_subspaces_keep_the_pivots_of_their_basis(p):
    subs = readoff_subspaces(p, 7, 41)
    for s in subs:
        assert_pivots_kept(s)
        assert_pivots_kept(kernel(s.basis))
        for o in subs[::3]:
            assert_pivots_kept(s.sum(o))
            assert_pivots_kept(s.intersect(o))
            assert_pivots_kept(s.cut(o.basis.a))
            if s.contains(o):
                assert_pivots_kept(quotient(s, o).ambient)
    m = FpMatrix(p, np.random.default_rng(p).integers(0, p, (7, 7)))
    for s in subs[::4]:
        assert_pivots_kept(map_image(m, s))
        assert_pivots_kept(map_preimage(m, s))
    assert_pivots_kept(Subspace.zero(p, 0))
    assert_pivots_kept(Subspace.full(p, 0))
    assert_pivots_kept(Subspace(p, 4, FpMatrix(p, [[0, 1, 0, 2], [0, 0, 1, 1]])))
    with pytest.raises(ValueError):
        subs[-1].pivots[...] = 0


def test_mul_equals_the_int64_product_at_the_float64_edge():
    """_mul forms the product in float64: every entry 96 at p = 97 and
    contraction 2048 gives partial sums up to 2048 * 96^2, and the result
    must equal int64's.  Those sums are multiples of 2^10, so random
    entries from 90 to 96 at the same contraction, whose sums pass 2^24,
    check the low bits too (float32 loses them).  Stacked operands broadcast as in matmul, and a 0-row
    operand gives a 0-row product."""
    full = np.full((2048, 3), 96, dtype=np.int64)
    assert np.array_equal(_mul(full.T, full, 97), full.T @ full % 97)
    rng = np.random.default_rng(25)
    wide, tall = rng.integers(90, 97, (4, 2048)), rng.integers(90, 97, (2048, 3))
    assert np.array_equal(_mul(wide, tall, 97), wide @ tall % 97)
    stack, m = rng.integers(0, 97, (5, 9, 9)), rng.integers(0, 97, (9, 9))
    for a, b in [(stack, m), (m, stack), (stack, stack)]:
        product = _mul(a, b, 97)
        assert product.dtype == np.int64 and np.array_equal(product, a @ b % 97)
    empty = _mul(np.zeros((0, 9), dtype=np.int64), m, 97)
    assert empty.dtype == np.int64 and empty.shape == (0, 9)
