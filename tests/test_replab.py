"""Finite commuting unipotent representations and the fixed-part bound.

Jordan-block expectations below were derived by enumerating every
vector of the small ambient spaces (4 for F_2^2, 27 for F_3^3, 16 for
F_2^4) and keeping the ones each generator leaves alone, before the
library result was trusted.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from equifix.action import ActionSpec, build_action
from equifix.errors import (
    ChainInvariantViolation,
    DimensionMismatch,
    NonCommuting,
    NotOrderP,
)
from equifix.fixpoint import default_window, lemma_chain_from_action, m_ell_chain
from equifix.linalg import FpMatrix, Subspace, kernel
from equifix.replab import (
    FiniteRep,
    GrowthRow,
    dichotomy_probe,
    fixed_bound_check,
    fixed_space,
    kernel_filtration,
    quotient_rep,
    random_commuting_rep,
    restrict_rep,
)
from equifix.taps import SparsePerturbation, TapEntry


def jordan(p, size):
    """Unipotent Jordan block: ones on the diagonal and superdiagonal."""
    a = np.eye(size, dtype=np.int64) + np.eye(size, k=1, dtype=np.int64)
    return FpMatrix(p, a % p)


def blocks(p, *sizes):
    n = sum(sizes)
    a = np.zeros((n, n), dtype=np.int64)
    at = 0
    for s in sizes:
        a[at : at + s, at : at + s] = jordan(p, s).a
        at += s
    return FpMatrix(p, a)


def brute_fixed_vectors(p, gens):
    """Oracle: all vectors fixed by every generator, found one by one."""
    dim = gens[0].rows if gens else 0
    out = []
    for idx in range(p**dim):
        v, n = [], idx
        for _ in range(dim):
            v.append(n % p)
            n //= p
        v = np.array(v, dtype=np.int64)
        if all((g.a @ v % p == v).all() for g in gens):
            out.append(tuple(int(x) for x in v))
    return set(out)


# ---------------------------------------------------------------- FiniteRep


def test_rep_validates_order():
    not_order_2 = FpMatrix(2, [[1, 1], [1, 0]])
    with pytest.raises(NotOrderP):
        FiniteRep(2, 2, [not_order_2])


def test_rep_validates_commutation():
    g1 = blocks(2, 2, 1)  # raises e2 into e1, leaves e3
    bad = FpMatrix(2, [[1, 0, 0], [1, 1, 0], [0, 0, 1]])  # pushes e1 into e2
    FiniteRep(2, 3, [g1, g1])  # sanity: commuting pair accepted
    with pytest.raises(NonCommuting) as info:
        FiniteRep(2, 3, [g1, bad])
    assert info.value.offsets == (0, 1)


def reference_rep_error(p, gens):
    """The per-generator and per-pair FpMatrix checks the batched ones
    replaced: (error type, message, offsets) of the first failure."""
    ident = FpMatrix.identity(p, gens[0].rows)
    for i, g in enumerate(gens):
        if g**p != ident:
            return NotOrderP, f"generator {i} does not satisfy g^p = id", None
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if gens[i] @ gens[j] != gens[j] @ gens[i]:
                return NonCommuting, f"generators {i} and {j} do not commute", (i, j)
    return None


def test_rep_errors_match_the_per_pair_reference():
    rng = random.Random(457)
    outcomes = set()
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        dim = rng.randint(1, 5)
        gens = list(random_commuting_rep(rng, p, dim, rng.randint(1, 6)).generators)
        for k in range(len(gens)):
            roll = rng.random()
            if roll < 0.1:  # most likely not of order p
                gens[k] = FpMatrix(p, [[rng.randrange(p) for _ in range(dim)] for _ in range(dim)])
            elif roll < 0.3:  # of order p, most likely not commuting with the rest
                gens[k] = random_commuting_rep(rng, p, dim, 1).generators[0]
        expected = reference_rep_error(p, gens)
        outcomes.add(expected and expected[0])
        if expected is None:
            FiniteRep(p, dim, gens)
            continue
        with pytest.raises(expected[0]) as info:
            FiniteRep(p, dim, gens)
        assert str(info.value) == expected[1]
        assert getattr(info.value, "offsets", None) == expected[2]
    assert outcomes == {None, NotOrderP, NonCommuting}


def test_rep_caps_generator_count():
    ident = FpMatrix.identity(2, 2)
    with pytest.raises(DimensionMismatch):
        FiniteRep(2, 2, [ident] * 7)


# ---------------------------------------------------------------- fixed space


def test_trivial_rep_fixes_everything():
    rep = FiniteRep(3, 4, [FpMatrix.identity(3, 4)] * 2)
    assert fixed_space(rep) == Subspace.full(3, 4)


def test_jordan_2_fixed_line():
    g = jordan(2, 2)
    assert brute_fixed_vectors(2, [g]) == {(0, 0), (1, 0)}
    rep = FiniteRep(2, 2, [g])
    f = fixed_space(rep)
    assert f.dim == 1 and f.basis.a.tolist() == [[1, 0]]


def test_two_generator_fixed_space_with_identity():
    rep = FiniteRep(2, 4, [blocks(2, 2, 2), FpMatrix.identity(2, 4)])
    f = fixed_space(rep)
    assert f.dim == 2
    assert brute_fixed_vectors(2, list(rep.generators)) == {
        tuple(int(x) for x in (c1 * f.basis.a[0] + c2 * f.basis.a[1]) % 2)
        for c1 in range(2)
        for c2 in range(2)
    }


def test_fixed_space_matches_oracle_on_random_reps():
    rng = random.Random(450)
    for _ in range(20):
        p = rng.choice([2, 3])
        dim = rng.randint(1, 4 if p == 3 else 6)
        r = rng.randint(1, 2)
        rep = random_commuting_rep(rng, p, dim, r)
        f = fixed_space(rep)
        expected = brute_fixed_vectors(p, list(rep.generators))
        got = set()
        for idx in range(p**f.dim):
            coeffs, n = [], idx
            for _ in range(f.dim):
                coeffs.append(n % p)
                n //= p
            acc = np.zeros(dim, dtype=np.int64)
            for c, row in zip(coeffs, f.basis.a):
                acc = (acc + c * row) % p
            got.add(tuple(int(x) for x in acc))
        assert got == expected


# ---------------------------------------------------------------- filtration


def test_filtration_of_jordan_3():
    rep = kernel_filtration(jordan(3, 3), 3)
    assert rep.dims == (0, 1, 2, 3)
    assert rep.differences == (1, 1, 1)
    assert rep.concave and rep.exhausts and rep.bound_ok
    assert rep.fixed_dim == 1
    assert rep.lower_bound == Fraction(3, 3)


def test_filtration_of_paired_blocks():
    rep = kernel_filtration(blocks(2, 2, 2), 2)
    assert rep.dims == (0, 2, 4)
    assert rep.differences == (2, 2)
    assert rep.concave and rep.exhausts
    assert rep.fixed_dim == 2 and rep.lower_bound == Fraction(4, 2)


def test_filtration_laws_on_random_generators():
    rng = random.Random(451)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        dim = rng.randint(1, 6)
        g = random_commuting_rep(rng, p, dim, 1).generators[0]
        rep = kernel_filtration(g, p)
        assert rep.exhausts  # (g - id)^p = 0 forces d(p) = dim
        assert rep.concave  # increments never grow
        assert rep.fixed_dim * p >= dim  # d(1) >= dim / p


def _kernel_per_power_dims(g, p):
    """The filtration the way it was first computed: N = g - id, then one
    kernel per power N, N^2, .., N^p."""
    nil = power = g - FpMatrix.identity(p, g.rows)
    dims = [0, kernel(nil).dim]
    for _ in range(p - 1):
        power = power @ nil
        dims.append(kernel(power).dim)
    return tuple(dims)


def test_filtration_matches_the_kernel_per_power_route(monkeypatch):
    """The rank chain gives the dims of a kernel per power, on random
    order-p matrices with n from 0 to 40 and on the identity, in exactly p
    rref calls and no kernel per filtration (rref counted as it is bound
    in linalg, fixpoint and replab, kernel as it is bound in linalg and,
    if imported there, replab)."""
    import equifix.linalg
    import equifix.replab
    from test_fixpoint import _recording_rref

    rng = random.Random(25)
    cases = []
    for p in (2, 3, 5, 7):
        cases.append((p, FpMatrix.identity(p, rng.randint(1, 40))))
        cases.append((p, FpMatrix(p, np.zeros((0, 0), dtype=np.int64))))
        cases += [(p, random_commuting_rep(rng, p, n, 1).generators[0]) for n in range(1, 41)]
    expected = [_kernel_per_power_dims(g, p) for p, g in cases]
    shapes = _recording_rref(monkeypatch)
    kernels = []
    real = equifix.linalg.kernel

    def recording_kernel(m):
        kernels.append(m.shape)
        return real(m)

    monkeypatch.setattr(equifix.linalg, "kernel", recording_kernel)
    monkeypatch.setattr(equifix.replab, "kernel", recording_kernel, raising=False)
    for (p, g), dims in zip(cases, expected):
        shapes.clear()
        assert kernel_filtration(g, p).dims == dims
        assert len(shapes) == p
    assert kernels == []
    assert sum(dims[1] < g.rows for (p, g), dims in zip(cases, expected)) > 140  # g != id


@pytest.mark.parametrize("p", [2, 3, 5])
def test_filtration_rejects_a_matrix_not_of_order_p(p):
    """g^p = id is read off the chain's last rank: a Jordan block of size
    p + 1 keeps (g - id)^p != 0, and c * I with c != 1 has g - id
    invertible.  Both raise with the message of the g^p check."""
    bad = [jordan(p, p + 1)] + [FpMatrix.identity(p, 3).scale(c) for c in range(p) if c != 1]
    for g in bad:
        with pytest.raises(NotOrderP, match=r"^matrix does not satisfy g\^p = id$"):
            kernel_filtration(g, p)


# ---------------------------------------------------------------- bound


def test_bound_single_jordan_block():
    check = fixed_bound_check(FiniteRep(2, 2, [jordan(2, 2)]))
    assert check.ok
    assert check.fixed_dim == 1 and check.lower_bound == Fraction(2, 2)


def test_bound_tight_two_generator_example():
    # g1 fixes span{e1, e3}, g2 fixes span{e1, e2}; together only e1
    # survives, exactly matching the 4/2^2 floor.
    g1 = blocks(2, 2, 2)
    g2 = FpMatrix(
        2, [[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    rep = FiniteRep(2, 4, [g1, g2])
    f = fixed_space(rep)
    assert f.dim == 1 and f.basis.a.tolist() == [[1, 0, 0, 0]]
    assert brute_fixed_vectors(2, [g1, g2]) == {(0, 0, 0, 0), (1, 0, 0, 0)}
    check = fixed_bound_check(rep)
    assert check.ok and check.lower_bound == Fraction(1, 1)


def test_bound_on_random_commuting_tuples():
    rng = random.Random(452)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        r = rng.randint(1, 3)
        dim = rng.randint(1, 8)
        rep = random_commuting_rep(rng, p, dim, r)
        assert fixed_bound_check(rep).ok


# ---------------------------------------------------------------- sub/quotient


def test_restrict_jordan_3_to_invariant_plane():
    rep = FiniteRep(3, 3, [jordan(3, 3)])
    sub = restrict_rep(rep, Subspace.from_rows(3, 3, [[1, 0, 0], [0, 1, 0]]))
    assert sub.dim == 2
    assert sub.generators[0].a.tolist() == [[1, 1], [0, 1]]


def test_restrict_rejects_noninvariant_subspace():
    rep = FiniteRep(2, 2, [jordan(2, 2)])
    with pytest.raises(ChainInvariantViolation):
        restrict_rep(rep, Subspace.from_rows(2, 2, [[0, 1]]))


def test_quotient_by_zero_subspace_keeps_matrices():
    rep = FiniteRep(3, 3, [jordan(3, 3)])
    q = quotient_rep(rep, Subspace.zero(3, 3))
    assert q.dim == 3
    assert q.generators[0].a.tolist() == jordan(3, 3).a.tolist()


def test_quotient_jordan_2_by_fixed_line_is_trivial():
    rep = FiniteRep(2, 2, [jordan(2, 2)])
    q = quotient_rep(rep, fixed_space(rep))
    assert q.dim == 1
    assert q.generators[0].a.tolist() == [[1]]


def test_quotient_jordan_3_by_fixed_line_is_jordan_2():
    rep = FiniteRep(3, 3, [jordan(3, 3)])
    q = quotient_rep(rep, fixed_space(rep))
    assert q.dim == 2
    assert q.generators[0].a.tolist() == [[1, 1], [0, 1]]


def looped_restriction(rep, w):
    """The per-row restriction restrict_rep replaced: column i of each
    matrix is the coordinates of g applied to w's basis row i."""
    return [
        np.array([w.coordinates(g.apply(row)) for row in w.basis.a], dtype=np.int64)
        .reshape(w.dim, w.dim).T
        for g in rep.generators
    ]


def test_restrict_matches_the_per_row_loop_without_elimination(monkeypatch):
    """On the kernels of (g - id)^i, which every generator preserves."""
    import equifix.linalg

    rng = random.Random(461)
    cases = []
    for _ in range(12):
        p = rng.choice([2, 3, 5])
        rep = random_commuting_rep(rng, p, rng.randint(1, 7), rng.randint(1, 3))
        nil = rep.generators[0] - FpMatrix.identity(p, rep.dim)
        cases += [(rep, kernel(nil**i)) for i in range(p + 1)]
    expected = [looped_restriction(rep, w) for rep, w in cases]

    def refusing_rref(m):
        raise AssertionError("rref called")

    monkeypatch.setattr(equifix.linalg, "rref", refusing_rref)
    for (rep, w), mats in zip(cases, expected):
        sub = restrict_rep(rep, w)
        assert [g.a.tolist() for g in sub.generators] == [m.tolist() for m in mats]
    assert {w.dim for _, w in cases} >= {0, 1, 2, 3}


# ---------------------------------------------------------------- dichotomy


def test_dichotomy_probe_block_chain():
    # g = J2+J2+J2 on F_2^6 with V_n = first 2n coordinates: each step
    # adds one block, one fixed line, and keeps the bound 2n/2 tight.
    rep = FiniteRep(2, 6, [blocks(2, 2, 2, 2)])
    chain = [
        Subspace.from_rows(2, 6, np.eye(6, dtype=np.int64)[: 2 * n]) for n in (1, 2, 3)
    ]
    report = dichotomy_probe(rep, chain)
    assert report.ok
    assert [(row.total_dim, row.fixed_dim) for row in report.rows] == [
        (2, 1),
        (4, 2),
        (6, 3),
    ]
    assert [row.quotient_fixed_dim for row in report.rows] == [1, 2, 3]
    assert [row.lower_bound for row in report.rows] == [
        Fraction(1),
        Fraction(2),
        Fraction(3),
    ]


def test_dichotomy_probe_rejects_loose_chains():
    rep = FiniteRep(2, 4, [blocks(2, 2, 2)])
    v = Subspace.from_rows(2, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    with pytest.raises(ChainInvariantViolation):
        dichotomy_probe(rep, [v, v])  # not strictly increasing
    w = Subspace.from_rows(2, 4, [[0, 1, 0, 0]])
    with pytest.raises(ChainInvariantViolation):
        dichotomy_probe(rep, [w])  # member not invariant


def test_dichotomy_probe_from_the_zero_member():
    rep = FiniteRep(3, 3, [jordan(3, 3)])
    report = dichotomy_probe(rep, [Subspace.zero(3, 3), Subspace.full(3, 3)])
    assert report.ok
    assert [(r.total_dim, r.fixed_dim, r.quotient_fixed_dim) for r in report.rows] == [
        (0, 0, 0),
        (3, 1, 1),
    ]
    assert [r.lower_bound for r in report.rows] == [Fraction(0), Fraction(1)]


def reference_probe_rows(rep, chain):
    """The per-member probe dichotomy_probe replaced: restrict to V_n,
    take its fixed space, the quotient by it, and that quotient's fixed
    space."""
    rows = []
    for n, v in enumerate(chain, start=1):
        sub = restrict_rep(rep, v)
        fixed = fixed_space(sub)
        qfixed = fixed_space(quotient_rep(sub, fixed)).dim
        bound = Fraction(sub.dim, rep.p**rep.r)
        rows.append(GrowthRow(n, sub.dim, fixed.dim, qfixed, bound, fixed.dim >= bound))
    return tuple(rows)


def assert_probe_matches_reference(rep, chain):
    report = dichotomy_probe(rep, chain)
    assert report.rows == reference_probe_rows(rep, chain)
    assert report.ok == all(row.ok for row in report.rows)


LEMMA_FAMILIES = {
    "tap": (2, 2, [(1, 0, 2, 0, 1)]),
    "dropping-tap": (2, 2, [(1, 0, 2, -1, 1)]),
    "chain-3": (3, 3, [(1, 0, 2, 0, 1), (2, 0, 3, 0, 1)]),
}


def lemma_chain(name, n_max):
    """The lemma chain of a bundled family at depth 0, precision n_max + 2."""
    p, d, taps = LEMMA_FAMILIES[name]
    a = build_action(ActionSpec(p=p, d=d, seed=SparsePerturbation(p, d, [TapEntry(*t) for t in taps])))
    chain = m_ell_chain(a, 0, default_window(a, n_max + 2, 0, n_max=n_max))
    return lemma_chain_from_action(a, chain, n_max)


@pytest.mark.parametrize("n_max", [4, 5, 6])
@pytest.mark.parametrize("name", sorted(LEMMA_FAMILIES))
def test_probe_matches_the_per_member_reference_on_lemma_chains(name, n_max):
    lc = lemma_chain(name, n_max)
    assert len(lc.nested) == n_max
    assert_probe_matches_reference(lc.rep, lc.nested)


def kernel_product_chain(rng, rep):
    """Kernels of growing products of the (g - id): each is invariant,
    since the generators commute, and each contains the one before."""
    ident = FpMatrix.identity(rep.p, rep.dim)
    product = ident
    chain = [] if rng.random() < 0.5 else [Subspace.zero(rep.p, rep.dim)]
    while not chain or chain[-1].dim < rep.dim:
        product = (rng.choice(rep.generators) - ident) @ product
        member = kernel(product)
        if not chain or member.dim > chain[-1].dim:
            chain.append(member)
    return chain


def test_probe_matches_the_per_member_reference_on_random_reps():
    rng = random.Random(14)
    seen = set()
    for trial in range(30):
        p = [2, 3, 5][trial % 3]
        rep = random_commuting_rep(rng, p, rng.randint(1, 9), rng.randint(1, 4))
        chain = kernel_product_chain(rng, rep)
        assert_probe_matches_reference(rep, chain)
        seen.update(row.quotient_fixed_dim for row in reference_probe_rows(rep, chain))
    assert len(seen) >= 3


def closure(rep, rows):
    """The smallest invariant subspace containing the rows."""
    space = Subspace.from_rows(rep.p, rep.dim, rows)
    while True:
        images = [space.basis.a @ g.a.T % rep.p for g in rep.generators]
        grown = Subspace.from_rows(rep.p, rep.dim, np.vstack([space.basis.a, *images]))
        if grown == space:
            return space
        space = grown


def random_invariant_flag(rng, rep):
    """A strictly nested chain of invariant subspaces, each the closure of
    the last and one random vector: sometimes empty, sometimes from {0},
    and stopping at random before the whole space."""
    p, dim = rep.p, rep.dim
    chain = [Subspace.zero(p, dim)] if rng.random() < 0.3 else []
    rows = np.zeros((0, dim), dtype=np.int64)
    while rng.random() < 0.8 and (not chain or chain[-1].dim < dim):
        vec = [rng.randrange(p) for _ in range(dim)]
        member = closure(rep, np.vstack([rows, vec]))
        if not chain or member.dim > chain[-1].dim:
            chain.append(member)
            rows = member.basis.a
    return chain


def test_probe_matches_the_reference_on_random_invariant_flags():
    """The flag-adapted read-off agrees with restricting to each member,
    including the empty chain, a zero first member, a single member and
    no generators at all."""
    rng = random.Random(24)
    seen = set()
    for trial in range(240):
        p = [2, 3, 5, 7][trial % 4]
        rep = random_commuting_rep(rng, p, rng.randint(1, 8), rng.randint(0, 3))
        chain = random_invariant_flag(rng, rep)
        assert_probe_matches_reference(rep, chain)
        seen.add(("members", min(len(chain), 2)))
        seen.add(("r", min(rep.r, 1)))
        if chain and chain[0].dim == 0:
            seen.add("zero first")
        seen.update(("quotient fixed", row.quotient_fixed_dim) for row in dichotomy_probe(rep, chain).rows)
    assert {("members", 0), ("members", 1), ("members", 2), ("r", 0), ("r", 1), "zero first"} <= seen
    assert ("quotient fixed", 2) in seen


def test_probe_on_the_trivial_lemma_chain_has_no_acting_generator():
    a = build_action(ActionSpec(p=2, d=1, seed=SparsePerturbation(2, 1, [])))
    chain = m_ell_chain(a, 0, default_window(a, 5, 0, n_max=3))
    lc = lemma_chain_from_action(a, chain, 3)
    assert lc.rep.r == 0 and [v.dim for v in lc.nested] == [1, 2, 3]
    assert_probe_matches_reference(lc.rep, lc.nested)


def test_probe_rejects_a_random_noninvariant_member_like_the_reference():
    """An invariant flag topped by the span of its last member and one more
    random vector: the probe raises where the reference does, with the
    same message, and agrees with it otherwise."""
    rng = random.Random(25)
    outcomes = set()
    for trial in range(120):
        p = [2, 3, 5][trial % 3]
        rep = random_commuting_rep(rng, p, rng.randint(2, 7), rng.randint(1, 3))
        chain = random_invariant_flag(rng, rep)
        below = chain[-1].basis.a if chain else np.zeros((0, rep.dim), dtype=np.int64)
        top = Subspace.from_rows(p, rep.dim, np.vstack([below, [rng.randrange(p) for _ in range(rep.dim)]]))
        if chain and top.dim == chain[-1].dim:
            continue
        chain.append(top)
        try:
            expect = reference_probe_rows(rep, chain)
        except ChainInvariantViolation as exc:
            with pytest.raises(ChainInvariantViolation) as info:
                dichotomy_probe(rep, chain)
            assert str(info.value) == str(exc) == "subspace is not invariant under a generator"
            outcomes.add("raised")
        else:
            assert dichotomy_probe(rep, chain).rows == expect
            outcomes.add("agreed")
    assert outcomes == {"raised", "agreed"}


def test_probe_rejects_a_noninvariant_second_member_like_the_reference():
    rep = FiniteRep(2, 4, [blocks(2, 2, 2)])
    line = Subspace.from_rows(2, 4, [[1, 0, 0, 0]])
    off = Subspace.from_rows(2, 4, [[1, 0, 0, 0], [0, 0, 0, 1]])  # g moves e4 to e3 + e4
    chain = [line, off, Subspace.full(2, 4)]
    with pytest.raises(ChainInvariantViolation) as expected:
        reference_probe_rows(rep, chain)
    with pytest.raises(ChainInvariantViolation) as info:
        dichotomy_probe(rep, chain)
    assert str(info.value) == str(expected.value) == "subspace is not invariant under a generator"


def test_probe_without_generators_has_no_quotient_fixed_part():
    rep = FiniteRep(3, 4, [])
    chain = [Subspace.zero(3, 4), Subspace.from_rows(3, 4, [[1, 2, 0, 1]]), Subspace.full(3, 4)]
    report = dichotomy_probe(rep, chain)
    assert [(row.total_dim, row.fixed_dim) for row in report.rows] == [(0, 0), (1, 1), (4, 4)]
    assert [row.quotient_fixed_dim for row in report.rows] == [0, 0, 0]
    assert report.rows == reference_probe_rows(rep, chain)


def test_probe_eliminations_stay_within_the_two_layer_budget(monkeypatch):
    """The RREF of the stacked g - id, then one elimination per layer on
    the flag-adapted basis: 3 rref calls on chain-3 at n_max 6 (r = 6,
    six members), whatever r and the number of members.  It was
    r + 3 + 2 * members = 21 with r cuts for V^G, its constraints, the
    second layer and its constraints and two cuts per member, and 78
    when each member derived two representations.  rref is counted as
    it is bound in linalg, fixpoint and replab.  No FiniteRep is built."""
    import equifix.fixpoint
    import equifix.linalg
    import equifix.replab

    lc = lemma_chain("chain-3", 6)
    members = len(lc.nested)
    real = equifix.linalg.rref
    calls, reps = [], []

    def counting_rref(m):
        calls.append(m.shape)
        return real(m)

    def refusing_init(self, *args, **kwargs):
        reps.append(args)
        raise AssertionError("FiniteRep built")

    for module in (equifix.linalg, equifix.fixpoint, equifix.replab):
        monkeypatch.setattr(module, "rref", counting_rref)
    monkeypatch.setattr(FiniteRep, "__init__", refusing_init)
    report = dichotomy_probe(lc.rep, lc.nested)
    assert (lc.rep.r, members) == (6, 6) and report.ok
    assert len(calls) <= 3
    assert reps == []


# ---------------------------------------------------------------- generators


def test_random_commuting_rep_shape():
    rng = random.Random(453)
    rep = random_commuting_rep(rng, 3, 7, 3)
    assert (rep.p, rep.dim, rep.r) == (3, 7, 3)
    # construction already certified order and commutation; spot-check
    ident = FpMatrix.identity(3, 7)
    for g in rep.generators:
        assert g**3 == ident
