"""Finite representations of elementary abelian p-groups and the p^r bound.

A FiniteRep is a list of commuting order-p matrices over F_p — the
images of independent generators of (Z/p)^r.  The central fact used
downstream: because (g - id)^p = g^p - id = 0, the kernel filtration of
any single generator climbs to the whole space in at most p steps with
non-increasing increments, which forces

    dim V^G  >=  dim V / p^r

exactly (as rationals).  dichotomy_probe applies that bound along a
nested chain of invariant subspaces and reports how the fixed part and
its complementary quotient grow.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ChainInvariantViolation,
    DimensionMismatch,
    LimitExceeded,
    NonCommuting,
    NotOrderP,
)
from .linalg import (
    FpMatrix,
    Subspace,
    _mul,
    check_prime,
    inverse,
    kernel,
    quotient,
    rref,
)


class FiniteRep:
    """Commuting order-p generator matrices acting on F_p^dim."""

    __slots__ = ("p", "dim", "generators")

    MAX_GENERATORS = 6  # the p^r bound is vacuous at desk scale beyond this

    def __init__(self, p: int, dim: int, generators):
        check_prime(p)
        gens = tuple(generators)
        if len(gens) > self.MAX_GENERATORS:
            raise LimitExceeded(
                f"{len(gens)} generators exceeds the cap of {self.MAX_GENERATORS}"
            )
        for g in gens:
            if g.p != p:
                raise DimensionMismatch("generator over the wrong field")
            if g.shape != (dim, dim):
                raise DimensionMismatch(f"generator shape {g.shape} vs dim {dim}")
        stack = np.array([g.a for g in gens], dtype=np.int64).reshape(len(gens), dim, dim)
        bad = _not_order_p(stack, p)
        if bad.any():
            raise NotOrderP(f"generator {bad.argmax()} does not satisfy g^p = id")
        for i in range(len(gens) - 1):
            later = stack[i + 1 :]
            bad = (_mul(stack[i], later, p) != _mul(later, stack[i], p)).any(axis=(1, 2))
            if bad.any():
                j = i + 1 + int(bad.argmax())
                raise NonCommuting(f"generators {i} and {j} do not commute", offsets=(i, j))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "generators", gens)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteRep is immutable")

    @property
    def r(self) -> int:
        return len(self.generators)

    def __repr__(self) -> str:
        return f"FiniteRep(p={self.p}, dim={self.dim}, r={self.r})"


def _not_order_p(stack: np.ndarray, p: int) -> np.ndarray:
    """Which matrices of an (r, n, n) stack over F_p fail g^p = id, with
    g^p formed for the whole stack at once by repeated squaring."""
    power, e = None, p
    while True:
        if e & 1:
            power = stack if power is None else _mul(power, stack, p)
        e >>= 1
        if not e:
            return (power != np.eye(power.shape[-1], dtype=np.int64)).any(axis=(1, 2))
        stack = _mul(stack, stack, p)


def fixed_space(rep: FiniteRep) -> Subspace:
    """V^G = the joint kernel of g - id over the generators: one kernel of
    them stacked (no rows, so F_p^dim, when r = 0)."""
    ident = np.eye(rep.dim, dtype=np.int64)
    empty = np.zeros((0, rep.dim), dtype=np.int64)
    moved = [(g.a - ident) % rep.p for g in rep.generators]
    return kernel(FpMatrix._wrap(rep.p, np.vstack([empty, *moved])))


@dataclass(frozen=True)
class FiltrationReport:
    """Kernel filtration d(i) = dim ker (g - id)^i for i = 0..p."""

    p: int
    dim: int
    dims: tuple[int, ...]

    @property
    def differences(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in zip(self.dims, self.dims[1:]))

    @property
    def concave(self) -> bool:
        d = self.differences
        return all(x >= y for x, y in zip(d, d[1:]))

    @property
    def exhausts(self) -> bool:
        return self.dims[-1] == self.dim

    @property
    def fixed_dim(self) -> int:
        return self.dims[1]

    @property
    def lower_bound(self) -> Fraction:
        return Fraction(self.dim, self.p)

    @property
    def bound_ok(self) -> bool:
        return self.fixed_dim >= self.lower_bound

    def to_dict(self) -> dict:
        return {
            "dims": list(self.dims),
            "differences": list(self.differences),
            "concave": self.concave,
            "exhausts": self.exhausts,
            "fixed_dim": self.fixed_dim,
            "lower_bound": str(self.lower_bound),
            "bound_ok": self.bound_ok,
        }


def kernel_filtration(g: FpMatrix, p: int) -> FiltrationReport:
    """Filtration of one order-p generator; errors if g^p != id.

    With N = g - id, dim ker N^i = n - rank N^i, and the rows of N^i are
    those of N^(i-1) times N, so the chain walks row spaces: independent
    rows spanning N^(i-1)'s row space, times N, span N^i's.  Each step is
    one rref of those rows transposed (its loop scans no more columns
    than there are rows), whose pivot columns pick the independent rows.
    No power of N and no kernel is formed.  In characteristic p,
    N^p = g^p - id, so g^p = id exactly when the last rank is 0; once
    the rank stops falling it stays put, so a nonzero rank that repeats
    rejects g without the remaining steps.
    """
    if g.p != p or g.rows != g.cols:
        raise DimensionMismatch("need a square matrix over F_p")
    n = g.rows
    nil = rows = (g.a - np.eye(n, dtype=np.int64)) % p
    dims = [0]
    for _ in range(p):
        rows = rows[list(rref(FpMatrix._wrap(p, rows.T)).pivots)]
        dims.append(n - len(rows))
        if dims[-1] == dims[-2] != n:  # the rank stopped falling above 0
            break
        rows = _mul(rows, nil, p)
    if dims[-1] != n:
        raise NotOrderP("matrix does not satisfy g^p = id")
    return FiltrationReport(p, n, tuple(dims))


@dataclass(frozen=True)
class BoundCheck:
    fixed_dim: int
    lower_bound: Fraction
    ok: bool

    def to_dict(self) -> dict:
        return {
            "fixed_dim": self.fixed_dim,
            "lower_bound": str(self.lower_bound),
            "ok": self.ok,
        }


def fixed_bound_check(rep: FiniteRep) -> BoundCheck:
    """Exact rational comparison dim V^G >= dim V / p^r."""
    lhs = fixed_space(rep).dim
    rhs = Fraction(rep.dim, rep.p**rep.r)
    return BoundCheck(lhs, rhs, lhs >= rhs)


def restrict_rep(rep: FiniteRep, w: Subspace) -> FiniteRep:
    """The same generators in coordinates of an invariant subspace w.

    Column i of a generator's matrix is the coordinates of its image of
    w's basis row i: a member of w is the combination of the canonical
    basis given by its entries at w's pivots, so they are read off there.
    """
    if w.p != rep.p or w.ambient_dim != rep.dim:
        raise DimensionMismatch("subspace does not live in the representation space")
    mats = []
    for g in rep.generators:
        images = w.basis.a @ g.a.T % rep.p
        if not w.spans(images):
            raise ChainInvariantViolation("subspace is not invariant under a generator")
        mats.append(FpMatrix._wrap(rep.p, images[:, w.pivots].T))
    return FiniteRep(rep.p, w.dim, mats)


def quotient_rep(rep: FiniteRep, u: Subspace) -> FiniteRep:
    """Induced representation on V/u for an invariant subspace u."""
    if u.p != rep.p or u.ambient_dim != rep.dim:
        raise DimensionMismatch("subspace does not live in the representation space")
    q = quotient(Subspace.full(rep.p, rep.dim), u)
    mats = [q.induced(g) for g in rep.generators]
    return FiniteRep(rep.p, q.dim, mats)


@dataclass(frozen=True)
class GrowthRow:
    n: int
    total_dim: int
    fixed_dim: int
    quotient_fixed_dim: int
    lower_bound: Fraction
    ok: bool

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "dim": self.total_dim,
            "fixed_dim": self.fixed_dim,
            "quotient_fixed_dim": self.quotient_fixed_dim,
            "lower_bound": str(self.lower_bound),
            "bound_ok": self.ok,
        }


@dataclass(frozen=True)
class GrowthReport:
    rows: tuple[GrowthRow, ...]
    ok: bool

    def to_dict(self) -> dict:
        return {"rows": [r.to_dict() for r in self.rows], "ok": self.ok}


def dichotomy_probe(rep: FiniteRep, chain) -> GrowthReport:
    """Fixed-part growth along a strictly nested chain of invariant subspaces.

    For each member V_n the report records dim V_n, dim V_n^G, the
    fixed dimension of V_n / V_n^G, and the exact bound
    dim V_n^G >= dim V_n / p^r.  The chain must be strictly increasing
    and every member invariant under every generator.

    Two layers of the whole space are cut out once: V^G = ker C1, C1 the
    RREF rows of the stacked g - id, and S2 = {v : (g - id) v in V^G for
    every g} = ker C2, C2 the stack of the C1 (g - id).  V_n is
    invariant, so (g - id) v lies in V_n^G exactly when it lies in V^G:
    the class of v in V_n / V_n^G is fixed iff v is in S2.  Hence
    dim V_n^G = dim V_n - rank(C1 F_n^T) and the quotient's fixed
    dimension is rank(C1 F_n^T) - rank(C2 F_n^T), with F_n any basis of
    V_n.  One flag-adapted basis F serves every member: V_1's canonical
    basis, then the rows of each V_n whose pivot is not a pivot of
    V_{n-1}.  The pivots of V_{n-1} are pivots of V_n, and the rows so
    far lead at distinct columns, so the first dim V_n rows of F are a
    basis of V_n; and the rank of the first dim V_n columns of C F^T is
    the number of pivots of its RREF among them.  Three eliminations in
    all, whatever r and the number of members, and no derived
    representation.
    """
    members = list(chain)
    prev: Subspace | None = None
    for v in members:
        if v.p != rep.p or v.ambient_dim != rep.dim:
            raise DimensionMismatch("chain member outside the representation space")
        if prev is not None:
            if not v.contains(prev) or v.dim <= prev.dim:
                raise ChainInvariantViolation("chain is not strictly nested")
        prev = v
    p, dim = rep.p, rep.dim
    empty = np.zeros((0, dim), dtype=np.int64)  # so that a stack of no blocks has dim columns
    # Every generator side by side: v's basis times stack holds its images
    # under each generator in turn, and one read-off checks them all.
    stack = np.hstack([empty.T, *(g.a.T for g in rep.generators)])
    flag, seen = [empty], np.zeros(dim, dtype=bool)
    for v in members:
        if not v.spans((v.basis.a @ stack % p).reshape(-1, dim)):
            raise ChainInvariantViolation("subspace is not invariant under a generator")
        flag.append(v.basis.a[~seen[v.pivots]])
        seen[v.pivots] = True
    flag = np.vstack(flag)
    moved = [(g.a - np.eye(dim, dtype=np.int64)) % p for g in rep.generators]
    red = rref(FpMatrix._wrap(p, np.vstack([empty, *moved])))
    c1 = red.matrix.a[: red.rank]
    c2 = np.vstack([empty, *(c1 @ m % p for m in moved)])
    ranks = [_prefix_ranks(p, c @ flag.T % p, [v.dim for v in members]) for c in (c1, c2)]
    rows = []
    all_ok = True
    for n, (v, r1, r2) in enumerate(zip(members, *ranks), start=1):
        fixed = v.dim - r1
        bound = Fraction(v.dim, p**rep.r)
        ok = fixed >= bound
        all_ok = all_ok and ok
        rows.append(GrowthRow(n, v.dim, fixed, r1 - r2, bound, ok))
    return GrowthReport(tuple(rows), all_ok)


def _prefix_ranks(p: int, m: np.ndarray, widths) -> list[int]:
    """Rank of the first w columns of m, for each w in widths, off one
    RREF: the pivots of m's RREF that fall among those columns."""
    pivots = np.array(rref(FpMatrix._wrap(p, m)).pivots, dtype=np.int64)
    return [int((pivots < w).sum()) for w in widths]


def _random_invertible(rng, p: int, n: int) -> FpMatrix:
    while True:
        m = FpMatrix(p, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        if rref(m).rank == n:
            return m


def _jordan_block_poly(rng, p: int, size: int) -> np.ndarray:
    """Unipotent polynomial in the nilpotent Jordan shift: id + sum c_i N^i."""
    a = np.eye(size, dtype=np.int64)
    shift = np.eye(size, dtype=np.int64, k=1)
    power = shift.copy()
    for _ in range(1, size):
        a = (a + rng.randrange(p) * power) % p
        power = power @ shift
    return a


def random_commuting_rep(rng, p: int, dim: int, r: int) -> FiniteRep:
    """Random FiniteRep: conjugated block-diagonal unipotent polynomials.

    Each generator is block-diagonal over one shared partition into
    Jordan cells of size <= p, with every block a polynomial in the
    cell's shift; one common random change of basis is applied to all
    generators, so commutation and order p hold by construction.
    """
    check_prime(p)
    sizes = []
    left = dim
    while left > 0:
        s = rng.randint(1, min(p, left))
        sizes.append(s)
        left -= s
    blocks_per_gen = []
    for _ in range(r):
        a = np.zeros((dim, dim), dtype=np.int64)
        at = 0
        for s in sizes:
            a[at : at + s, at : at + s] = _jordan_block_poly(rng, p, s)
            at += s
        blocks_per_gen.append(a)
    q = _random_invertible(rng, p, dim)
    qi = inverse(q)
    gens = [q @ FpMatrix(p, a) @ qi for a in blocks_per_gen]
    return FiniteRep(p, dim, gens)
