"""Independent brute-force checks for the linear-algebra layer.

Everything here recomputes answers the cheap way — enumerating vectors
or subspaces outright — so the production routines (fixed_space,
max_invariant_subspace) can be validated against code that shares no
logic with them.  Nothing here eliminates: every result is built from
matrix products and read off by inspection, so no call reaches `rref`.

  * brute_fixed keeps the vectors every generator fixes and reads the
    canonical basis off that set: its pivots are the leading positions
    of its members, and row i is the unique member whose pivot
    coordinates are e_i.
  * brute_max_invariant enumerates only the subspaces of the ambient.
    For each RREF coefficient matrix C (k x m) and the ambient's RREF
    basis B (m x n), C·B is again RREF, with pivots pivB[pivC], so it is
    the canonical basis of its span and distinct C give distinct
    subspaces.  A vector v lies in the row span of an RREF basis b with
    pivots piv iff v - v[piv]·b = 0, which tests invariance and
    maximality.

Budgets keep the enumerations from silently eating hours; exceeding one
raises BudgetExceeded rather than degrading.  The subspace budget counts
what is enumerated: the subspaces of the ambient.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch
from .linalg import FpMatrix, Subspace


@dataclass(frozen=True)
class EnumerationBudget:
    """Caps for oracle search sizes (counts, not bytes)."""

    max_vectors: int = 1 << 20
    max_subspaces: int = 1 << 22


DEFAULT_BUDGET = EnumerationBudget()


def _all_vectors(p: int, dim: int, budget: EnumerationBudget) -> np.ndarray:
    total = p**dim
    if total > budget.max_vectors:
        raise BudgetExceeded(f"{total} vectors exceeds budget {budget.max_vectors}")
    # Row i spells i in base p, least significant digit first.
    idx = np.arange(total, dtype=np.int64)
    cols = []
    for _ in range(dim):
        cols.append(idx % p)
        idx //= p
    if cols:
        return np.stack(cols, axis=1)
    return np.zeros((1, 0), dtype=np.int64)


def _generator_arrays(p: int, dim: int, generators) -> list[np.ndarray]:
    arrays = []
    for g in generators:
        if g.p != p or g.shape != (dim, dim):
            raise DimensionMismatch("generator does not act on F_p^dim")
        arrays.append(g.a)
    return arrays


def _leading(rows: np.ndarray) -> np.ndarray:
    """Column of the first nonzero entry of each (nonzero) row."""
    if not rows.size:  # argmax refuses a (0, 0) array
        return np.zeros(len(rows), dtype=np.int64)
    return (rows != 0).argmax(axis=1)


def _in_span(vecs: np.ndarray, basis: np.ndarray, pivots: np.ndarray, p: int) -> bool:
    """Whether every row of vecs lies in the row span of the RREF basis."""
    return not ((vecs - vecs[:, pivots] @ basis) % p).any()


def brute_fixed(p: int, dim: int, generators, budget: EnumerationBudget = DEFAULT_BUDGET) -> Subspace:
    """Common fixed vectors of the generators, by checking every vector.

    The canonical basis is read off the fixed set: the pivots are the
    leading positions of its nonzero members, and row i is the member
    whose pivot coordinates are e_i (unique, since a member is fixed by
    its pivot coordinates).
    """
    vs = _all_vectors(p, dim, budget)
    gens = _generator_arrays(p, dim, generators)
    mask = np.ones(len(vs), dtype=bool)
    for g in gens:
        mask &= ((vs @ g.T) % p == vs).all(axis=1)
    picked = vs[mask]
    picked = picked[picked.any(axis=1)]
    pivots = np.unique(_leading(picked))
    unit = np.eye(len(pivots), dtype=np.int64)
    rows = [picked[(picked[:, pivots] == e).all(axis=1)][0] for e in unit]
    return Subspace(p, dim, FpMatrix(p, np.array(rows, dtype=np.int64).reshape(len(pivots), dim)))


def count_subspaces(p: int, dim: int, k: int) -> int:
    """Gaussian binomial [dim choose k]_p, computed exactly."""
    if k < 0 or k > dim:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= p ** (dim - i) - 1
        den *= p ** (i + 1) - 1
    assert num % den == 0
    return num // den


def _rref_bases(p: int, dim: int, budget: EnumerationBudget):
    """Yield the canonical RREF basis array of every subspace of F_p^dim
    once, in the order of enumerate_subspaces."""
    total = sum(count_subspaces(p, dim, k) for k in range(dim + 1))
    if total > budget.max_subspaces:
        raise BudgetExceeded(f"{total} subspaces exceeds budget {budget.max_subspaces}")
    yield np.zeros((0, dim), dtype=np.int64)
    for k in range(1, dim + 1):
        for pivots in itertools.combinations(range(dim), k):
            # Free positions: to the right of each pivot, skipping later
            # pivot columns.
            free = [(r, c) for r, pc in enumerate(pivots)
                    for c in range(pc + 1, dim) if c not in pivots]
            free_rows = [r for r, _ in free]
            free_cols = [c for _, c in free]
            base = np.zeros((k, dim), dtype=np.int64)
            base[range(k), pivots] = 1
            for fill in itertools.product(range(p), repeat=len(free)):
                m = base.copy()
                m[free_rows, free_cols] = fill
                yield m


def enumerate_subspaces(p: int, dim: int, budget: EnumerationBudget = DEFAULT_BUDGET):
    """Yield every subspace of F_p^dim once, as canonical Subspace objects.

    Construction is direct: for each rank k and pivot-column choice,
    fill the free entries of the reduced row echelon form in all ways.
    No Gaussian elimination happens, so agreement of the count with
    count_subspaces is a real check on both sides.
    """
    for m in _rref_bases(p, dim, budget):
        # Already in reduced echelon form by construction, so the raw
        # constructor is safe (and keeps elimination out of this code
        # path).
        yield Subspace(p, dim, FpMatrix(p, m))


def brute_max_invariant(
    p: int,
    dim: int,
    generators,
    ambient: Subspace | None = None,
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> Subspace:
    """Largest subspace of `ambient` mapped into itself by every generator.

    Walks the subspaces of the ambient as C·B, for every RREF coefficient
    matrix C with ambient.dim columns (the raw arrays behind
    enumerate_subspaces: no FpMatrix or Subspace is built per subspace)
    and the ambient's RREF basis B; C·B is RREF with pivots pivB[pivC],
    so it is canonical without elimination.  A subspace b with pivots piv is invariant when
    the images `imgs` of its rows under every generator satisfy
    imgs - imgs[:, piv]·b = 0 (mod p).  Returns the invariant subspace of
    top dimension, verifying along the way that it contains every other
    invariant subspace found (the maximum is a sum, so this must hold; a
    failure means a bug in the caller's premises, and raises).  The
    budget counts the ambient's subspaces, the ones enumerated.
    """
    gens = _generator_arrays(p, dim, generators)
    if ambient is None:
        ambient = Subspace(p, dim, FpMatrix(p, np.eye(dim, dtype=np.int64)))
    elif ambient.p != p or ambient.ambient_dim != dim:
        raise DimensionMismatch("ambient does not live in F_p^dim")
    span = ambient.basis.a
    # Row i of b @ act holds the images of b's row i under every generator.
    act = np.hstack([g.T for g in gens]) if gens else np.zeros((dim, 0), dtype=np.int64)
    invariant: list[np.ndarray] = []
    for c in _rref_bases(p, ambient.dim, budget):
        b = c @ span % p
        imgs = (b @ act).reshape(len(b) * len(gens), dim)
        if _in_span(imgs, b, _leading(b), p):
            invariant.append(b)
    best = max(invariant, key=len)
    best_pivots = _leading(best)
    for b in invariant:
        if not _in_span(b, best, best_pivots, p):
            raise AssertionError("invariant subspaces are not closed under sum here")
    return Subspace(p, dim, FpMatrix(p, best))
