"""Independent brute-force checks for the linear-algebra layer.

Everything here recomputes answers the cheap way — enumerating vectors
or subspaces outright — so the production routines (fixed_space,
max_invariant_subspace) can be validated against code that shares no
logic with them.  Nothing here eliminates: every result is built from
span tables, gathers and small matrix products and read off by
inspection, so no call reaches `rref`.

One primitive enumerates: `_span_table(p, rows)` lists all p^k
combinations of k rows as a narrow unsigned table, row i combining them
with the base-p digits of i (least significant first), so the row of a
combination is found again from its base-p code.

  * brute_fixed tabulates F_p^dim (the combinations of the unit rows)
    and, for each generator g, the combinations of g's columns: by
    linearity row i of that table is g applied to vector i, so every
    vector is checked, and the fixed vectors are those equal to every
    image.  The canonical basis is read off the fixed set in one pass:
    the pivots are the leading positions of its members, and row r is
    the member whose pivot coordinates have base-p code p^r.
  * brute_max_invariant enumerates only the subspaces of the ambient,
    one pivot pattern at a time: `_rref_bases` yields every RREF
    coefficient matrix C (k x m) of a pattern as one stack.  With the
    ambient's RREF basis B (m x n), C·B is RREF with pivots pivB[pivC],
    so it is the canonical basis of its span and distinct C give
    distinct subspaces.  The test runs in the ambient's coordinates: the
    image of x·B under a generator lies in the ambient iff the part of
    it off the ambient's span is zero, and then its coordinates are its
    entries at pivB.  Both are tabulated once per coefficient vector x
    of F_p^m and gathered by the code of each row of C.  A coordinate
    vector v lies in the row span of C iff v = v[pivC]·C, which tests
    invariance and maximality for a whole stack at once.

Fixed caps keep the enumerations from silently eating hours: more than
MAX_VECTORS = 2^20 vectors or MAX_SUBSPACES = 2^22 subspaces raises
BudgetExceeded, before any table is built, rather than degrading.  The
subspace cap counts what is enumerated: the subspaces of the ambient.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch
from .linalg import FpMatrix, Subspace


# Caps on the oracle's search sizes (counts, not bytes).
MAX_VECTORS = 1 << 20
MAX_SUBSPACES = 1 << 22


def _span_table(p: int, rows) -> np.ndarray:
    """All p^k combinations of the k rows, mod p: row i is the sum of
    d_j·rows[j] over the base-p digits d_j of i, least significant first.

    Built one row's multiples at a time: once rows[:j] are in, block c of
    the next p^j rows is block c - 1 plus rows[j].  Entries stay below
    2p - 1 between reductions, so the table is as narrow as p allows.
    A reduction divides nothing: in unsigned bytes block - p wraps above
    block exactly where block < p, so the smaller of the two is block
    mod p.  Over F_2 the one block is the previous one xor rows[j], which
    needs no reduction.
    """
    rows = np.asarray(rows) % p
    dtype = np.min_scalar_type(2 * (p - 1))
    table = np.zeros((p ** len(rows), rows.shape[1]), dtype=dtype)
    size = 1
    for row in rows.astype(dtype):
        if p == 2:
            np.bitwise_xor(table[:size], row, out=table[size:2 * size])
        else:
            for c in range(1, p):
                block = table[c * size:(c + 1) * size]
                np.add(table[(c - 1) * size:c * size], row, out=block)
                np.minimum(block, block - p, out=block)
        size *= p
    return table


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


def _in_span(vecs: np.ndarray, bases: np.ndarray, pivots, p: int) -> np.ndarray:
    """For each entry of a stack: whether every row of vecs[i] lies in the
    row span of the RREF basis bases[i], whose pivots are shared."""
    k, m = bases.shape[1:]
    # Wide enough for a sum of k products of residues.
    wide = np.min_scalar_type(k * (p - 1) ** 2)
    lead = vecs[:, :, pivots].astype(wide, copy=False)
    # At the pivot columns v and v[piv]·b agree, since b[:, piv] = I.
    rest = np.ones(m, dtype=bool)
    rest[pivots] = False
    combined = lead @ bases[:, :, rest].astype(wide, copy=False) % p
    return (combined == vecs[:, :, rest]).all(axis=(1, 2))


def brute_fixed(p: int, dim: int, generators) -> Subspace:
    """Common fixed vectors of the generators, by checking every vector.

    Row i of the span table of g's columns is g applied to vector i, so
    the fixed set is where every generator's table equals the vectors,
    compared a whole row at a time (each row viewed as one opaque value).
    The canonical basis is read off it: the pivots are the leading
    positions of its nonzero members, and row r is the member whose pivot
    coordinates are e_r (unique, since a member is fixed by its pivot
    coordinates), found by their base-p code p^r.
    """
    total = p**dim
    if total > MAX_VECTORS:
        raise BudgetExceeded(f"{total} vectors exceeds budget {MAX_VECTORS}")
    # Row i spells i in base p, least significant digit first.
    vectors = _span_table(p, np.eye(dim, dtype=np.int64))
    gens = _generator_arrays(p, dim, generators)
    mask = np.ones(total, dtype=bool)
    if dim:  # F_p^0 is the zero vector alone, and a void view needs a byte
        row = np.dtype((np.void, dim))
        keys = vectors.view(row)[:, 0]
        for g in gens:
            mask &= _span_table(p, g.T).view(row)[:, 0] == keys
    fixed = vectors[mask]
    pivots = np.unique(_leading(fixed[1:]))  # fixed[0] is the zero vector
    powers = p ** np.arange(len(pivots))
    member = np.empty(len(fixed), dtype=np.int64)  # the member with each code
    member[fixed[:, pivots] @ powers] = np.arange(len(fixed))
    rows = fixed[member[powers]].reshape(len(pivots), dim)
    return Subspace(p, dim, FpMatrix(p, rows))


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


# Most subspaces one stack holds: a pattern with more fillings comes in
# consecutive slices, so a stack's working set stays bounded whatever p.
_STACK = 1 << 14


def _rref_bases(p: int, dim: int):
    """The canonical RREF basis array of every subspace of F_p^dim once,
    in the order of enumerate_subspaces, one pivot pattern at a time:
    an iterator of (N, k, dim) stacks of bases sharing their pivot
    columns.  The cap is checked on the call, before any stack is
    built."""
    total = sum(count_subspaces(p, dim, k) for k in range(dim + 1))
    if total > MAX_SUBSPACES:
        raise BudgetExceeded(f"{total} subspaces exceeds budget {MAX_SUBSPACES}")
    return itertools.chain.from_iterable(
        _pattern_stacks(p, dim, pivots)
        for k in range(dim + 1)
        for pivots in itertools.combinations(range(dim), k)
    )


def _pattern_stacks(p: int, dim: int, pivots: tuple[int, ...]):
    """Yield the RREF bases with these pivot columns, every filling of
    the free entries once, in itertools.product order."""
    k = len(pivots)
    # Free positions: to the right of each pivot, skipping later pivot
    # columns.
    free = [(r, c) for r, pc in enumerate(pivots)
            for c in range(pc + 1, dim) if c not in pivots]
    free_rows = [r for r, _ in free]
    free_cols = [c for _, c in free]
    # The first free entry is the most significant digit, as in
    # itertools.product.
    fills = _span_table(p, np.eye(len(free), dtype=np.int64)[::-1])
    for start in range(0, len(fills), _STACK):
        part = fills[start:start + _STACK]
        stack = np.zeros((len(part), k, dim), dtype=fills.dtype)
        stack[:, range(k), list(pivots)] = 1
        stack[:, free_rows, free_cols] = part
        yield stack


def enumerate_subspaces(p: int, dim: int):
    """Yield every subspace of F_p^dim once, as canonical Subspace objects.

    Construction is direct: for each rank k and pivot-column choice,
    every filling of the free entries of the reduced row echelon form is
    a row of one span table, and the fillings come out in order.  No
    Gaussian elimination happens, so agreement of the count with
    count_subspaces is a real check on both sides.
    """
    for stack in _rref_bases(p, dim):
        for m in stack:
            # Already in reduced echelon form by construction, so the raw
            # constructor is safe (and keeps elimination out of this code
            # path).
            yield Subspace(p, dim, FpMatrix(p, m))


def brute_max_invariant(
    p: int,
    dim: int,
    generators,
    ambient: Subspace | None = None,
) -> Subspace:
    """Largest subspace of `ambient` mapped into itself by every generator.

    Walks the subspaces of the ambient as C·B, for every RREF coefficient
    matrix C with m = ambient.dim columns (the raw stacks behind
    enumerate_subspaces: no FpMatrix or Subspace is built per subspace)
    and the ambient's RREF basis B; C·B is RREF with pivots pivB[pivC],
    so it is canonical without elimination.  Per coefficient vector x of
    F_p^m, tables hold whether some generator moves x·B off the ambient
    and, for each generator, the ambient coordinates of the image of x·B.
    A stack of C is invariant where no row's image leaves and every
    row's image coordinates v satisfy v = v[pivC]·C (mod p).  Returns the
    invariant subspace of top dimension, verifying along the way that it
    contains every other invariant subspace found (the maximum is a sum,
    so this must hold; a failure means a bug in the caller's premises,
    and raises).  MAX_SUBSPACES caps the ambient's subspaces, the ones
    enumerated.
    """
    gens = _generator_arrays(p, dim, generators)
    if ambient is None:
        ambient = Subspace(p, dim, FpMatrix(p, np.eye(dim, dtype=np.int64)))
    elif ambient.p != p or ambient.ambient_dim != dim:
        raise DimensionMismatch("ambient does not live in F_p^dim")
    span = ambient.basis.a
    m = len(span)
    stacks = _rref_bases(p, m)  # checks the cap before any table is built
    span_pivots = _leading(span)
    # Row i of span @ act holds the images of the ambient's basis row i
    # under every generator: split them into their ambient coordinates and
    # the part off the ambient's span.
    act = np.hstack([g.T for g in gens]) if gens else np.zeros((dim, 0), dtype=np.int64)
    images = (span @ act % p).reshape(m, len(gens), dim)
    # A generator fixing the ambient pointwise maps every subspace of it
    # into itself, so only the others are tested.
    images = images[:, ~(images == span[:, None, :]).all(axis=(0, 2))]
    moving = images.shape[1]
    coords = images[:, :, span_pivots]
    off = ((images - coords @ span) % p).reshape(m, moving * dim)
    leaves = _span_table(p, off[:, off.any(axis=0)]).any(axis=1)
    moved = _span_table(p, coords.reshape(m, moving * m))
    powers = p ** np.arange(m)
    found = np.zeros(len(moved), dtype=bool)  # rows of invariant subspaces
    best = None
    for stack in stacks:
        n, k, _ = stack.shape
        codes = stack @ powers
        imgs = moved[codes].reshape(n, k * moving, m)
        invariant = ~leaves[codes].any(axis=1) & _in_span(imgs, stack, _leading(stack[0]), p)
        if invariant.any():
            found[codes[invariant]] = True
            if best is None or k > len(best):
                best = stack[invariant.argmax()]
    rows = _span_table(p, np.eye(m, dtype=np.int64))[found]
    if not _in_span(rows[None], best[None], _leading(best), p)[0]:
        raise AssertionError("invariant subspaces are not closed under sum here")
    return Subspace(p, dim, FpMatrix(p, best @ span % p))
