"""Exact dense linear algebra over the prime fields F_p, p <= 97.

Matrices are immutable wrappers around numpy int64 arrays with every
entry reduced mod p; vectors are plain 1-D int64 arrays.  Matrices act
on column vectors (``m @ v``).  Subspaces are stored as row spans in
canonical reduced row echelon form, so two subspaces are equal exactly
when their basis arrays are equal; each keeps the pivot columns of its
basis.  Over F_2, rref eliminates on packed rows (one Python int per
row, a row operation one XOR); its RREF is bit-identical to that of an
int64 elimination.  Over odd p, rref eliminates on int64 and reduces
mod p only the pivot column and the pivot row of each step; no other
entry is reduced before the end, which the growth bound at MAX_DIM
makes exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidQuotient, LimitExceeded

MAX_PRIME = 97
# The cap bounds spaces and public inputs; an internal result may have
# more rows.  Products contract over the coordinates of a space, so an
# entry is an int64 sum of at most MAX_DIM terms below p^2 before the
# final mod, and 512 * 96^2 < 2^63 holds whatever the row count.  That
# int64 bound binds odd p only: over F_2 a product entry is at most
# MAX_DIM, and rref eliminates on rows packed into Python ints, which
# have no width limit.  _mul forms a product in float64 instead, exact
# while every partial sum, at most contraction * (p - 1)^2, stays below
# 2^53: 512 * 96^2 < 2^23, far inside it.  The odd-p rref reduces no
# entry before the end except its pivot columns and rows, and subtracts
# one product of two reduced entries per step, so an entry stays within
# (p - 1) + rank * (p - 1)^2: 96 + 512 * 96^2 < 2^23 at the cap (the
# [m | I] of an inverse), and < 2^25 at 2048.
MAX_DIM = 512


def check_prime(p: int) -> int:
    """Validate p as a prime in range (trial division is plenty here)."""
    if not isinstance(p, int) or p < 2 or p > MAX_PRIME:
        raise ValueError(f"p must be a prime in [2, {MAX_PRIME}], got {p!r}")
    for q in range(2, int(p**0.5) + 1):
        if p % q == 0:
            raise ValueError(f"p must be prime, got {p} = {q} * {p // q}")
    return p


def _check_space(p: int, n: int) -> None:
    """The public checks on a field and the dimension of a space."""
    check_prime(p)
    if n > MAX_DIM:
        raise LimitExceeded(f"dimension {n} beyond {MAX_DIM}")


def _mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b over F_p for reduced int64 operands, as a reduced int64
    array: one float64 matmul (numpy's int64 matmul does not use BLAS),
    exact while a.shape[-1] * (p - 1)^2 < 2^53.  Stacked operands
    broadcast as in matmul."""
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) % p


def _inv_mod(a: int, p: int) -> int:
    # Fermat: a^(p-2) mod p, valid since p is prime and a nonzero.
    return pow(a, p - 2, p)


def as_vector(p: int, data) -> np.ndarray:
    """Coerce data to a reduced 1-D int64 vector mod p."""
    v = np.asarray(data, dtype=np.int64) % p
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {v.shape}")
    return v


class FpMatrix:
    """Immutable matrix over F_p backed by a numpy int64 array."""

    __slots__ = ("p", "a")

    def __init__(self, p: int, data):
        check_prime(p)
        a = np.asarray(data, dtype=np.int64)
        if a.ndim != 2:
            raise DimensionMismatch(f"expected a 2-D array, got shape {a.shape}")
        if max(a.shape, default=0) > MAX_DIM:
            raise LimitExceeded(f"matrix dimension beyond {MAX_DIM}: {a.shape}")
        self._init(p, a % p)

    def _init(self, p: int, a: np.ndarray) -> None:
        a.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "a", a)

    @classmethod
    def _wrap(cls, p: int, a: np.ndarray) -> "FpMatrix":
        """Wrap, read-only and unchecked, a reduced 2-D int64 array that
        the package built and that nothing writes to."""
        m = object.__new__(cls)
        m._init(p, a)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("FpMatrix is immutable")

    @classmethod
    def identity(cls, p: int, n: int) -> "FpMatrix":
        _check_space(p, n)
        return cls._wrap(p, np.eye(n, dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def _check_same_field(self, other: "FpMatrix"):
        if self.p != other.p:
            raise DimensionMismatch(f"mixed fields F_{self.p} and F_{other.p}")

    def __add__(self, other: "FpMatrix") -> "FpMatrix":
        self._check_same_field(other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"shape mismatch {self.shape} vs {other.shape}")
        return FpMatrix._wrap(self.p, (self.a + other.a) % self.p)

    def __sub__(self, other: "FpMatrix") -> "FpMatrix":
        self._check_same_field(other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"shape mismatch {self.shape} vs {other.shape}")
        return FpMatrix._wrap(self.p, (self.a - other.a) % self.p)

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        self._check_same_field(other)
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.shape} by {other.shape}")
        return FpMatrix._wrap(self.p, self.a @ other.a % self.p)

    def __pow__(self, n: int) -> "FpMatrix":
        if self.rows != self.cols:
            raise DimensionMismatch("matrix power needs a square matrix")
        if n < 0:
            raise ValueError("negative matrix powers are not supported")
        result = FpMatrix.identity(self.p, self.rows)
        base = self
        while n:
            if n & 1:
                result = result @ base
            base = base @ base
            n >>= 1
        return result

    def scale(self, c: int) -> "FpMatrix":
        return FpMatrix._wrap(self.p, self.a * (c % self.p) % self.p)

    def apply(self, v) -> np.ndarray:
        """Matrix-vector product m @ v over F_p."""
        vec = as_vector(self.p, v)
        if vec.shape[0] != self.cols:
            raise DimensionMismatch(f"vector length {vec.shape[0]} vs {self.cols} columns")
        return (self.a @ vec) % self.p

    def transpose(self) -> "FpMatrix":
        return FpMatrix._wrap(self.p, self.a.T)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FpMatrix):
            return NotImplemented
        return self.p == other.p and self.shape == other.shape and bool(np.array_equal(self.a, other.a))

    def __hash__(self):
        return hash((self.p, self.shape, self.a.tobytes()))

    def row_strings(self) -> list[str]:
        """Rows as comma-separated digit strings, for debugging and reports."""
        return [",".join(map(str, row)) for row in self.a.tolist()]

    def __repr__(self) -> str:
        body = "; ".join(self.row_strings())
        return f"FpMatrix(p={self.p}, [{body}])"


@dataclass(frozen=True)
class RrefResult:
    matrix: FpMatrix
    rank: int
    pivots: tuple[int, ...]


def rref(m: FpMatrix) -> RrefResult:
    """Reduced row echelon form by Gauss–Jordan elimination.

    Returns the reduced matrix, its rank, and the pivot column indices.
    The output is the canonical representative of the row space: two
    matrices have the same row space iff their rrefs are identical
    after dropping zero rows.  Over F_2 the elimination runs on packed
    rows (_rref_f2); the RREF is unique, so the result is the same.

    For odd p, reduction mod p is delayed (as in FFLAS-FFPACK, Dumas,
    Giorgi and Pernet, ACM TOMS 2008).  At each column c only that
    column is reduced; any unused row with a nonzero entry there is the
    pivot row, scaled to lead with 1 and reduced, and the outer product
    of the column and the row is subtracted in place from columns c
    onward (an unused row is zero mod p left of c, so the reduced pivot
    row is 0 there).  No row moves: at the end the pivot rows are
    gathered in pivot order, the unused rows (all zero mod p by then)
    after them, and the whole matrix is reduced once.  Every subtracted
    term is a product of two reduced entries, so no entry exceeds
    (p - 1) + rank * (p - 1)^2 in absolute value: int64 is exact.
    """
    p = m.p
    if p == 2:
        a, pivots = _rref_f2(m.a)
        return RrefResult(FpMatrix._wrap(p, a), len(pivots), pivots)
    a = m.a.copy()
    free = list(range(a.shape[0]))
    used: list[int] = []
    pivots: list[int] = []
    for c in range(a.shape[1]):
        if not free:
            break
        col = a[:, c] % p
        entries = col.tolist()
        for i in free:
            if entries[i]:
                break
        else:
            continue
        row = a[i, c:] * _inv_mod(entries[i], p) % p
        if sum(entries) > entries[i]:  # another row is nonzero at c
            col[i] = 0
            a[:, c:] -= col[:, None] * row
        a[i, c:] = row
        free.remove(i)
        used.append(i)
        pivots.append(c)
    order = used + free
    if order != list(range(len(order))):
        a = a[order]
    a %= p
    return RrefResult(FpMatrix._wrap(p, a), len(pivots), tuple(pivots))


def _rref_f2(a: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """RREF of a 0/1 matrix over F_2, on rows packed into Python ints
    (the M4RI idea, Albrecht–Bard–Hart 2010).

    Row i is the big-endian integer of its packed bytes, so column c is
    bit 8*width - 1 - c and a row's leading column is read off its
    bit_length.  The next pivot row is the remaining row with the largest
    bit_length; every other row with that bit set, pivot rows included,
    is XORed with it.  Pivots therefore come in increasing column order,
    each cleared from every other row: that is the RREF.
    """
    nrows, ncols = a.shape
    width = -(-ncols // 8)  # bytes per packed row; the pad bits stay 0
    data = np.packbits(a, axis=1).tobytes()
    rows = [int.from_bytes(data[i * width : (i + 1) * width], "big") for i in range(nrows)]
    rows = [r for r in rows if r]
    done: list[int] = []
    while rows:
        top = max(rows)
        bit = 1 << (top.bit_length() - 1)
        done = [r ^ top if r & bit else r for r in done]
        done.append(top)
        rows = [x for r in rows if (x := r ^ top if r & bit else r)]
    out = np.zeros((nrows, ncols), dtype=np.int64)
    if done:
        packed = np.frombuffer(b"".join(r.to_bytes(width, "big") for r in done), dtype=np.uint8)
        out[: len(done)] = np.unpackbits(packed.reshape(len(done), width), axis=1, count=ncols)
    return out, tuple([8 * width - r.bit_length() for r in done])


def kernel(m: FpMatrix) -> "Subspace":
    """Null space {v : m @ v = 0} as a canonical Subspace.

    One elimination, of m with its columns reversed, then the read-off
    of kernel_from_reversed_rref.
    """
    red = rref(FpMatrix._wrap(m.p, m.a[:, ::-1]))
    return kernel_from_reversed_rref(m.p, red.matrix.a[: red.rank], red.pivots)


def kernel_from_reversed_rref(p: int, rows: np.ndarray, pivots) -> "Subspace":
    """Null space of m, read off the canonical RREF rows (and their pivot
    columns) of m with its columns reversed; nothing is eliminated.

    In reversed coordinates the null vector of free column f' is e_f'
    minus pivot columns left of f'; read back in the original order, the
    vector of free column f is 1 at f and nonzero elsewhere only at pivot
    columns right of f.  So the vectors, taken by ascending f, lead at
    distinct free columns and vanish at every other free column: they
    already are the canonical RREF basis, with the free columns as its
    pivots.
    """
    n = rows.shape[1]
    pivots = list(pivots)
    free = np.delete(np.arange(n), pivots)
    basis = np.zeros((free.size, n), dtype=np.int64)
    basis[:, free] = np.eye(free.size, dtype=np.int64)
    basis[:, pivots] = (-rows[:, free].T) % p
    return Subspace(p, n, FpMatrix._wrap(p, basis[::-1, ::-1]), n - 1 - free[::-1])


class Subspace:
    """Row-span of vectors in F_p^n, stored as a canonical rref basis
    with the pivot column of each basis row (a read-only int64 array)."""

    __slots__ = ("p", "ambient_dim", "basis", "pivots")

    def __init__(self, p: int, ambient_dim: int, basis: FpMatrix, pivots=None):
        # `basis` must already be a canonical rref with no zero rows;
        # use from_rows to build from arbitrary spanning vectors.  Each
        # row's pivot is its first nonzero column, read off here unless
        # the caller already knows them.
        if pivots is None:
            a = basis.a
            pivots = (a != 0).argmax(axis=1) if a.size else ()
        pivots = np.array(pivots, dtype=np.int64)
        pivots.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivots", pivots)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_rows(cls, p: int, ambient_dim: int, rows) -> "Subspace":
        """Canonicalize arbitrary spanning rows into a Subspace."""
        _check_space(p, ambient_dim)
        mat = np.array(rows, dtype=np.int64)
        if mat.size == 0:  # reshape(-1, 0) is ambiguous for numpy
            mat = mat.reshape(0, ambient_dim)
        else:
            mat = mat.reshape(-1, ambient_dim)
        red = rref(FpMatrix(p, mat))
        return cls(p, ambient_dim, FpMatrix._wrap(p, red.matrix.a[: red.rank]), red.pivots)

    @classmethod
    def zero(cls, p: int, ambient_dim: int) -> "Subspace":
        """{0}: its canonical basis has no rows."""
        _check_space(p, ambient_dim)
        return cls(p, ambient_dim, FpMatrix._wrap(p, np.zeros((0, ambient_dim), dtype=np.int64)), ())

    @classmethod
    def full(cls, p: int, ambient_dim: int) -> "Subspace":
        """F_p^n: its canonical basis is the identity."""
        return cls(p, ambient_dim, FpMatrix.identity(p, ambient_dim), np.arange(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def _check_compatible(self, other: "Subspace"):
        if self.p != other.p or self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("subspaces live in different ambient spaces")

    def contains_vector(self, v) -> bool:
        vec = as_vector(self.p, v)
        if vec.shape[0] != self.ambient_dim:
            raise DimensionMismatch("vector length does not match ambient dimension")
        return self.spans(vec[None, :])

    def coordinates(self, v) -> np.ndarray:
        """Coefficients of v against the canonical basis (v must be a member)."""
        vec = as_vector(self.p, v)
        if not self.contains_vector(vec):
            raise DimensionMismatch("vector is not in the subspace")
        return vec[self.pivots]

    def contains(self, other: "Subspace") -> bool:
        """Whether other is contained in self (a pivot read-off, see spans)."""
        self._check_compatible(other)
        return self.spans(other.basis.a)

    def spans(self, vecs: np.ndarray) -> bool:
        """Whether every row of vecs lies in self, with no elimination: o
        lies in the span of the canonical basis B with pivot columns piv
        iff o - o[piv]*B = 0, since o[piv]*B is the only member of the
        span that agrees with o on the pivot columns.  vecs is reduced
        mod p first, so any int64 entries are read exactly."""
        vecs = np.asarray(vecs, dtype=np.int64) % self.p
        return np.array_equal(vecs, _mul(vecs[:, self.pivots], self.basis.a, self.p))

    def sum(self, other: "Subspace") -> "Subspace":
        """self + other: the canonical RREF of both bases stacked, which may
        have up to twice the cap in rows."""
        self._check_compatible(other)
        _check_space(self.p, self.ambient_dim)
        red = rref(FpMatrix._wrap(self.p, np.vstack([self.basis.a, other.basis.a])))
        return Subspace(
            self.p, self.ambient_dim, FpMatrix._wrap(self.p, red.matrix.a[: red.rank]), red.pivots
        )

    def constraints(self) -> FpMatrix:
        """Matrix C with self = {v : C @ v = 0} (rows span the annihilator)."""
        ker = kernel(self.basis) if self.dim else Subspace.full(self.p, self.ambient_dim)
        return ker.basis

    def intersect(self, other: "Subspace") -> "Subspace":
        """self ∩ other: self cut by the constraints of other."""
        self._check_compatible(other)
        return self.cut(other.constraints().a)

    def cut(self, rows: np.ndarray) -> "Subspace":
        """{v in self : rows @ v = 0}, solved in self's coordinates; rows
        is reduced mod p first, so any int64 entries are read exactly.

        c*B (B the basis of self) satisfies the rows iff rows*B^T*c = 0,
        so the result is K*B for K the canonical basis of
        kernel(rows*B^T).  A product of RREF matrices is RREF: row i of
        K*B leads at B's pivot piv[pivK[i]] and vanishes at the other
        pivots of B, so K*B is canonical as it stands, with pivots
        piv[pivK].  No matrix formed exceeds max(#rows, n) on a side.
        """
        rows = np.asarray(rows, dtype=np.int64) % self.p
        if rows.ndim != 2 or rows.shape[1] != self.ambient_dim:
            raise DimensionMismatch("rows do not act on the ambient space")
        p, b = self.p, self.basis.a
        coeffs = kernel(FpMatrix._wrap(p, rows @ b.T % p))
        return Subspace(
            p, self.ambient_dim, FpMatrix._wrap(p, coeffs.basis.a @ b % p), self.pivots[coeffs.pivots]
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.p == other.p
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.p, self.ambient_dim, self.basis))

    def row_strings(self) -> list[str]:
        return self.basis.row_strings()

    def __repr__(self) -> str:
        return f"Subspace(p={self.p}, ambient={self.ambient_dim}, dim={self.dim})"


def map_image(m: FpMatrix, u: Subspace) -> Subspace:
    """Image {m @ v : v in u}."""
    if m.p != u.p or m.cols != u.ambient_dim:
        raise DimensionMismatch("map and subspace are incompatible")
    rows = (u.basis.a @ m.a.T) % m.p
    return Subspace.from_rows(m.p, m.rows, rows)


def map_preimage(m: FpMatrix, u: Subspace) -> Subspace:
    """Preimage {v : m @ v in u}."""
    if m.p != u.p or m.rows != u.ambient_dim:
        raise DimensionMismatch("map and subspace are incompatible")
    c = u.constraints()
    if c.rows == 0:
        return Subspace.full(m.p, m.cols)
    return kernel(c @ m)


def inverse(m: FpMatrix) -> FpMatrix:
    """Exact inverse of a square matrix, via rref of [m | I]."""
    if m.rows != m.cols:
        raise DimensionMismatch("only square matrices can be inverted")
    n = m.rows
    red = rref(FpMatrix._wrap(m.p, np.hstack([m.a, np.eye(n, dtype=np.int64)])))
    if red.rank != n or red.pivots != tuple(range(n)):
        raise DimensionMismatch("matrix is singular")
    return FpMatrix._wrap(m.p, red.matrix.a[:, n:])


class QuotientSpace:
    """Quotient ambient/modded with an explicit transversal of coset reps.

    A member v of the ambient has coordinates a = v[piv] against the
    ambient's canonical basis B, and the modded subspace is the row span
    of C = modded.basis[:, piv].  The one elimination is linalg.kernel's:
    the RREF of C with its columns reversed, off which K, the canonical
    basis of ker C, is read; K's pivots T are the positions that are not
    pivots of that RREF.

      * Transversal: ker C meets span(e_i, ..) in more than span(e_i+1, ..),
        i.e. K leads at i, iff e_i is not in span(C) + span(e_0 .. e_i-1)
        (take annihilators).  So coset_basis = B[T] is what a greedy scan
        of B keeps: each row whose class is independent of the modded
        subspace and of the rows kept before it.
      * Coordinates: K vanishes on span(C) and K[:, T] = I, so
        a = c*I[T] + d*C gives a @ K^T = c, with nothing eliminated.
      * Induced maps: a map keeping the ambient sends B to x*B, x its
        images' columns piv, so a in ambient coordinates goes to a*x.  The
        modded, span(C) = ker(K^T) there, is kept iff C*x*K^T = 0, and
        coset row j goes to class x[T_j] @ K^T: one spans, two products.
    """

    __slots__ = ("p", "ambient", "modded", "coset_basis", "_coords")

    def __init__(self, ambient: Subspace, modded: Subspace):
        ambient._check_compatible(modded)
        if not ambient.contains(modded):
            raise InvalidQuotient("modded subspace is not contained in the ambient")
        p = ambient.p
        coords = kernel(FpMatrix._wrap(p, modded.basis.a[:, ambient.pivots]))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "modded", modded)
        object.__setattr__(self, "coset_basis", FpMatrix._wrap(p, ambient.basis.a[coords.pivots]))
        object.__setattr__(self, "_coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("QuotientSpace is immutable")

    @property
    def dim(self) -> int:
        return self.coset_basis.rows

    def project(self, v) -> np.ndarray:
        """Quotient coordinates of the class of v, or of each row of a 2-D
        v (every vector must be in the ambient)."""
        vecs = np.asarray(v, dtype=np.int64) % self.p
        if vecs.ndim not in (1, 2) or vecs.shape[-1] != self.ambient.ambient_dim:
            raise DimensionMismatch("vectors do not live in the ambient space")
        if not self.ambient.spans(np.atleast_2d(vecs)):
            raise DimensionMismatch("vector is not in the ambient subspace")
        return vecs[..., self.ambient.pivots] @ self._coords.basis.a.T % self.p

    def lift(self, coords) -> np.ndarray:
        """Canonical representative of the class with the given coordinates."""
        c = as_vector(self.p, coords)
        if c.shape[0] != self.dim:
            raise DimensionMismatch(f"expected {self.dim} quotient coordinates")
        return c @ self.coset_basis.a % self.p

    def induced(self, m: FpMatrix) -> FpMatrix:
        """Matrix of the map induced by m on the quotient: column j is the
        class of m applied to coset representative j."""
        n = self.ambient.ambient_dim
        if m.p != self.p or m.shape != (n, n):
            raise DimensionMismatch("map does not act on the ambient space")
        return self.induced_from_images(_mul(self.ambient.basis.a, m.a.T, self.p))

    def induced_from_images(self, images) -> FpMatrix:
        """Matrix of the map induced on the quotient by the map that sends
        row i of the ambient's canonical basis to row i of images; raises
        InvalidQuotient unless it keeps the ambient and the modded."""
        p, piv, k = self.p, self.ambient.pivots, self._coords
        images = np.asarray(images, dtype=np.int64) % p
        if not self.ambient.spans(images):
            raise InvalidQuotient("map does not preserve the ambient subspace")
        y = _mul(images[:, piv], k.basis.a.T, p)  # x @ K^T
        if _mul(self.modded.basis.a[:, piv], y, p).any():
            raise InvalidQuotient("map does not preserve the modded subspace")
        return FpMatrix._wrap(p, y[k.pivots].T)


def quotient(ambient: Subspace, modded: Subspace) -> QuotientSpace:
    """Build the quotient space ambient/modded."""
    return QuotientSpace(ambient, modded)
