"""Maximal invariant subspaces and certified fixed points on finite windows.

The pipeline realized here, all in exact window coordinates:

  1. Close the constraint rows of the lattice image (the unit rows of
     the exponents below 0) under right multiplication by the visible
     generators, in one spin-up that lives for the whole chain and takes
     each generator as its taps on the window: depth 0 adds
     g_0 .. g_{T-1}, depth ell adds only g_{-ell}, and M̂_ell is the
     kernel of the closed row space after depth ell, the largest
     subspace of the lattice image that every generator up to that
     depth maps onto itself.  The closed rows are kept in canonical
     RREF over reversed columns, which is exactly what the one
     elimination of linalg.kernel produces, so each member is read off
     them with no elimination, and the chain's checks are read-offs and
     products on the members and those rows.  A member is read off only
     at a depth where the closed rows grew; at any other depth it is the
     member before it.  The closure never stacks more rows than the
     window dimension.  The members form a descending chain whose
     intersection m_hat is stable under multiplication by t once l_max
     reaches the depth where the chain stabilizes.
  2. Intersect the window fixed space with m_hat, pick a deterministic
     nonzero witness (preferring one outside t*m_hat), and re-verify it
     from scratch by applying the action to the lifted series vector.
  3. Package the shifted copies t^-n * m_hat as a nested chain of
     subspaces in a quotient, ready for the representation-theoretic
     growth probe (replab.dichotomy_probe).  Each copy, like t * m_hat
     in step 2, is read off m_hat's canonical basis (_shifted): only the
     rows whose pivot leaves the window are eliminated.  One loop over
     the visible generators takes each as its taps on the window, as
     step 1 does: N_k v is read off the taps for every basis row v, the
     quotient checks are one Subspace.spans per basis, and the induced
     matrix is I plus the projection of N_k on the coset basis.

Window arithmetic convention: a vector of window coordinates stands for
the canonical representative supported on exponents [lo, hi).  Reads
outside the window see zero; writes at or above t^hi vanish; writes
below the floor are either hard errors (single-generator matrices) or
exact linear conditions (fixed-space computation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .action import Action, fixed_condition_rows
from .errors import (
    ChainInvariantViolation,
    DimensionMismatch,
    EmptyFixedSpace,
    LimitExceeded,
    LMaxTooSmall,
    SingularGenerator,
    WindowTooNarrow,
)
from .laurent import (
    LatticeWindow,
    SeriesVector,
    coords_to_vector,
    format_series,
)
from .linalg import (
    FpMatrix,
    QuotientSpace,
    Subspace,
    kernel_from_reversed_rref,
    quotient,
    rref,
)
from .replab import FiniteRep
from .taps import window_taps


def window_b_image(w: LatticeWindow, floor: int = 0) -> Subspace:
    """Coordinate image of t^floor times the lattice (exponents >= floor) inside the window.

    Its basis is a set of identity rows; sorted, they are the canonical
    RREF as they stand.
    """
    idx = sorted(
        w.index(c, e) for c in range(1, w.d + 1) for e in range(max(w.lo, floor), w.hi)
    )
    return Subspace(w.p, w.dim, FpMatrix._wrap(w.p, np.eye(w.dim, dtype=np.int64)[idx]), idx)


def _shift(rows: np.ndarray, src: LatticeWindow, dst: LatticeWindow, n: int) -> np.ndarray:
    """Rows of src coordinates times t^n, in dst coordinates: each
    component's coefficients move up n exponents, and those landing
    outside [dst.lo, dst.hi) are dropped."""
    lo, hi = max(src.lo, dst.lo - n), min(src.hi, dst.hi - n)
    out = np.zeros((rows.shape[0], dst.d, dst.width), dtype=np.int64)
    if lo < hi:
        blocks = rows.reshape(rows.shape[0], src.d, src.width)
        out[:, :, lo + n - dst.lo : hi + n - dst.lo] = blocks[:, :, lo - src.lo : hi - src.lo]
    return out.reshape(rows.shape[0], dst.dim)


def _shifted(space: Subspace, src: LatticeWindow, dst: LatticeWindow, n: int) -> Subspace:
    """t^n * space in dst coordinates, read off the canonical basis of
    space (src coordinates).

    The shift maps the columns it keeps in order, so a row whose pivot
    survives still leads there with a 1, and every row, its own pivot
    dropped or not, is still zero at each other surviving pivot.  Only
    the rows whose pivot leaves the window are eliminated, among
    themselves; their RREF rows are zero at the surviving pivots and are
    merged with the others by pivot (_merge).
    """
    p = space.p
    rows = _shift(space.basis.a, src, dst, n)
    comp, exp = np.divmod(space.pivots, src.width)
    exp = exp + src.lo + n
    kept = (dst.lo <= exp) & (exp < dst.hi)
    pivots = comp[kept] * dst.width + exp[kept] - dst.lo
    if not kept.all():
        red = rref(FpMatrix._wrap(p, rows[~kept]))
        rows, pivots = _merge(p, rows[kept], pivots, red.matrix.a[: red.rank], red.pivots)
    return Subspace(p, dst.dim, FpMatrix._wrap(p, rows), pivots)


def monomial_transfer(src: LatticeWindow, dst: LatticeWindow, n: int) -> FpMatrix:
    """Matrix of multiplication by t^n from src coordinates to dst coordinates.

    Exponent e goes to e + n; targets outside [dst.lo, dst.hi) are
    dropped, so this is a projection unless every shifted exponent
    lands inside dst.  It is the shift of the identity's rows.
    """
    if src.p != dst.p or src.d != dst.d:
        raise DimensionMismatch("windows are incompatible")
    return FpMatrix(src.p, _shift(np.eye(src.dim, dtype=np.int64), src, dst, n).T)


def shift_matrix(w: LatticeWindow) -> FpMatrix:
    """Multiplication by t on window coordinates (top coefficient truncated)."""
    return monomial_transfer(w, w, 1)


class _SpinUp:
    """Smallest row space R containing every row added, with R*g ⊆ R for
    every generator added.

    R is kept as the canonical RREF rows of R*P, P the permutation that
    reverses the columns, with their pivot columns: rows and generators
    enter as r*P and P*g*P (entry (i, j) of g moves to (n-1-i, n-1-j)),
    and R*g ⊆ R iff (R*P)(P*g*P) ⊆ R*P, so the closure below runs
    unchanged in reversed coordinates.  The RREF of R*P is what
    linalg.kernel eliminates R to, so kernel() is the canonical basis of
    ker R read off with no elimination.  A row space that starts as unit
    rows is already canonical (sorted by pivot) and is set directly.  R
    is replaced on every merge, never written in place, and a merge
    happens only when some row is new, so a reference to `rows` is a
    snapshot and `rows is old` holds exactly when R has not grown since
    `old` was taken: m_ell_chain relies on this to skip the depths that
    add nothing.

    The closure is semi-naive: a generator entering multiplies the rows
    already in R once, and each block of rows entering R is multiplied
    once by every generator added so far, so no product is formed twice
    and each generator is validated once, when it enters.  Images are
    reduced against R before they are merged, so the merged rows are
    independent of R and no matrix formed here exceeds n = w.dim rows.

    A generator enters as its taps, the nonzero entries of N in g = I + N
    (taps.window_taps; add_generator reads them off a dense matrix), and
    is kept as the block of N on the rows and the columns C where N is
    nonzero.  A generator with no taps on the window is the identity and
    is not kept.

      * Invertibility is checked on g[C, C].  Order C first: the columns
        outside C are identity columns, so g is block lower triangular
        with diagonal blocks g[C, C] and I, and det g = det g[C, C].
        When no tap writes into a row of C, g[C, C] = I and nothing is
        eliminated; otherwise g[C, C] is, and when every column differs
        from I this is the full elimination.
      * Every block being closed already lies in R, and row*g = row +
        row*N, so R + span(block*g) = R + span(delta) with delta =
        block*N, which is supported on C.  Only delta is reduced against
        R, and reducing it touches only the rows of R whose pivot
        columns it hits.  delta is formed on C first and its zero rows,
        which add nothing, are dropped before it is widened to the
        window; a generator whose delta is zero is skipped.
      * The residue is zero on R's pivot columns, so its RREF rows are
        merged by clearing their pivot columns from R and sorting all
        rows by pivot: the result is canonical RREF again, with no
        elimination of R.
    """

    def __init__(self, w: LatticeWindow, units=()):
        """Start R as the span of the unit rows e_i, i in units."""
        self.w = w
        self.pivots = np.sort(w.dim - 1 - np.asarray(units, dtype=np.int64))
        self.rows = np.eye(w.dim, dtype=np.int64)[self.pivots]
        self.gens: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def add_generator(self, m: FpMatrix) -> None:
        """Add the generator m, a dense window matrix."""
        n, p = self.w.dim, self.w.p
        if m.p != p or m.shape != (n, n):
            raise DimensionMismatch("generator does not act on the window")
        taps = (m.a - np.eye(n, dtype=np.int64)) % p
        r, c = np.nonzero(taps)
        self.add_taps(dict(zip(zip(r.tolist(), c.tolist()), taps[r, c].tolist())))

    def add_taps(self, entries: dict[tuple[int, int], int]) -> None:
        """Add the generator I + N, N given by its nonzero entries
        {(row, col): coeff} in window coordinates."""
        if not entries:
            return
        last, p = self.w.dim - 1, self.w.p
        rows = sorted({last - r for r, _ in entries})
        cols = sorted({last - c for _, c in entries})
        at_row = {r: i for i, r in enumerate(rows)}
        at_col = {c: i for i, c in enumerate(cols)}
        taps = np.zeros((len(rows), len(cols)), dtype=np.int64)
        for (r, c), coeff in entries.items():
            taps[at_row[last - r], at_col[last - c]] = coeff
        written = [r for r in rows if r in at_col]  # the rows of C a tap writes into
        if written:
            square = np.eye(len(cols), dtype=np.int64)  # g[C, C] = I + N[C, C]
            square[[at_col[r] for r in written]] += taps[[at_row[r] for r in written]]
            if rref(FpMatrix._wrap(p, square % p)).rank != len(cols):
                raise SingularGenerator("generator is singular on the window")
        gen = (np.array(rows), np.array(cols), taps)
        self.gens.append(gen)
        self._close(self.rows, [gen])

    def add_rows(self, rows: np.ndarray) -> None:
        self._close(self._absorb(rows[:, ::-1]), self.gens)

    def kernel(self) -> Subspace:
        return kernel_from_reversed_rref(self.w.p, self.rows, self.pivots)

    def _close(self, block: np.ndarray, gens) -> None:
        n, p = self.w.dim, self.w.p
        work = [(block, gens)]
        while work:
            block, gens = work.pop()
            for rows, cols, taps in gens:
                images = block[:, rows] @ taps % p
                images = images[images.any(axis=1)]
                if not images.shape[0]:
                    continue
                delta = np.zeros((images.shape[0], n), dtype=np.int64)
                delta[:, cols] = images
                new = self._absorb(delta)
                if new.shape[0]:
                    work.append((new, self.gens))

    def _absorb(self, vecs: np.ndarray) -> np.ndarray:
        """Merge the span of vecs into R; return the RREF rows it added."""
        p = self.w.p
        # R is fully reduced: one product with the rows of R whose pivots
        # vecs hits clears every pivot column of R.
        hit = np.flatnonzero(vecs[:, self.pivots].any(axis=0))
        if hit.size:
            vecs = (vecs - vecs[:, self.pivots[hit]] @ self.rows[hit]) % p
        vecs = vecs[vecs.any(axis=1)]
        if not vecs.shape[0]:
            return vecs
        red = rref(FpMatrix._wrap(p, vecs))
        new = red.matrix.a[: red.rank]
        self.rows, self.pivots = _merge(p, self.rows, self.pivots, new, red.pivots)
        return new


def _merge(p: int, rows: np.ndarray, pivots: np.ndarray, new: np.ndarray, new_pivots):
    """Canonical RREF rows and pivots of span(rows) + span(new), where both
    are RREF and new is zero on the pivot columns of rows: clear new's
    pivot columns from rows with one product and sort all rows by pivot."""
    new_pivots = np.array(new_pivots, dtype=np.int64)
    merged = np.vstack([rows, new])
    hit = np.flatnonzero(rows[:, new_pivots].any(axis=1))
    if hit.size:
        merged[hit] = (rows[hit] - rows[np.ix_(hit, new_pivots)] @ new) % p
    pivots = np.concatenate([pivots, new_pivots])
    order = np.argsort(pivots)
    return merged[order], pivots[order]


def max_invariant_subspace(gens, ambient: LatticeWindow, b_image: Subspace) -> Subspace:
    """Largest subspace N of b_image with g*N = N for every generator.

    Spin-up: R is the smallest row space containing the constraint rows
    C of b_image with R*g ⊆ R for every generator, and N is the kernel
    of R.  Then g*N ⊆ N, hence g*N = N since g is invertible, and N lies
    inside b_image.  Any N' ⊆ b_image with g*N' = N' for all g has
    C*h*N' = 0 for every word h in the generators, so N' ⊆ N.  The
    result is therefore correct for any invertible generators and
    independent of their order.
    """
    spin = _SpinUp(ambient)
    for m in gens:
        spin.add_generator(m)
    if b_image.p != ambient.p or b_image.ambient_dim != ambient.dim:
        raise DimensionMismatch("b_image does not live on the window")
    spin.add_rows(b_image.constraints().a)
    return spin.kernel()


@dataclass(frozen=True)
class InvariantChain:
    """Descending invariant subspaces M̂_0 ⊇ M̂_1 ⊇ ... and their intersection.

    All members live in window coordinates.  Construction-time checks
    guarantee: each member sits inside the lattice image, each meets
    the shell (it is not contained in the exponent >= 1 part), the
    chain is nested, and t * m_hat ⊆ m_hat.  Consecutive equal members
    are one object, and l_stable is the depth of the last distinct one.
    """

    action: Action
    window: LatticeWindow
    subspaces: tuple[Subspace, ...]
    m_hat: Subspace
    l_stable: int

    @property
    def l_max(self) -> int:
        return len(self.subspaces) - 1

    def dims(self) -> list[int]:
        return [s.dim for s in self.subspaces]

    def to_dict(self) -> dict:
        return {
            "window": {"lo": self.window.lo, "hi": self.window.hi},
            "dims": self.dims(),
            "m_hat_dim": self.m_hat.dim,
            "m_hat_basis": self.m_hat.row_strings(),
            "l_stable": self.l_stable,
        }


def m_ell_chain(a: Action, l_max: int, w: LatticeWindow) -> InvariantChain:
    """Compute M̂_ell for ell = 0..l_max and certify the chain structure.

    One spin-up serves every depth (see max_invariant_subspace for why
    its kernel is M̂_ell), so each generator is checked and applied once.
    Generators enter as their taps on the window (taps.window_taps): no
    dense window matrix is built.  A member is read off R and checked
    only at a depth where R grew, which _SpinUp shows by replacing
    `rows`; at any other depth the member is the previous one, appended
    as it is.  Growth raises the rank of R, so the member strictly
    shrinks there, and l_stable, the first depth from which the members
    are all equal, is the last depth where R grew.

    Raises WindowTooNarrow up front for a window without exponent 0 (the
    shell every member must meet), and LMaxTooSmall when t * m_hat
    escapes m_hat, i.e. l_max is below the depth where the chain
    stabilizes.  Raises ChainInvariantViolation if a member leaves the
    lattice image or misses the shell, the chain fails to nest, or the
    intersection is not the deepest member — for certified actions these
    hold, so a failure signals a bug.  Every check is a read-off or a
    product on the members and R, so the chain eliminates only inside
    its spin-up: the two coordinate checks read the members' columns of
    the exponents below 0 and at 0, nesting is Subspace.contains, and the
    intersection is certified by _is_intersection against R at each depth
    where it grew.
    """
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    if w.lo > 0 or w.hi <= 0:
        raise WindowTooNarrow(
            f"window [{w.lo},{w.hi}) leaves out exponent 0, where every member meets the shell"
        )
    if w.p != a.p or w.d != a.d:
        raise DimensionMismatch("window and action are incompatible")
    # g_k for k >= top acts as the identity on the window.  The trivial
    # action sees no generator: its visible range is empty and stops at
    # -l_max, which leaves every depth's range below empty.
    top = a.modulus.visible(-l_max, w.hi).stop
    # The lattice image and t times it are the coordinate subspaces of the
    # exponents >= 0 and >= 1, so membership is a read-off of the columns
    # of the exponents below 0 and at 0.
    below = [w.index(c, e) for c in range(1, w.d + 1) for e in range(w.lo, 0)]
    shell = [w.index(c, 0) for c in range(1, w.d + 1)]
    # The constraint rows of the lattice image: the unit rows of `below`.
    spin = _SpinUp(w, below)
    subs: list[Subspace] = []
    cuts: list[np.ndarray] = []  # R at each depth where it grew, in window coordinates
    read = None  # R at the last read-off
    for ell in range(l_max + 1):
        # The generators up to depth ell are g_{-ell} .. g_{top-1}: depth 0
        # adds g_0 .. g_{top-1} and depth ell only g_{-ell}, so each is
        # built once, and a window too narrow for g_{-ell} fails at depth
        # ell with the message taps.window_taps gives.
        for k in range(0, top) if ell == 0 else range(-ell, min(top, 1 - ell)):
            spin.add_taps(window_taps(a.seed.conjugate(k), w))
        if spin.rows is read:  # R did not grow, so the member is the previous one
            subs.append(subs[-1])
            continue
        read, l_stable = spin.rows, ell
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
        cuts.append(read[:, ::-1])
    m_hat = subs[-1]
    if not _is_intersection(m_hat, cuts):
        raise ChainInvariantViolation("intersection disagrees with the deepest member")
    if not _t_stable(m_hat, w):
        raise LMaxTooSmall(
            f"t * m_hat is not contained in m_hat: the chain has not stabilized by l_max = {l_max}"
        )
    return InvariantChain(a, w, tuple(subs), m_hat, l_stable)


def _is_intersection(k: Subspace, cuts: list[np.ndarray]) -> bool:
    """Whether k is the intersection of the kernels of the row blocks in
    cuts, each spanned by the last, whose rows are independent (R at each
    depth of a spin-up where it grew; a depth where it did not would add
    the same block again): with products and a dimension, no
    elimination.  R*k^T = 0 for every block puts k inside each kernel,
    hence inside their intersection, ker cuts[-1]; k has that kernel's
    dimension exactly when it is all of it."""
    a = k.basis.a
    return k.dim == k.ambient_dim - cuts[-1].shape[0] and not any(
        (rows @ a.T % k.p).any() for rows in cuts
    )


def _t_stable(m_hat: Subspace, w: LatticeWindow) -> bool:
    """Whether t * m_hat ⊆ m_hat: a pivot read-off of the raw images of
    m_hat's basis, with no canonical basis of t * m_hat built."""
    return m_hat.spans(_shift(m_hat.basis.a, w, w, 1))


def fixed_vectors(a: Action, w: LatticeWindow, m_hat: Subspace | None = None) -> Subspace:
    """Window fixed space F of the action, or F ∩ m_hat given m_hat.

    F is cut out by exact linear conditions: for every generator and
    every tap write that lands below t^hi — including below the window
    floor — the written coefficient (a sum of in-window reads) must
    vanish.  F is the full window space cut by those conditions
    (Subspace.cut), and F ∩ m_hat is m_hat cut by them, solved in m_hat's
    coordinates without F.
    """
    rows = fixed_condition_rows(a, w)
    rows = np.array(rows, dtype=np.int64).reshape(len(rows), w.dim)
    return (Subspace.full(w.p, w.dim) if m_hat is None else m_hat).cut(rows)


def _coord_valuation(row: np.ndarray, w: LatticeWindow) -> int:
    """Lowest exponent carrying a nonzero coordinate (any component)."""
    exps = [w.lo + (i % w.width) for i in np.nonzero(row)[0]]
    return min(exps)


def _retry_suggestion(w: LatticeWindow, tail: str = "", top: int = 0) -> str | None:
    """Suggest the widened window, widened again until its top is at least
    `top`, or nothing when that is beyond the dimension cap (the CLI then
    suggests a join with the policy window)."""
    try:
        wider = widen_window(w)
        while wider.hi < top:
            wider = widen_window(wider)
    except LimitExceeded:
        return None
    return f"retry with window [{wider.lo},{wider.hi}){tail}"


@dataclass(frozen=True)
class FixedPointCertificate:
    """A nonzero witness with exact re-verification data.

    checked_generators lists (k, residual_zero) for every monomial
    exponent k whose generator can move the witness below the stated
    precision; in_m_hat / outside_t_m_hat record where the witness sits
    relative to the invariant subspace chain.
    """

    witness: SeriesVector
    precision: int
    checked_generators: tuple[tuple[int, bool], ...]
    in_m_hat: bool
    outside_t_m_hat: bool
    window: LatticeWindow

    @property
    def ok(self) -> bool:
        return (not self.witness.is_zero) and all(z for _, z in self.checked_generators)

    def to_dict(self) -> dict:
        return {
            "witness": [format_series(self.witness.component(i)) for i in range(1, self.witness.d + 1)],
            "precision": self.precision,
            "checked_generators": [[k, z] for k, z in self.checked_generators],
            "in_m_hat": self.in_m_hat,
            "outside_t_m_hat": self.outside_t_m_hat,
            "window": {"lo": self.window.lo, "hi": self.window.hi},
            "ok": self.ok,
        }


def extract_witness(a: Action, chain: InvariantChain, precision: int | None = None) -> FixedPointCertificate:
    """Pick and certify a nonzero fixed vector inside m_hat.

    Selection is deterministic: among canonical basis vectors of
    F ∩ m_hat, prefer those outside t*m_hat, then take the one of
    minimal valuation, breaking ties by lexicographically least
    coordinates.  Verification never reuses the matrices that produced
    F: each check applies a visible g_k (SeedAutomorphism.apply) to the
    lifted series afresh.  A precision below 1 is a ValueError.
    """
    if precision is not None and precision < 1:
        raise ValueError("precision must be >= 1")
    w = chain.window
    n = precision if precision is not None else w.hi - a.drop
    if n < 1 or n > w.hi:
        # The default precision hi - drop is at least 1 from a top of 1 + drop.
        raise WindowTooNarrow(
            f"precision {n} not representable on window [{w.lo},{w.hi})",
            suggestion=_retry_suggestion(w, top=n if precision is not None else 1 + a.drop),
        )
    meet = fixed_vectors(a, w, chain.m_hat)
    if meet.dim == 0:
        raise EmptyFixedSpace(
            f"no nonzero fixed vectors inside m_hat on window [{w.lo},{w.hi})",
            suggestion=_retry_suggestion(w, " or larger l_max"),
        )
    t_m_hat = _shifted(chain.m_hat, w, w, 1)
    rows = meet.basis.a
    # Row i lies in t*m_hat iff it equals its combination of t*m_hat's
    # canonical basis read off at the pivots (Subspace.spans, per row).
    outside = ((rows - rows[:, t_m_hat.pivots] @ t_m_hat.basis.a) % w.p).any(axis=1)
    pool = np.flatnonzero(outside) if outside.any() else range(len(rows))
    i = min(pool, key=lambda i: (_coord_valuation(rows[i], w), tuple(rows[i].tolist())))
    pick = rows[i]
    lifted = coords_to_vector(pick, w)
    witness = lifted.truncate(n)
    if witness.is_zero:
        raise EmptyFixedSpace(
            f"every fixed vector found vanishes mod t^{n}",
            suggestion=_retry_suggestion(w),
        )
    checks = tuple(
        (k, a.seed_auto.apply(lifted, k, n) == witness)
        for k in a.modulus.visible(-a.max_in_exp, n)
    )
    return FixedPointCertificate(
        witness=witness,
        precision=n,
        checked_generators=checks,
        in_m_hat=chain.m_hat.contains_vector(pick),
        outside_t_m_hat=bool(outside[i]),
        window=w,
    )


@dataclass(frozen=True)
class LemmaChain:
    """Nested invariant subspaces V_n inside one quotient representation.

    `rep` acts on the quotient of the deepest shifted copy of m_hat by
    m_hat itself; `nested` holds the images of the shallower copies,
    strictly increasing.  Feed both to replab.dichotomy_probe.
    """

    rep: FiniteRep
    nested: tuple[Subspace, ...]
    space: QuotientSpace
    window: LatticeWindow
    n_max: int

    def to_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "window": {"lo": self.window.lo, "hi": self.window.hi},
            "quotient_dim": self.space.dim,
            "generator_count": self.rep.r,
            "nested_dims": [s.dim for s in self.nested],
        }


def lemma_chain_from_action(a: Action, chain: InvariantChain, n_max: int) -> LemmaChain:
    """Build V_n = (t^-n * m_hat) / m_hat for n = 1..n_max with its action.

    The copies are compared on a sub-window cut below the top so that
    every t^-n shift of m_hat is represented faithfully; the acting
    generators are the finitely many that move something there.

    Each copy is read off m_hat's canonical basis (_shifted), and the
    nesting of the copies is Subspace.contains.  The steps of
    QuotientSpace.induced run in one loop over the visible g_k = I + N_k,
    each taken as its taps on the sub-window (taps.window_taps, all
    collected before any check, so a sub-window too narrow for some g_k
    raises WindowTooNarrow first): N_k v for the basis rows v of the
    ambient, then of the modded, is one Subspace.spans each, and the
    induced matrix is I plus the projection of N_k on the coset basis,
    kept when that projection is nonzero.  The first generator that
    fails a check, the ambient's before the modded's, raises
    ChainInvariantViolation naming its t^k; it raises LMaxTooSmall
    instead when l_max is below the seed's read-ahead max_in_exp, since
    m_hat is closed only under the g_j with j >= -l_max and the g_k with
    k >= -max_in_exp can read it.  What is eliminated: the rows of each
    copy whose pivot leaves the sub-window, the quotient, and each nested
    image.  No dense window matrix is built.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    w = chain.window
    h_cut = w.hi - n_max
    if h_cut < 1:
        raise WindowTooNarrow(
            f"window top {w.hi} cannot host {n_max} downward shifts and the base copy"
        )
    if w.lo > -n_max - a.max_in_exp:
        raise WindowTooNarrow(
            f"window floor {w.lo} too high for t^-{n_max} shifts (need <= {-n_max - a.max_in_exp})"
        )
    wp = LatticeWindow(w.lo, h_cut, a.d, a.p)
    copies = [_shifted(chain.m_hat, w, wp, -n) for n in range(n_max + 1)]
    for n in range(n_max):
        if not copies[n + 1].contains(copies[n]):
            raise ChainInvariantViolation(f"t^-{n} copy is not inside the t^-{n + 1} copy")
    q = quotient(copies[n_max], copies[0])
    p = a.p

    def moved(taps: dict, basis: np.ndarray) -> np.ndarray:
        """N*v for each row v of basis, not reduced mod p: each tap adds coeff * v[col] at row."""
        out = np.zeros_like(basis)
        for (row, col), coeff in taps.items():
            out[:, row] += coeff * basis[:, col]
        return out

    # Every g_k's taps before any check, so a sub-window too narrow for
    # one of them raises first.
    gens = [(k, window_taps(a.seed.conjugate(k), wp))
            for k in a.modulus.visible(-max(0, n_max + a.max_in_exp), wp.hi)]
    mats = []
    for k, taps in gens:
        # g_k v = v + N_k v with v in the space: g_k keeps it iff each N_k v lies in it.
        for name, space in (("ambient", q.ambient), ("modded", q.modded)):
            if not space.spans(moved(taps, space.basis.a)):
                if chain.l_max < a.max_in_exp:
                    raise LMaxTooSmall(
                        f"generator at t^{k} does not preserve the shifted chain: m_hat is "
                        f"closed only under the g_j with j >= -l_max, and l_max {chain.l_max} "
                        f"is below the seed's read-ahead {a.max_in_exp}"
                    )
                raise ChainInvariantViolation(
                    f"generator at t^{k} does not preserve the shifted chain: map does not "
                    f"preserve the {name} subspace"
                )
        shift = q.project(moved(taps, q.coset_basis.a))  # g_k induces I + shift
        if shift.any():
            mats.append(FpMatrix._wrap(p, (np.eye(q.dim, dtype=np.int64) + shift.T) % p))
    rep = FiniteRep(p, q.dim, mats)
    nested = tuple(
        Subspace.from_rows(p, q.dim, q.project(copies[n].basis.a)) for n in range(1, n_max + 1)
    )
    return LemmaChain(rep, nested, q, wp, n_max)


def default_window(a: Action, precision: int, l_max: int, n_max: int = 0) -> LatticeWindow:
    """Window sizing policy: floor covers the generator depth, top covers
    the requested precision and the n_max downward shifts of the lemma
    chain (which needs a top above n_max), both padded by the seed's drop."""
    if precision < 1:
        raise ValueError("precision must be >= 1")
    depth = max(l_max, n_max + a.max_in_exp if n_max else 0)
    return LatticeWindow(-(depth + a.drop), max(precision, n_max + 1) + a.drop, a.d, a.p)


def widen_window(w: LatticeWindow) -> LatticeWindow:
    """One widening step: double both margins (from at least 1)."""
    return LatticeWindow(-2 * max(-w.lo, 1), 2 * max(w.hi, 1), w.d, w.p)


def _certificate_reads_fit(a: Action, precision: int, w: LatticeWindow) -> bool:
    """Whether extract_witness's certificate at this precision can read
    every tap it needs on w, judged conservatively.

    The certificate applies each g_k visible mod t^precision, k from
    -max_in_exp, to a witness known mod t^hi.  This test asks the seed
    what g_k needs when applied mod t^hi (SeedAutomorphism.needs), which
    is at most hi exactly when every tap of N_k writing below t^hi reads
    below it: tap e fails for the k with hi - e.in_exp <= k < hi -
    e.out_exp.  The certificate applies g_k mod t^precision and needs
    only the writes below that, so it may read its taps on a window this
    test rejects, and is then run on the doubled window all the same.  A
    window sized to the exact need changes outputs and waits for a
    re-record of the goldens.
    """
    return all(a.seed_auto.needs([k], w.hi)[0] <= w.hi
               for k in a.modulus.visible(-a.max_in_exp, precision))


def find_fixed_point(
    a: Action,
    precision: int,
    l_max: int,
    window: LatticeWindow | None = None,
) -> tuple[InvariantChain, FixedPointCertificate]:
    """End-to-end pipeline: chain, fixed space, certified witness.

    An explicitly supplied window is used as given.  Otherwise the window
    is chosen before any elimination: the policy window, doubled once
    (widen_window) when the certificate could not read its taps there.
    The policy window's floor covers every generator depth and its top
    covers the precision, so on it neither the chain nor the witness
    raises WindowTooNarrow, and the certificate's reads are the only
    source of InsufficientPrecision; nothing is retried.  A precision
    below 1 is a ValueError, raised before any elimination.
    """
    if precision < 1:
        raise ValueError("precision must be >= 1")
    w = window
    if w is None:
        w = default_window(a, precision, l_max)
        if not _certificate_reads_fit(a, precision, w):
            w = widen_window(w)
    chain = m_ell_chain(a, l_max, w)
    return chain, extract_witness(a, chain, precision)
