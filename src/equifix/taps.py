"""Finite-support coefficient-tap perturbations and the unipotent maps id + N.

A tap reads one Laurent coefficient of one input component and adds a
multiple of it to one coefficient slot of one output component.  A
finite formal sum of taps is a SparsePerturbation N; the automorphisms
this package acts with are exactly the maps g = id + N whose t-conjugate
family commutes and whose perturbation is nilpotent of order <= p.

Conjugation by t^k shifts every tap's input and output exponents by k;
iterating it produces the generator family g_k = t^k g t^{-k}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InsufficientPrecision,
    NonCommuting,
    NotOrderP,
    WindowTooNarrow,
)
from .laurent import LatticeWindow, LaurentSeries, SeriesVector
from .linalg import FpMatrix, check_prime


@dataclass(frozen=True)
class TapEntry:
    """One rank-one tap: coeff * (read in_comp at t^in_exp) -> out_comp at t^out_exp."""

    in_comp: int
    in_exp: int
    out_comp: int
    out_exp: int
    coeff: int

    def shifted(self, k: int) -> "TapEntry":
        return TapEntry(self.in_comp, self.in_exp + k, self.out_comp, self.out_exp + k, self.coeff)


def _sort_key(e: TapEntry):
    return (e.out_comp, e.out_exp, e.in_comp, e.in_exp)


class SparsePerturbation:
    """A finite sum of taps on F_p((t))^d, stored sorted and deduplicated."""

    __slots__ = ("p", "d", "entries")

    def __init__(self, p: int, d: int, entries):
        check_prime(p)
        if d < 1:
            raise DimensionMismatch("need at least one component")
        merged: dict[tuple[int, int, int, int], int] = {}
        for e in entries:
            for comp in (e.in_comp, e.out_comp):
                if not 1 <= comp <= d:
                    raise DimensionMismatch(f"component {comp} outside 1..{d}")
            key = (e.in_comp, e.in_exp, e.out_comp, e.out_exp)
            merged[key] = (merged.get(key, 0) + e.coeff) % p
        kept = [
            TapEntry(ic, ie, oc, oe, c)
            for (ic, ie, oc, oe), c in merged.items()
            if c
        ]
        kept.sort(key=_sort_key)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "entries", tuple(kept))

    def __setattr__(self, name, value):
        raise AttributeError("SparsePerturbation is immutable")

    @classmethod
    def zero(cls, p: int, d: int) -> "SparsePerturbation":
        return cls(p, d, ())

    @property
    def is_zero(self) -> bool:
        return not self.entries

    @property
    def min_out_exp(self) -> int | None:
        return min((e.out_exp for e in self.entries), default=None)

    @property
    def max_in_exp(self) -> int | None:
        return max((e.in_exp for e in self.entries), default=None)

    @property
    def drop(self) -> int:
        """How far below the lattice floor a single application can write."""
        mo = self.min_out_exp
        return max(0, -mo) if mo is not None else 0

    @property
    def span(self) -> int:
        """Spread of the exponents touched by the entries (0 if empty)."""
        if self.is_zero:
            return 0
        exps = [x for e in self.entries for x in (e.in_exp, e.out_exp)]
        return max(exps) - min(exps)

    def _check_compatible(self, other: "SparsePerturbation"):
        if self.p != other.p or self.d != other.d:
            raise DimensionMismatch("perturbations live on different spaces")

    def conjugate(self, k: int) -> "SparsePerturbation":
        """t^k N t^{-k}: every entry's exponents shift by k.

        The shift keeps the entries sorted, distinct, reduced and nonzero,
        so the result is built without the constructor's merge and sort.
        """
        out = object.__new__(SparsePerturbation)
        object.__setattr__(out, "p", self.p)
        object.__setattr__(out, "d", self.d)
        object.__setattr__(out, "entries", tuple([e.shifted(k) for e in self.entries]))
        return out

    def compose(self, other: "SparsePerturbation") -> "SparsePerturbation":
        """self after other: taps chain when other's output slot feeds self's input."""
        self._check_compatible(other)
        chained = []
        for eb in other.entries:
            for ea in self.entries:
                if ea.in_comp == eb.out_comp and ea.in_exp == eb.out_exp:
                    chained.append(
                        TapEntry(eb.in_comp, eb.in_exp, ea.out_comp, ea.out_exp, ea.coeff * eb.coeff)
                    )
        return SparsePerturbation(self.p, self.d, chained)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePerturbation):
            return NotImplemented
        return self.p == other.p and self.d == other.d and self.entries == other.entries

    def __hash__(self):
        return hash((self.p, self.d, self.entries))

    def __repr__(self) -> str:
        body = ", ".join(
            f"{e.coeff}*[{e.in_comp}@{e.in_exp} -> {e.out_comp}@{e.out_exp}]"
            for e in self.entries
        )
        return f"SparsePerturbation(p={self.p}, d={self.d}, [{body}])"


def compose(a: SparsePerturbation, b: SparsePerturbation) -> SparsePerturbation:
    """Composite a after b as a perturbation (the N-part product)."""
    return a.compose(b)


def _nilpotency_scan(n: SparsePerturbation) -> tuple[bool, int | None, int]:
    """Power N, N^2, ... up to N^p; return (vanished, power, residual support)."""
    power = n
    for i in range(1, n.p + 1):
        if power.is_zero:
            return True, i, 0
        if i == n.p:
            break
        power = power.compose(n)
    return power.is_zero, (n.p if power.is_zero else None), len(power.entries)


def power_check_nilpotent(n: SparsePerturbation) -> bool:
    """Whether N^p = 0, i.e. g = id + N has order dividing p."""
    ok, _, _ = _nilpotency_scan(n)
    return ok


def commutation_range_check(n: SparsePerturbation) -> tuple[bool, tuple[int, int] | None]:
    """Check [N_0, N_delta] = 0 for every delta where taps can chain.

    A tap f of N_delta feeds a tap e of N_0 only when f.out_exp + delta =
    e.in_exp, and e feeds f only when e.out_exp = f.in_exp + delta; at any
    other delta both composites are zero.  So sweeping these offsets (all
    within the exponent span) certifies that every pair of t-conjugates
    commutes.  Returns (ok, witness offsets) where the witness names the
    first non-commuting pair (0, delta), by ascending delta.
    """
    offsets = {e.in_exp - f.out_exp for e in n.entries for f in n.entries}
    for delta in sorted((offsets | {-x for x in offsets}) - {0}):
        shifted = n.conjugate(delta)
        if n.compose(shifted) != shifted.compose(n):
            return False, (0, delta)
    return True, None


@dataclass(frozen=True)
class ContractionModulus:
    """Lower bound mu(k) = k + min_out on where g_k - id can write.

    (g_k - id) maps everything into t^mu(k) B because every tap of N_k
    writes at out_exp + k >= k + min_out.  An empty perturbation never
    writes at all; its modulus is reported as infinite.
    """

    min_out: int | None

    @property
    def is_infinite(self) -> bool:
        return self.min_out is None

    def mu(self, k: int) -> int:
        if self.is_infinite:
            raise ValueError("the empty perturbation has infinite modulus")
        return k + self.min_out

    def threshold(self, prec: int) -> int | None:
        """Smallest k with mu(k) >= prec, i.e. g_k invisible mod t^prec."""
        if self.is_infinite:
            return None
        return prec - self.min_out

    def visible(self, first: int, prec: int) -> range:
        """The k from first up to threshold(prec): the g_k that can act mod
        t^prec.  The infinite modulus has none: range(first, first)."""
        return range(first, first if self.is_infinite else self.threshold(prec))


def inverse_perturbation(n: SparsePerturbation) -> SparsePerturbation:
    """M with (id + N)^{-1} = id + M, via id + M = (id + N)^{p-1}.

    Expands to M = sum_{i=1..p-1} binom(p-1, i) N^i; requires N^p = 0.
    """
    if not power_check_nilpotent(n):
        raise NotOrderP("cannot invert: perturbation is not nilpotent of order <= p")
    weighted = []
    power = n
    binom = 1
    for i in range(1, n.p):
        binom = binom * (n.p - i) // i  # binom(p-1, i)
        weighted += [TapEntry(e.in_comp, e.in_exp, e.out_comp, e.out_exp, e.coeff * binom)
                     for e in power.entries]
        power = power.compose(n)
        if power.is_zero:
            break
    # The constructor merges equal taps and reduces their sums mod p.
    return SparsePerturbation(n.p, n.d, weighted)


def window_taps(n: SparsePerturbation, w: LatticeWindow) -> dict[tuple[int, int], int]:
    """The nonzero entries {(row, col): coeff} of N on t^lo B / t^hi B.

    Columns follow window coordinates of canonical representatives:
    taps reading outside [lo, hi) see zero; writes at or above hi
    vanish mod t^hi; a write below lo means the window cannot represent
    the image and the window is too narrow.  Distinct taps of N land on
    distinct entries, each with its nonzero coefficient.
    """
    if n.p != w.p or n.d != w.d:
        raise DimensionMismatch("perturbation and window are incompatible")
    entries = {}
    for e in n.entries:
        if not w.contains_exp(e.in_exp):
            continue
        if e.out_exp >= w.hi:
            continue
        if e.out_exp < w.lo:
            raise WindowTooNarrow(
                f"tap {e.in_comp}@{e.in_exp} -> {e.out_comp}@{e.out_exp} writes below "
                f"the window floor {w.lo}"
            )
        entries[w.index(e.out_comp, e.out_exp), w.index(e.in_comp, e.in_exp)] = e.coeff
    return entries


def induced_matrix(n: SparsePerturbation, w: LatticeWindow) -> FpMatrix:
    """Window matrix of g = id + N on t^lo B / t^hi B: the identity plus
    the entries of window_taps."""
    a = np.eye(w.dim, dtype=np.int64)
    for (r, c), coeff in window_taps(n, w).items():
        a[r, c] = (a[r, c] + coeff) % w.p
    return FpMatrix._wrap(w.p, a)


class SeedAutomorphism:
    """g = id + N together with the transcripts certifying its shape.

    Construction runs both checks and fails loudly: NotOrderP when
    N^p != 0, NonCommuting when some pair of t-conjugates differs.
    """

    __slots__ = ("perturbation", "nilpotency", "commutation")

    def __init__(self, perturbation: SparsePerturbation):
        ok, vanish, residual = _nilpotency_scan(perturbation)
        if not ok:
            raise NotOrderP(
                f"N^{perturbation.p} has {residual} surviving taps; id + N does not "
                f"have order {perturbation.p}",
                witness_power=perturbation.p,
            )
        ok2, witness = commutation_range_check(perturbation)
        if not ok2:
            raise NonCommuting(
                f"conjugates N_{witness[0]} and N_{witness[1]} do not commute",
                offsets=witness,
            )
        object.__setattr__(self, "perturbation", perturbation)
        object.__setattr__(
            self,
            "nilpotency",
            {"ok": True, "vanished_at_power": vanish, "checked_up_to": perturbation.p},
        )
        object.__setattr__(
            self,
            "commutation",
            {"ok": True, "span": perturbation.span},
        )

    def __setattr__(self, name, value):
        raise AttributeError("SeedAutomorphism is immutable")

    @property
    def p(self) -> int:
        return self.perturbation.p

    @property
    def d(self) -> int:
        return self.perturbation.d

    def apply(self, v: SeriesVector, k: int = 0, out_prec: int | None = None) -> SeriesVector:
        """g_k(v) = v + N_k(v) mod t^out_prec (default v.prec): the one-step
        case of apply_steps."""
        return self.apply_steps(v, [k], v.prec if out_prec is None else out_prec)

    def needs(self, steps: list[int], out_prec: int) -> list[int]:
        """Walked backward, the precision g_{k_m} ... g_{k_1} mod t^out_prec
        needs after each step: entry i for the state after i steps, so entry
        0 is what v must be known to and entry m is out_prec.  A step needs
        what the next one does, raised past each input its taps writing
        below that read (a seed may read above where it writes)."""
        needs = [out_prec]
        for k in reversed(steps):
            needs.append(max([needs[-1]] + [e.in_exp + k + 1 for e in self.perturbation.entries
                                            if e.out_exp + k < needs[-1]]))
        return needs[::-1]

    def apply_steps(self, v: SeriesVector, steps: list[int], out_prec: int) -> SeriesVector:
        """g_{k_m} ... g_{k_1}(v) mod t^out_prec on per-component term dicts,
        each output component built once.

        The state after i steps is exact mod t^needs(steps, out_prec)[i].
        Each step takes its writes from the state the previous step left,
        never from its own; terms at or past a step's need are never read
        again."""
        n = self.perturbation
        if v.p != n.p or v.d != n.d:
            raise DimensionMismatch("vector and automorphism are incompatible")
        needs = self.needs(steps, out_prec)
        if v.prec < needs[0]:
            raise InsufficientPrecision(
                f"operand known mod t^{v.prec}; the factors of phi mod t^{out_prec} "
                f"read it mod t^{needs[0]}"
            )
        p = n.p
        acc = [dict(s.terms) for s in v.series]
        for k, need in zip(steps, needs[1:]):
            writes = [
                (acc[e.out_comp - 1], e.out_exp + k, e.coeff * acc[e.in_comp - 1].get(e.in_exp + k, 0))
                for e in n.entries
                if e.out_exp + k < need
            ]
            for slot, out_exp, c in writes:
                if c:
                    slot[out_exp] = (slot.get(out_exp, 0) + c) % p
        return SeriesVector([LaurentSeries.from_terms(p, terms, out_prec) for terms in acc])
