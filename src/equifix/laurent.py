"""Truncated Laurent series over F_p and finite lattice windows.

A series is known exactly modulo t^prec and is stored as its nonzero
terms below that order; the zero series keeps only its precision.  All
values are immutable and every operation is exact: precision never
silently increases, and asking for a coefficient at or beyond the
precision is an error rather than a guess.

Series literals follow a small grammar, whitespace-insensitive::

    series := term ("+" term)* ("+" "O(t^" int ")")?
    term   := coeff | coeff "*"? atom | atom
    atom   := "t" ("^" int)?
    coeff  := unsigned integer        # reduced mod p
    int    := optionally signed integer

A digit is any character int() reads (ASCII or another script's decimal
digit, not a superscript), and an integer may have any number of them.
Malformed input raises SeriesParseError carrying the position of the
first character no piece of the grammar matches; an exponent or
precision beyond ±MAX_EXPONENT raises ExponentOverflow.

The canonical printer emits ascending exponents, omits zero terms, and
always appends the precision tail, e.g. ``"2*t^-1 + t + O(t^2)"`` or
``"0 + O(t^3)"``; parse and format are mutually inverse on canonical
forms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    ExponentOverflow,
    InsufficientPrecision,
    LimitExceeded,
    OutsideWindow,
    SeriesParseError,
)
from .linalg import MAX_DIM, check_prime

# The documented input cap: an exponent, precision or span from valuation
# to precision beyond it is refused (the CLI files it as limit-exceeded).
MAX_EXPONENT = 10**6


def _check_exponent(e: int) -> int:
    if abs(e) > MAX_EXPONENT:
        raise ExponentOverflow(f"exponent {e} beyond ±{MAX_EXPONENT}")
    return e


class LaurentSeries:
    """A Laurent series over F_p known modulo t^prec.

    `terms` maps each exponent below prec whose coefficient is nonzero
    to that coefficient, reduced mod p, in ascending exponent order.
    """

    __slots__ = ("p", "prec", "terms")

    def __init__(self, p: int, val: int, coeffs, prec: int):
        """The dense run sum_i coeffs[i] * t^(val + i), known modulo t^prec."""
        check_prime(p)
        _check_exponent(prec)
        _check_exponent(val)
        self._fill(p, {val + i: int(c) for i, c in enumerate(coeffs)}, prec)

    def _fill(self, p: int, terms: dict[int, int], prec: int):
        live = {e: c % p for e, c in sorted(terms.items()) if e < prec and c % p}
        if live:
            val = _check_exponent(next(iter(live)))
            if prec - val > MAX_EXPONENT:
                raise ExponentOverflow(f"span {prec - val} beyond {MAX_EXPONENT}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "terms", live)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentSeries is immutable")

    @classmethod
    def zero(cls, p: int, prec: int) -> "LaurentSeries":
        return cls(p, 0, (), prec)

    @classmethod
    def from_terms(cls, p: int, terms: dict[int, int], prec: int) -> "LaurentSeries":
        """Build from an exponent -> coefficient mapping; terms at or past
        prec and coefficients divisible by p are dropped."""
        check_prime(p)
        _check_exponent(prec)
        s = cls.__new__(cls)
        s._fill(p, terms, prec)
        return s

    @property
    def val(self) -> int | None:
        """The valuation: the lowest exponent with a nonzero coefficient."""
        return next(iter(self.terms), None)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, e: int) -> int:
        """Coefficient of t^e; exact for e < prec, error beyond."""
        if e >= self.prec:
            raise InsufficientPrecision(
                f"coefficient of t^{e} requested from a series known mod t^{self.prec}"
            )
        return self.terms.get(e, 0)

    def _check_same_field(self, other: "LaurentSeries"):
        if self.p != other.p:
            raise DimensionMismatch(f"mixed fields F_{self.p} and F_{other.p}")

    def add(self, other: "LaurentSeries") -> "LaurentSeries":
        """Coefficientwise sum; precision is the minimum of the operands'."""
        self._check_same_field(other)
        acc = dict(self.terms)
        for e, c in other.terms.items():
            acc[e] = acc.get(e, 0) + c
        return LaurentSeries.from_terms(self.p, acc, min(self.prec, other.prec))

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self.add(other)

    def scale(self, c: int) -> "LaurentSeries":
        """Scalar multiple; the precision window is unchanged."""
        return LaurentSeries.from_terms(
            self.p, {e: c * x for e, x in self.terms.items()}, self.prec
        )

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by t^k: valuation and precision both move by k."""
        _check_exponent(k)
        return LaurentSeries.from_terms(
            self.p, {e + k: c for e, c in self.terms.items()}, self.prec + k
        )

    def truncate(self, prec: int) -> "LaurentSeries":
        """Forget information: reduce the precision to prec <= self.prec."""
        if prec > self.prec:
            raise InsufficientPrecision(
                f"cannot extend precision from {self.prec} to {prec}"
            )
        return LaurentSeries.from_terms(self.p, self.terms, prec)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self.p == other.p and self.prec == other.prec and self.terms == other.terms

    def __hash__(self):
        return hash((self.p, self.prec, tuple(self.terms.items())))

    def __repr__(self) -> str:
        return f"LaurentSeries({self.p}, {format_series(self)!r})"

    def __str__(self) -> str:
        return format_series(self)


# The grammar's three pieces, each after optional whitespace: a term, the
# "+" before the next piece, and the precision tail.  Digits are \d, the
# characters int() reads, and whitespace is \s, the str.isspace() set.
# A term starts with a digit or "t"; its groups are the coefficient
# (empty for a bare atom), the "t", and the exponent's sign and digits.
_EXP = r"\s*\^\s*([+-]?)\s*(\d+)"
_TERM = re.compile(rf"\s*(?=[\dt])(\d*)(?:\s*\*?\s*(t)(?:{_EXP})?)?")
_PLUS = re.compile(r"\s*\+")
_TAIL = re.compile(rf"\s*O\s*\(\s*t{_EXP}\s*\)")

# Digits per int() call: int() refuses a string longer than
# sys.int_max_str_digits (4300 by default, never set below 640), so a
# longer run of digits is read a chunk at a time.
_CHUNK = 600


def _chunks(digits: str):
    return (digits[i:i + _CHUNK] for i in range(0, len(digits), _CHUNK))


def _coefficient(digits: str, p: int) -> int:
    """The unsigned integer the digits spell, reduced mod p."""
    value = 0
    for chunk in _chunks(digits):
        value = (value * pow(10, len(chunk), p) + int(chunk)) % p
    return value


def _exponent(sign: str, digits: str) -> int:
    """A signed exponent or precision, read by value after its leading
    zeros and checked against the cap, stopping once it is past it."""
    value = 0
    for chunk in _chunks(digits):
        if value > MAX_EXPONENT:
            raise ExponentOverflow(f"exponent of {len(digits)} digits beyond ±{MAX_EXPONENT}")
        value = value * 10 ** len(chunk) + int(chunk)
    return _check_exponent(-value if sign == "-" else value)


def parse_series(text: str, p: int, default_prec: int) -> LaurentSeries:
    """Parse a series literal; see the module grammar."""
    check_prime(p)
    acc: dict[int, int] = {}
    pos, tail = 0, None
    while True:
        term = _TERM.match(text, pos)
        if term is None:
            _fail(text, pos, "expected a term")
        coeff, t, sign, digits = term.groups("")
        e = _exponent(sign, digits) if digits else 1 if t else 0
        acc[e] = (acc.get(e, 0) + (_coefficient(coeff, p) if coeff else 1)) % p
        pos = term.end()
        plus = _PLUS.match(text, pos)
        if plus is None:
            break
        pos = plus.end()
        tail = _TAIL.match(text, pos)
        if tail is not None:
            pos = tail.end()
            break
    if text[pos:].strip():
        _fail(text, pos, "expected '+' or the end of the literal")
    # The precision is read once the whole literal has matched, so a
    # malformed literal is a SeriesParseError whatever its tail holds.
    prec = _exponent(tail[1], tail[2]) if tail else default_prec
    return LaurentSeries.from_terms(p, acc, prec)


def _fail(text: str, pos: int, msg: str):
    """Raise at the first non-space character from pos (or the end)."""
    raise SeriesParseError(msg, len(text) - len(text[pos:].lstrip()))


def format_series(s: LaurentSeries) -> str:
    """Canonical printer: ascending exponents, no zero terms, O-tail."""
    if s.is_zero:
        body = "0"
    else:
        parts = []
        for e, c in s.terms.items():
            if e == 0:
                parts.append(str(c))
            else:
                stem = "t" if e == 1 else f"t^{e}"
                parts.append(stem if c == 1 else f"{c}*{stem}")
        body = " + ".join(parts)
    return f"{body} + O(t^{s.prec})"


class SeriesVector:
    """A d-tuple of series over one field with one shared precision."""

    __slots__ = ("p", "d", "prec", "series")

    def __init__(self, series):
        ss = tuple(series)
        if not ss:
            raise DimensionMismatch("a SeriesVector needs at least one component")
        p, prec = ss[0].p, ss[0].prec
        for s in ss:
            if s.p != p:
                raise DimensionMismatch("components live over different fields")
            if s.prec != prec:
                raise DimensionMismatch("components carry different precisions")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "d", len(ss))
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "series", ss)

    def __setattr__(self, name, value):
        raise AttributeError("SeriesVector is immutable")

    @classmethod
    def zero(cls, p: int, d: int, prec: int) -> "SeriesVector":
        return cls([LaurentSeries.zero(p, prec)] * d)

    def component(self, i: int) -> LaurentSeries:
        """1-based component access (components are numbered 1..d)."""
        if not 1 <= i <= self.d:
            raise DimensionMismatch(f"component {i} outside 1..{self.d}")
        return self.series[i - 1]

    @property
    def is_zero(self) -> bool:
        return all(s.is_zero for s in self.series)

    def add(self, other: "SeriesVector") -> "SeriesVector":
        if self.d != other.d:
            raise DimensionMismatch("vector lengths differ")
        return SeriesVector([a.add(b) for a, b in zip(self.series, other.series)])

    def __add__(self, other: "SeriesVector") -> "SeriesVector":
        return self.add(other)

    def scale(self, c: int) -> "SeriesVector":
        return SeriesVector([s.scale(c) for s in self.series])

    def shift(self, k: int) -> "SeriesVector":
        return SeriesVector([s.shift(k) for s in self.series])

    def truncate(self, prec: int) -> "SeriesVector":
        return SeriesVector([s.truncate(prec) for s in self.series])

    def __eq__(self, other) -> bool:
        if not isinstance(other, SeriesVector):
            return NotImplemented
        return self.series == other.series

    def __hash__(self):
        return hash(self.series)

    def __repr__(self) -> str:
        return f"SeriesVector({format_vector(self)})"


def format_vector(v: SeriesVector) -> str:
    """Tuple notation with each component in canonical series syntax."""
    return "(" + ", ".join(format_series(s) for s in v.series) + ")"


@dataclass(frozen=True)
class LatticeWindow:
    """The finite slice t^lo B / t^hi B of the standard lattice B.

    Coordinates are indexed by (component, exponent) pairs with
    components 1..d outermost and exponents lo..hi-1 ascending inside,
    so index (c, e) = (c-1)*(hi-lo) + (e-lo).
    """

    lo: int
    hi: int
    d: int
    p: int

    def __post_init__(self):
        check_prime(self.p)
        if self.lo >= self.hi:
            raise DimensionMismatch(f"empty window [{self.lo}, {self.hi})")
        if self.d < 1:
            raise DimensionMismatch("window needs at least one component")
        if self.dim > MAX_DIM:
            raise LimitExceeded(f"window dimension {self.dim} beyond {MAX_DIM}")

    @property
    def width(self) -> int:
        return self.hi - self.lo

    @property
    def dim(self) -> int:
        return self.d * (self.hi - self.lo)

    def contains_exp(self, e: int) -> bool:
        return self.lo <= e < self.hi

    def index(self, component: int, exponent: int) -> int:
        if not 1 <= component <= self.d:
            raise DimensionMismatch(f"component {component} outside 1..{self.d}")
        if not self.contains_exp(exponent):
            raise DimensionMismatch(
                f"exponent {exponent} outside window [{self.lo}, {self.hi})"
            )
        return (component - 1) * self.width + (exponent - self.lo)


def window_coords(v: SeriesVector, w: LatticeWindow) -> np.ndarray:
    """Coordinates of the class of v mod t^hi B in window order.

    Requires v.prec >= w.hi (so every window coefficient is known) and
    support at or above w.lo (so the class is representable).
    """
    if v.p != w.p or v.d != w.d:
        raise DimensionMismatch("vector and window are incompatible")
    if v.prec < w.hi:
        raise InsufficientPrecision(
            f"vector known mod t^{v.prec} cannot fill a window reaching t^{w.hi}"
        )
    out = np.zeros(w.dim, dtype=np.int64)
    for comp, s in enumerate(v.series, start=1):
        for e, c in s.terms.items():
            if e >= w.hi:
                continue
            if e < w.lo:
                raise OutsideWindow(
                    f"component {comp} has a t^{e} term below the window floor {w.lo}"
                )
            out[w.index(comp, e)] = c
    return out


def coords_to_vector(coords, w: LatticeWindow) -> SeriesVector:
    """Canonical representative (prec = w.hi) of a window coordinate vector."""
    arr = np.asarray(coords, dtype=np.int64) % w.p
    if arr.shape != (w.dim,):
        raise DimensionMismatch(f"expected {w.dim} coordinates, got shape {arr.shape}")
    comps = []
    for c in range(1, w.d + 1):
        block = arr[(c - 1) * w.width : c * w.width]
        comps.append(LaurentSeries(w.p, w.lo, list(block), w.hi))
    return SeriesVector(comps)


def random_series(rng, p: int, prec: int, min_val: int = -3) -> LaurentSeries:
    """Sampling helper (tests and validate's equivariance samples): zero one
    time in ten, else a series with valuation >= min_val."""
    if rng.random() < 0.1:
        return LaurentSeries.zero(p, prec)
    val = rng.randint(min_val, max(min_val, prec - 1))
    cs = [rng.randrange(p) for _ in range(prec - val)]
    return LaurentSeries(p, val, cs, prec)


def random_vector(rng, p: int, d: int, prec: int, min_val: int = 0) -> SeriesVector:
    """Sampling helper for tests: a vector of random series."""
    return SeriesVector([random_series(rng, p, prec, min_val) for _ in range(d)])
