"""Truncated Laurent series: arithmetic, parsing, windows.

The one nontrivial frozen sum below ("0 + O(t^4)") was computed by hand
before writing the test: coefficientwise over F_3 both exponents -1 and
1 collect a total of 3, which vanishes.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canon_cases import CANON_CASES
from equifix.errors import (
    DimensionMismatch,
    ExponentOverflow,
    InsufficientPrecision,
    OutsideWindow,
    SeriesParseError,
)
from equifix.laurent import (
    MAX_EXPONENT,
    LaurentSeries,
    LatticeWindow,
    SeriesVector,
    coords_to_vector,
    format_series,
    format_vector,
    parse_series,
    random_series,
    _check_exponent,
    random_vector,
    window_coords,
)

# ---------------------------------------------------------------- parsing


def test_parse_basic_literal():
    s = parse_series("1 + t^2 + O(t^5)", 2, 9)
    assert (s.val, s.terms, s.prec) == (0, {0: 1, 2: 1}, 5)


def test_parse_zero_with_explicit_order():
    s = parse_series("0 + O(t^3)", 2, 7)
    assert s.is_zero and s.prec == 3


def test_parse_negative_valuation_default_precision():
    s = parse_series("2*t^-1 + t", 3, 4)
    assert (s.val, s.terms, s.prec) == (-1, {-1: 2, 1: 1}, 4)


@pytest.mark.parametrize("text,p,default_prec,expected", CANON_CASES)
def test_hand_written_literals_canonicalize(text, p, default_prec, expected):
    assert format_series(parse_series(text, p, default_prec)) == expected


@pytest.mark.parametrize(
    "bad",
    # The last three hold digits that str.isdigit() accepts and int() does not.
    ["", "t^", "1 +", "+ t", "t**2", "2.5", "t^x", "1 + O(t^)", "--1", "t^²", "²", "1 + O(t^³)"],
)
def test_parse_rejects_malformed_input(bad):
    with pytest.raises(SeriesParseError):
        parse_series(bad, 3, 4)


def test_parse_error_reports_position():
    with pytest.raises(SeriesParseError) as info:
        parse_series("1 + t^", 2, 4)
    assert "1 + t^"[info.value.pos] == "^"


def test_parse_rejects_huge_exponent():
    with pytest.raises(ExponentOverflow):
        parse_series("t^2000000", 2, 4)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1" * 5000, "1 + O(t^4)"),
        ("t^" + "0" * 4400 + "1", "t + O(t^4)"),
        ("1 + O(t^" + "0" * 4400 + "3)", "1 + O(t^3)"),
        ("١" * 4999 + "٣", "1 + O(t^4)"),  # Arabic-Indic digits: 11…13 is odd
    ],
    ids=["coefficient", "exponent", "precision", "arabic-indic-coefficient"],
)
def test_parse_reads_integers_longer_than_int_reads(text, expected):
    """int() refuses more than 4300 digits; a coefficient is read mod p and
    an exponent or precision by value after its leading zeros."""
    assert format_series(parse_series(text, 2, 4)) == expected


@pytest.mark.parametrize(
    "text", ["t^" + "9" * 4400, "1 + O(t^-" + "9" * 4400 + ")"], ids=["exponent", "precision"]
)
def test_parse_rejects_a_long_exponent_as_overflow(text):
    with pytest.raises(ExponentOverflow):
        parse_series(text, 2, 4)


def test_round_trip_on_random_series():
    rng = random.Random(411)
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        s = random_series(rng, p, prec=rng.randint(-1, 6), min_val=-4)
        assert parse_series(format_series(s), p, s.prec + 99) == s


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    terms=st.dictionaries(
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=0, max_value=4),
        max_size=5,
    ),
    margin=st.integers(min_value=0, max_value=3),
)
def test_round_trip_hypothesis(p, terms, margin):
    prec = max(terms, default=0) + 1 + margin
    s = LaurentSeries.from_terms(p, terms, prec)
    assert parse_series(format_series(s), p, 0) == s


# ---------------------------------------------------------------- printing


def test_format_zero():
    assert format_series(LaurentSeries.zero(2, 3)) == "0 + O(t^3)"


def test_format_negative_valuation():
    s = LaurentSeries.from_terms(3, {-1: 2, 1: 1}, 2)
    assert format_series(s) == "2*t^-1 + t + O(t^2)"


# ---------------------------------------------------------------- arithmetic


def test_char_2_self_cancellation():
    rng = random.Random(412)
    for _ in range(50):
        s = random_series(rng, 2, prec=5, min_val=-3)
        assert s.add(s).is_zero


def test_shift_example_and_inverse():
    s = parse_series("1 + O(t^3)", 2, 3)
    assert format_series(s.shift(2)) == "t^2 + O(t^5)"
    assert s.shift(2).shift(-2) == s


def test_add_cancels_everything_in_the_stated_f3_sum():
    # Hand check: exponent -1 collects 1+2 = 3 = 0, exponent 1 collects
    # 2+1 = 3 = 0, so this particular sum vanishes entirely.
    a = parse_series("t^-1 + 2*t", 3, 4)
    b = parse_series("2*t^-1 + t", 3, 4)
    assert format_series(a.add(b)) == "0 + O(t^4)"
    # Flipping the second t-coefficient to 2 leaves a lone t term.
    c = parse_series("2*t^-1 + 2*t", 3, 4)
    assert format_series(a.add(c)) == "t + O(t^4)"


def test_add_precision_is_min_and_valuation_renormalizes():
    a = parse_series("t + t^2 + O(t^6)", 2, 6)
    b = parse_series("t + O(t^4)", 2, 4)
    out = a.add(b)
    assert out.prec == 4
    assert (out.val, out.terms) == (2, {2: 1})


def test_add_rejects_mixed_moduli():
    with pytest.raises(DimensionMismatch):
        parse_series("t", 2, 4).add(parse_series("t", 3, 4))


def test_scale_and_order_p():
    rng = random.Random(413)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        s = random_series(rng, p, prec=4, min_val=-2)
        assert s.scale(p).is_zero
        acc = LaurentSeries.zero(p, s.prec)
        for _ in range(p):
            acc = acc.add(s)
        assert acc.is_zero


def test_truncate_drops_high_terms_only():
    s = parse_series("t^-1 + 1 + t + t^2 + O(t^4)", 2, 4)
    cut = s.truncate(1)
    assert format_series(cut) == "t^-1 + 1 + O(t^1)"
    with pytest.raises(InsufficientPrecision):
        s.truncate(9)


def test_series_coeff_examples():
    s = parse_series("1 + t^2 + O(t^5)", 2, 5)
    assert s.coeff(2) == 1
    assert s.coeff(-7) == 0  # below the support
    with pytest.raises(InsufficientPrecision):
        s.coeff(5)  # exactly at the precision boundary


def test_series_checks_keep_their_messages():
    with pytest.raises(ExponentOverflow, match="span 1100000 beyond 1000000"):
        LaurentSeries.from_terms(2, {-600000: 1}, 500000)
    with pytest.raises(ExponentOverflow, match=f"exponent -1000001 beyond ±{MAX_EXPONENT}"):
        LaurentSeries(2, -1000001, [1], 0)
    with pytest.raises(ExponentOverflow, match="exponent 1000001 beyond"):
        LaurentSeries.zero(2, 3).shift(999998)
    with pytest.raises(InsufficientPrecision, match="t\\^3 requested .* mod t\\^3"):
        LaurentSeries.zero(2, 3).coeff(3)


def test_wide_sparse_series_stores_its_terms_only():
    text = "t^-500000 + t^499999 + O(t^500000)"
    s = parse_series(text, 2, 0)
    assert s.terms == {-500000: 1, 499999: 1}
    assert format_series(s) == text
    assert parse_series(format_series(s), 2, 0) == s


class _DenseSeries:
    """The dense-run series these tests check against: every coefficient
    from the valuation up to the precision, leading zeros stripped."""

    def __init__(self, p, val, coeffs, prec):
        cs = [int(c) % p for c in coeffs][: max(0, prec - val)]
        lead = 0
        while lead < len(cs) and cs[lead] == 0:
            lead += 1
        cs = cs[lead:]
        self.p, self.prec = p, prec
        self.val = val + lead if cs else None
        self.coeffs = tuple(cs + [0] * (prec - val - lead - len(cs))) if cs else ()

    @classmethod
    def from_terms(cls, p, terms, prec):
        live = {e: c % p for e, c in terms.items() if c % p and e < prec}
        if not live:
            return cls(p, 0, (), prec)
        val = min(live)
        cs = [0] * (prec - val)
        for e, c in live.items():
            cs[e - val] = c
        return cls(p, val, cs, prec)

    def coeff(self, e):
        if e >= self.prec:
            raise InsufficientPrecision(e)
        if self.val is None or e < self.val:
            return 0
        return self.coeffs[e - self.val]

    def support(self):
        if self.val is None:
            return ()
        return tuple(self.val + i for i, c in enumerate(self.coeffs) if c)

    def add(self, other):
        prec = min(self.prec, other.prec)
        vals = [s.val for s in (self, other) if s.val is not None]
        if not vals:
            return _DenseSeries(self.p, 0, (), prec)
        val = min(vals)
        cs = [0] * max(0, prec - val)
        for s in (self, other):
            for i, c in enumerate(s.coeffs):
                e = s.val + i
                if e < prec:
                    cs[e - val] = (cs[e - val] + c) % self.p
        return _DenseSeries(self.p, val, cs, prec)

    def scale(self, c):
        c = c % self.p
        if self.val is None or c == 0:
            return _DenseSeries(self.p, 0, (), self.prec)
        return _DenseSeries(self.p, self.val, [c * x for x in self.coeffs], self.prec)

    def shift(self, k):
        if self.val is None:
            return _DenseSeries(self.p, 0, (), self.prec + k)
        return _DenseSeries(self.p, self.val + k, self.coeffs, self.prec + k)

    def truncate(self, prec):
        if prec > self.prec:
            raise InsufficientPrecision(prec)
        if self.val is None:
            return _DenseSeries(self.p, 0, (), prec)
        return _DenseSeries(self.p, self.val, self.coeffs, prec)

    def key(self):
        return (self.p, self.prec, self.val, self.coeffs)

    def format(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                e = self.val + i
                stem = "" if e == 0 else "t" if e == 1 else f"t^{e}"
                parts.append(str(c) if not stem else stem if c == 1 else f"{c}*{stem}")
        return f"{' + '.join(parts) or '0'} + O(t^{self.prec})"


def _agree(s, ref):
    assert (s.p, s.prec, s.val) == (ref.p, ref.prec, ref.val)
    assert tuple(s.terms) == ref.support()
    assert format_series(s) == ref.format()
    for e in range(min(s.prec, -10) - 3, s.prec):
        assert s.coeff(e) == ref.coeff(e)
    with pytest.raises(InsufficientPrecision):
        s.coeff(s.prec)


def test_terms_agree_with_the_dense_run():
    rng = random.Random(415)

    def sample(p):
        prec = rng.randint(-6, 9)
        if rng.random() < 0.15:
            terms = {}
        else:
            terms = {rng.randint(-9, 10): rng.randrange(-p, 2 * p)
                     for _ in range(rng.randint(1, 6))}
        return LaurentSeries.from_terms(p, terms, prec), _DenseSeries.from_terms(p, terms, prec)

    pairs = []
    for _ in range(300):
        p = rng.choice([2, 3, 5, 97])
        (a, ra), (b, rb) = sample(p), sample(p)
        _agree(a, ra)
        _agree(a.add(b), ra.add(rb))
        c = rng.randrange(-p, 2 * p)
        _agree(a.scale(c), ra.scale(c))
        k = rng.randint(-6, 6)
        _agree(a.shift(k), ra.shift(k))
        lo = (a.prec if a.is_zero else a.val) - 2
        cut = rng.randint(lo - 2, a.prec)  # at times below the valuation
        _agree(a.truncate(cut), ra.truncate(cut))
        # The same series as a dense run with leading zeros and terms past prec.
        dense = LaurentSeries(p, lo, [ra.coeff(e) for e in range(lo, a.prec)] + [1], a.prec)
        pairs += [(a, ra), (dense, ra), (b, rb), (a.add(b).add(b), ra.add(rb).add(rb))]
    shuffled = rng.sample(pairs, len(pairs))
    for (x, rx), (y, ry) in [*zip(pairs, pairs[1:]), *zip(pairs, shuffled)]:
        assert (x == y) == (rx.key() == ry.key())
        if x == y:
            assert hash(x) == hash(y)


# ---------------------------------------------------------------- windows


def test_window_indexing_convention():
    w = LatticeWindow(-1, 2, d=2, p=3)
    assert w.dim == 6
    assert w.index(1, -1) == 0
    assert w.index(1, 1) == 2
    assert w.index(2, -1) == 3


def test_window_coords_single_component():
    w = LatticeWindow(0, 2, d=1, p=2)
    v = SeriesVector([parse_series("1 + t + O(t^2)", 2, 2)])
    assert window_coords(v, w).tolist() == [1, 1]


def test_window_coords_two_components_negative_floor():
    w = LatticeWindow(-1, 1, d=2, p=2)
    v = SeriesVector(
        [parse_series("t^-1 + O(t^1)", 2, 1), parse_series("1 + O(t^1)", 2, 1)]
    )
    coords = window_coords(v, w)
    assert coords.tolist() == [1, 0, 0, 1]
    assert [i for i, c in enumerate(coords) if c] == [w.index(1, -1), w.index(2, 0)]


def test_window_coords_demands_precision_and_support():
    w = LatticeWindow(0, 3, d=1, p=2)
    shallow = SeriesVector([parse_series("1 + O(t^2)", 2, 2)])
    with pytest.raises(InsufficientPrecision):
        window_coords(shallow, w)
    deep = SeriesVector([parse_series("t^-1 + O(t^3)", 2, 3)])
    with pytest.raises(OutsideWindow):
        window_coords(deep, w)


def test_window_round_trip_random_vectors():
    rng = random.Random(414)
    for _ in range(120):
        p = rng.choice([2, 3])
        d = rng.randint(1, 3)
        lo, hi = rng.randint(-3, 0), rng.randint(1, 4)
        w = LatticeWindow(lo, hi, d=d, p=p)
        v = random_vector(rng, p, d, prec=hi, min_val=lo)
        back = window_coords(coords_to_vector(window_coords(v, w), w), w)
        assert back.tolist() == window_coords(v, w).tolist()


def test_format_vector_shape():
    v = SeriesVector.zero(2, 2, 4)
    assert format_vector(v) == "(0 + O(t^4), 0 + O(t^4))"


# ---------------------------------------------------------------- reference
# The recursive-descent reader that the three patterns of parse_series
# replaced, kept here as the reference they are compared against.


def _reference_parse_series(text, p, default_prec):
    parser = _ReferenceParser(text)
    terms = []
    o_prec = None
    terms.append(parser.term())
    while True:
        parser.skip_ws()
        if parser.done():
            break
        parser.expect("+")
        parser.skip_ws()
        if parser.peek() == "O":
            o_prec = parser.o_tail()
            parser.skip_ws()
            if not parser.done():
                parser.fail("trailing input after precision tail")
            break
        terms.append(parser.term())
    prec = default_prec if o_prec is None else o_prec
    _check_exponent(prec)
    acc = {}
    for e, c in terms:
        acc[e] = (acc.get(e, 0) + c) % p
    return LaurentSeries.from_terms(p, acc, prec)


class _ReferenceParser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def fail(self, msg):
        raise SeriesParseError(msg, self.pos)

    def done(self):
        return self.pos >= len(self.text)

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch):
        if self.peek() != ch:
            self.fail(f"expected {ch!r}")
        self.pos += 1

    def unsigned(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.fail("expected an integer")
        return int(self.text[start : self.pos])

    def signed(self):
        self.skip_ws()
        sign = 1
        if self.peek() in "+-":
            if self.peek() == "-":
                sign = -1
            self.pos += 1
        return sign * self.unsigned()

    def atom(self):
        self.expect("t")
        self.skip_ws()
        if self.peek() == "^":
            self.pos += 1
            e = self.signed()
        else:
            e = 1
        return _check_exponent(e)

    def term(self):
        self.skip_ws()
        ch = self.peek()
        if ch.isdigit():
            c = self.unsigned()
            self.skip_ws()
            if self.peek() == "*":
                self.pos += 1
                self.skip_ws()
                return (self.atom(), c)
            if self.peek() == "t":
                return (self.atom(), c)
            return (0, c)
        if ch == "t":
            return (self.atom(), 1)
        self.fail("expected a term")

    def o_tail(self):
        for ch in "O(":
            self.expect(ch)
            self.skip_ws()
        self.expect("t")
        self.skip_ws()
        self.expect("^")
        n = self.signed()
        self.skip_ws()
        self.expect(")")
        return n


# The grammar's alphabet, digits int() does not read ("²"), digits it
# does read outside ASCII ("٣"), and whitespace beyond the ASCII space.
_NOISE = "0123456789tt^^**++-O() \t\u2003\u00a0²٣"
_SPACES = ["", "", "", " ", " ", "\t", "\u2003", "\u00a0"]
# Signed exponents, spaced as the grammar allows, two of them beyond the cap.
_EXPONENTS = ["0", "1", "2", "7", "-1", "-2", "+3", "- 4", "-\t10", "1000000", "-1000001"]


def _literals(rng, n):
    """n well-formed literals with random spacing, term forms and
    exponents, half of them with one character replaced, dropped or
    doubled.  Each joins a few terms from a pool drawn first, and half
    end in a precision tail."""
    def ws():
        return rng.choice(_SPACES)

    def exponent():
        return ws() + "^" + ws() + rng.choice(_EXPONENTS)

    terms = []
    for _ in range(2000):
        coeff = str(rng.randint(0, 12)) + rng.choice(["", "", "٣"])
        atom = "t" + (exponent() if rng.random() < 0.7 else "")
        term = rng.choice([coeff, coeff + ws() + "*" + ws() + atom, coeff + ws() + atom, atom])
        terms.append(ws() + term + ws())
    tails = [ws() + "O" + ws() + "(" + ws() + "t" + exponent() + ws() + ")" + ws() for _ in range(200)]
    out = []
    for _ in range(n):
        pieces = rng.choices(terms, k=rng.randint(1, 4))
        if rng.random() < 0.5:
            pieces.append(rng.choice(tails))
        text = "+".join(pieces)
        if rng.random() < 0.5:
            i = rng.randrange(len(text))
            text = text[:i] + rng.choice(["", rng.choice(_NOISE), text[i] * 2]) + text[i + 1 :]
        out.append(text)
    return out


def _outcome(parse, text, p, default_prec):
    try:
        return parse(text, p, default_prec)
    except ValueError as exc:
        return type(exc)


def test_patterns_agree_with_the_reference_parser():
    """Every literal the reference reads gives the same series, and every
    rejection the same exception class, except where the reference let
    int() raise a bare ValueError on a digit that str.isdigit() accepts:
    that is a SeriesParseError now, or an ExponentOverflow where an
    out-of-cap exponent precedes it."""
    rng = random.Random(29)
    corpus = _literals(rng, 25_000)
    corpus += ["".join(rng.choices(_NOISE, k=rng.randint(0, 10))) for _ in range(25_000)]
    counts = {"accepted": 0, "bare": 0}
    for text in corpus:
        p, default_prec = rng.choice([2, 5]), rng.randint(-2, 6)
        want = _outcome(_reference_parse_series, text, p, default_prec)
        got = _outcome(parse_series, text, p, default_prec)
        if want is ValueError:
            counts["bare"] += 1
            assert got in (SeriesParseError, ExponentOverflow), text
        else:
            counts["accepted"] += isinstance(want, LaurentSeries)
            assert got == want, text
    assert counts["accepted"] > 5_000 and counts["bare"] > 1_000
