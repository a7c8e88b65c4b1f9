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
    LaurentSeries,
    LatticeWindow,
    SeriesVector,
    coords_to_vector,
    format_series,
    format_vector,
    parse_series,
    random_series,
    random_vector,
    window_coords,
)

# ---------------------------------------------------------------- parsing


def test_parse_basic_literal():
    s = parse_series("1 + t^2 + O(t^5)", 2, 9)
    assert (s.val, list(s.coeffs), s.prec) == (0, [1, 0, 1, 0, 0], 5)


def test_parse_zero_with_explicit_order():
    s = parse_series("0 + O(t^3)", 2, 7)
    assert s.is_zero and s.prec == 3


def test_parse_negative_valuation_default_precision():
    s = parse_series("2*t^-1 + t", 3, 4)
    assert (s.val, list(s.coeffs), s.prec) == (-1, [2, 0, 1, 0, 0], 4)


@pytest.mark.parametrize("text,p,default_prec,expected", CANON_CASES)
def test_hand_written_literals_canonicalize(text, p, default_prec, expected):
    assert format_series(parse_series(text, p, default_prec)) == expected


@pytest.mark.parametrize(
    "bad", ["", "t^", "1 +", "+ t", "t**2", "2.5", "t^x", "1 + O(t^)", "--1"]
)
def test_parse_rejects_malformed_input(bad):
    with pytest.raises(SeriesParseError):
        parse_series(bad, 3, 4)


def test_parse_error_reports_position():
    with pytest.raises(SeriesParseError) as info:
        parse_series("1 + t^", 2, 4)
    assert isinstance(info.value.pos, int)


def test_parse_rejects_huge_exponent():
    with pytest.raises(ExponentOverflow):
        parse_series("t^2000000", 2, 4)


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
    assert (out.val, list(out.coeffs)) == (2, [1, 0])


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


# ---------------------------------------------------------------- windows


def test_window_indexing_convention():
    w = LatticeWindow(-1, 2, d=2, p=3)
    assert w.dim == 6
    assert w.index(1, -1) == 0
    assert w.index(1, 1) == 2
    assert w.index(2, -1) == 3
    assert w.labels()[4] == (2, 0)


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
