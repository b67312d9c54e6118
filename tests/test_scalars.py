import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gamedecomp.errors import ParseError, ValidationError
from gamedecomp import Game, StrategySpace
from gamedecomp.numeric import _Shared, _object_array, format_scalar, parse_scalar
from oracles import rational_sqrt

nonzero_rationals = st.fractions().filter(lambda f: f != 0)


@given(nonzero_rationals, nonzero_rationals)
def test_rational_canonicalization(a, b):
    assert (a / b) * (b / a) == 1


@given(st.fractions())
def test_scalar_roundtrip(x):
    assert parse_scalar(format_scalar(x)) == x


def test_parse_literals():
    assert parse_scalar("4/15") == Fraction(4, 15)
    assert parse_scalar("-3") == Fraction(-3)
    assert parse_scalar("+2/4") == Fraction(1, 2)


@pytest.mark.parametrize("bad", ["1.5", "a", "1/0", "2/-3", ""])
def test_parse_rejects_non_rationals(bad):
    with pytest.raises(ParseError):
        parse_scalar(bad)


def test_float_mode_accepts_decimals():
    assert parse_scalar("1.5", exact=False) == 1.5
    assert parse_scalar("1/2", exact=False) == 0.5


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999", "1/0", "1" + "0" * 400])
def test_float_mode_rejects_non_finite(bad):
    with pytest.raises(ParseError):
        parse_scalar(bad, exact=False)


# -- the literal rule ---------------------------------------------------------
# parse_scalar reads an integer or p/q literal to the value Fraction(text)
# gives, and in float mode to the bits of float(Fraction(text)); float mode
# reads a decimal or an exponent as float(text).  Each refused form raises a
# ParseError with its own text.

LIMIT = sys.get_int_max_str_digits()
_PAD = st.sampled_from(["", " ", "\t", " \n"])
_SIGN = st.sampled_from(["", "+", "-"])
# \d matches every Unicode decimal digit, and int() reads them all
_NUMERAL = st.one_of(
    st.text("0123456789", min_size=1, max_size=40),
    st.text("0123456789\u0660\u0663\uff15", min_size=1, max_size=6),
    st.sampled_from(["0", "00", "01"]),
    st.builds(lambda k, d: d + "7" * (k - 1), st.integers(LIMIT - 2, LIMIT + 2), st.sampled_from("019")),
)
_LITERALS = st.builds(
    lambda pad, sign, p, q, end: pad + sign + p + ("" if q is None else "/" + q) + end,
    _PAD, _SIGN, _NUMERAL, st.none() | _NUMERAL, _PAD,
)
_EXPONENT = st.builds(
    lambda e, sign, n: f"{e}{sign}{n}", st.sampled_from("eE"), _SIGN, st.integers(0, 400)
)
_DECIMALS = st.one_of(
    st.builds(
        lambda sign, a, b, e: f"{sign}{a}.{b}{e}",
        _SIGN, st.text("0123456789", max_size=20), st.text("0123456789", max_size=20),
        st.just("") | _EXPONENT,
    ).filter(lambda t: any(c.isdigit() for c in t.split("e")[0].split("E")[0])),
    st.builds(lambda sign, a, e: f"{sign}{a}{e}", _SIGN, st.text("0123456789", min_size=1, max_size=20), _EXPONENT),
)
# refused in both modes, each with the text of its mode
_REFUSED = [
    "", "a", "1/", "/2", "1//2", "2/-3", "1/+2", "--1", "+-1", "1 2", "1 / 2", "1/2/3",
    "0x10", "1__0", "1/2_0", "\u00bd", "1.5/2", "nan", "inf", "-inf", "Infinity",
    "1_000", "1_0.5", "1e1_0",
]


def _refusal(text, exact):
    with pytest.raises(ParseError) as info:
        parse_scalar(text, exact)
    return str(info.value)


@settings(max_examples=300, deadline=None)
@given(_LITERALS)
def test_parse_scalar_reads_a_literal_as_fraction_does(literal):
    text = literal.strip()
    try:
        expected = Fraction(text)
    except ZeroDivisionError:
        assert _refusal(literal, True) == f"zero denominator: {text!r}"
        assert _refusal(literal, False) == f"not a finite number: {text!r}"
        return
    except ValueError:  # a numeral over the int() digit limit
        assert _refusal(literal, True) == (
            f"number too long: {len(text)} characters, over the limit of {LIMIT} digits per integer"
        )
        assert _refusal(literal, False) == f"not a finite number: {text!r}"
        return
    value = parse_scalar(literal)
    assert type(value) is Fraction and value == expected
    try:
        bits = float(expected).hex()  # -0 reads as 0.0: a Fraction has no sign of 0
    except OverflowError:
        assert _refusal(literal, False) == f"not a finite number: {text!r}"
        return
    assert parse_scalar(literal, exact=False).hex() == bits


@settings(max_examples=200, deadline=None)
@given(_PAD, _DECIMALS, _PAD)
def test_parse_scalar_reads_a_decimal_as_float_does(before, decimal, after):
    # float mode only; the value is also float(Fraction(text)), whose 0 has no sign
    literal = before + decimal + after
    assert _refusal(literal, True) == f"not an integer or p/q rational: {decimal!r}"
    try:
        expected = float(Fraction(decimal))
    except OverflowError:
        assert _refusal(literal, False) == f"not a finite number: {decimal!r}"
        return
    value = parse_scalar(literal, exact=False)
    assert value.hex() == float(decimal).hex() and value == expected


@given(_PAD, st.sampled_from(_REFUSED), _PAD)
def test_parse_scalar_refuses_each_malformed_literal_with_its_text(before, bad, after):
    text = (before + bad + after).strip()
    assert _refusal(before + bad + after, True) == f"not an integer or p/q rational: {text!r}"
    assert _refusal(before + bad + after, False) == f"not a finite number: {text!r}"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_float_arrays_reject_non_finite(bad):
    with pytest.raises(ValidationError):
        Game.from_payoffs(StrategySpace((("s", "t"),) * 2), [[1.0, bad, 1.0, 1.0]] * 2, exact=False)


@given(st.fractions(min_value=0, max_value=10**6))
def test_rational_sqrt_of_squares(x):
    assert rational_sqrt(x * x) == x


def test_rational_sqrt_irrational():
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(1, 3)) is None
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)


@given(
    st.lists(st.integers(-10**30, 10**30), min_size=1, max_size=12),
    st.integers(1, 10**12),
    st.booleans(),
)
def test_shared_texts_are_the_format_of_each_value(nums, den, broadcast):
    # exact: num / den, reduced, and over 1 as well; float: the same values
    # as floats; and any memory layout, a broadcast view (stride 0 along an
    # axis) included, though no kernel stores one: both read every entry
    exact = _Shared(_object_array(nums, (len(nums),)), den)
    floats = _Shared(np.asarray(nums, dtype=np.float64) / den, 1)
    for x in (exact, _Shared(exact.num, 1), floats):
        if broadcast:
            x = _Shared(np.broadcast_to(x.num[:, None], (len(nums), 3)), x.den)
        assert x.texts() == [format_scalar(v) for v in x.values().reshape(-1).tolist()]
