from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
    # as floats; a broadcast view (stride 0 along an axis) as a spread part is
    exact = _Shared(_object_array(nums, (len(nums),)), den)
    floats = _Shared(np.asarray(nums, dtype=np.float64) / den, 1)
    for x in (exact, _Shared(exact.num, 1), floats):
        if broadcast:
            x = _Shared(np.broadcast_to(x.num[:, None], (len(nums), 3)), x.den)
        assert x.texts() == [format_scalar(v) for v in x.values().reshape(-1).tolist()]
