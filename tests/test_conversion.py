"""Outside values in: every ``from_*`` constructor, in both scalar modes, on
flat and nested data, for each accepted entry form.

Exact mode takes ints, numpy ints, ``Fraction``s and ``"p/q"`` strings;
float mode ints, floats and ``Fraction``s.  The view reads the given values
in the mode's type (``Fraction`` or ``float``), frozen; the shared form
holds exact entries as numerators over the LCM of their denominators, float
entries as themselves over 1.  Every other entry, and a tensor of another
dtype, gets one typed error.
"""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gamedecomp import (
    CoMeasureVector,
    Game,
    MeasureVector,
    MixedProfile,
    ParseError,
    ScalarField,
    StrategySpace,
    ValidationError,
    map_equilibrium_under_scaling,
)

FORMS = {
    True: {
        "int": int,
        "numpy int": lambda v: np.int64(int(v)),
        "Fraction": F,
        "p/q": lambda v: f"{v.numerator}/{v.denominator}",
    },
    False: {"int": int, "float": float, "Fraction": F},
}


def _own(space):
    return [(m,) for m in space.sizes]


# name: (shapes of the tensors given, kind of entries, build, view, stored)
CONSTRUCTORS = {
    "Game.from_payoffs": (
        lambda space: [space.sizes] * space.n_players, "any",
        Game.from_payoffs, lambda g: g.payoffs, lambda g: g._shared,
    ),
    "ScalarField.from_values": (
        lambda space: [space.sizes], "any",
        lambda space, data, exact: ScalarField.from_values(space, data[0], exact),
        lambda h: (h.values,), lambda h: h._shared,
    ),
    "MeasureVector.from_weights": (
        _own, "positive",
        MeasureVector.from_weights, lambda mu: mu.weights, lambda mu: mu._shared,
    ),
    "CoMeasureVector.from_tensors": (
        lambda space: [space.opp_sizes(i) for i in space.players], "positive",
        CoMeasureVector.from_tensors, lambda gamma: gamma.tensors, lambda gamma: gamma._shared,
    ),
    "CoMeasureVector.from_generator": (
        _own, "positive",
        CoMeasureVector.from_generator, lambda gamma: gamma.generator,
        lambda gamma: gamma._generator,
    ),
    "MixedProfile.from_probs": (
        _own, "probs",
        MixedProfile.from_probs, lambda x: x.probs, lambda x: x._shared,
    ),
    "MixedProfile.from_positive_weights": (
        _own, "positive",
        MixedProfile.from_positive_weights, lambda x: x.probs, lambda x: x._shared,
    ),
}


def _draw(rng, count, form, positive):
    """count values that ``form`` can carry: integers for the int forms,
    else rationals (floats in the float form)."""
    low = 1 if positive else -9
    if form in ("int", "numpy int"):
        return [F(rng.randint(low, 9)) for _ in range(count)]
    if form == "float":
        return [rng.randint(low, 9) / rng.choice([1, 2, 3, 8]) for _ in range(count)]
    return [F(rng.randint(low, 9), rng.choice([1, 2, 3, 4, 6])) for _ in range(count)]


def _probs(rng, count, form):
    """A probability vector that ``form`` can carry: pure for the int forms."""
    if form in ("int", "numpy int"):
        k = rng.randrange(count)
        return [F(int(j == k)) for j in range(count)]
    weights = _draw(rng, count, form, True)
    total = sum(weights)
    return [w / total for w in weights]


def _expected_shared(values, exact, normalize):
    """(numerators, denominator) of ``values`` in shared form; ``normalize``
    puts the numerators over their sum, as a normalized profile is stored."""
    if not exact:
        if normalize:
            total = sum(values)
            return [v / total for v in values], 1
        return values, 1
    den = math.lcm(*(v.denominator for v in values))
    nums = [int(v * den) for v in values]
    return nums, (sum(nums) if normalize else den)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(2, 3), min_size=2, max_size=3),
    st.integers(0, 2**32 - 1),
    st.sampled_from(sorted(CONSTRUCTORS)),
    st.booleans(),
    st.booleans(),
    st.data(),
)
def test_every_entry_form_reads_as_its_value_and_is_stored_shared(
    sizes, seed, name, exact, nested, data
):
    form = data.draw(st.sampled_from(sorted(FORMS[exact])), label="form")
    shapes, kind, build, view, stored = CONSTRUCTORS[name]
    rng = random.Random(seed)
    space = StrategySpace(tuple(tuple("abc"[:m]) for m in sizes))
    to_form = FORMS[exact][form]
    scalar = F if exact else float
    values, given_data = [], []
    for shape in shapes(space):
        size = math.prod(shape)
        if kind == "probs":
            row = _probs(rng, size, form)
        else:
            row = _draw(rng, size, form, kind == "positive")
        entries = [to_form(v) for v in row]
        if nested:
            entries = np.array(entries, dtype=object).reshape(shape).tolist()
        values.append([scalar(v) for v in row])
        given_data.append(entries)

    obj = build(space, given_data, exact)
    normalize = name == "MixedProfile.from_positive_weights"
    assert obj.exact is exact
    arrays = view(obj)
    assert len(arrays) == len(values)
    for arr, row, shape in zip(arrays, values, shapes(space)):
        assert arr.shape == shape and not arr.flags.writeable
        read = arr.reshape(-1).tolist()
        if normalize and exact:
            assert read == [v / sum(row) for v in row]
        elif normalize:
            assert read == _expected_shared(row, False, True)[0]
        else:
            assert read == row
        assert all(type(v) is scalar for v in read)
    for x, row in zip(stored(obj), values):
        nums, den = _expected_shared(row, exact, normalize)
        assert x.den == den
        assert x.num.reshape(-1).tolist() == nums
        if exact:
            assert x.num.dtype == object and all(type(n) is int for n in x.num.reshape(-1).tolist())
        else:
            assert x.num.dtype == np.float64


SPACE = StrategySpace((("s", "t"),) * 2)


def _payoffs(first, exact=True):
    """A game on 2x2 whose first entry, for both players, is ``first``."""
    return Game.from_payoffs(SPACE, [[first, 1, 1, 1]] * 2, exact)


@pytest.mark.parametrize(
    "build, error, text",
    [
        # an int64 tensor was stored as a float game, whose + wrapped around
        (
            lambda: Game(SPACE, (np.full((2, 2), 2**62),) * 2),
            ValidationError,
            "dtype int64 is neither object (exact) nor float64",
        ),
        (
            lambda: Game(SPACE, (np.array([[1, 0.5], [1, 1]], dtype=object),) * 2),
            ValidationError,
            "float 0.5 given as an exact scalar; pass an int, a Fraction or a 'p/q' "
            "string, or build the value in float mode",
        ),
        (lambda: _payoffs("x"), ParseError, "not an integer or p/q rational: 'x'"),
        (lambda: _payoffs(None), ValidationError, "not a scalar: None"),
        # one literal rule: a document refuses the decimal as well
        (lambda: _payoffs("1.5"), ParseError, "not an integer or p/q rational: '1.5'"),
        (
            lambda: _payoffs(10**400, exact=False),
            ValidationError,
            "a payoff tensor entry leaves the float range (inf); use exact mode",
        ),
        (
            lambda: _payoffs(float("nan"), exact=False),
            ValidationError,
            "a payoff tensor entry leaves the float range (nan); use exact mode",
        ),
        (
            lambda: MixedProfile.from_positive_weights(SPACE, [[1, float("nan")], [1, 1]], False),
            ValidationError,
            "a weight vector entry leaves the float range (nan); use exact mode",
        ),
        (
            lambda: map_equilibrium_under_scaling(
                MixedProfile.uniform(SPACE, exact=False), [[float("inf"), 1], [1, 1]]
            ),
            ValidationError,
            "a generator entry leaves the float range (inf); use exact mode",
        ),
        (
            lambda: Game.from_payoffs(SPACE, [[[1, 2], [3]]] * 2),
            ValidationError,
            "shape mismatch: expected (2, 2) (or flat length 4), got (2,)",
        ),
    ],
    ids=["int64-tensor", "float-in-object-tensor", "exact-x", "exact-None", "exact-1.5",
         "float-10**400", "float-nan", "float-nan-weight", "float-inf-generator", "ragged"],
)
def test_bad_entries_get_one_typed_error(build, error, text):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error and str(caught.value) == text


def test_float_mode_reads_a_rational_string():
    assert _payoffs("1/2", exact=False).payoffs[0][0, 0] == 0.5
