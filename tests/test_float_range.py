"""Float calls at the edge of the float range.

Every public call that computes on float tensors either returns finite
values or raises one ``ValidationError`` ending in "; use exact mode": never
a numpy warning (pytest turns one into an error here), an ``inf`` or a
``nan``.  The guard that decides it, ``numeric._float_range``, is the only
place float overflow is caught.
"""

import inspect
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import gamedecomp
from gamedecomp import (
    CoMeasureVector,
    Decomposition,
    DuplicationSpec,
    Game,
    GameDocument,
    MeasureVector,
    MixedProfile,
    PermutationSpec,
    RedundancySpec,
    ScalarField,
    StrategySpace,
    ValidationError,
    best_response_epsilon,
    co_measure_inverse,
    co_measure_quotient,
    decompose,
    expected_payoff,
    extend_duplicate,
    extract_potential,
    harmonic_equilibrium,
    is_gamma_potential,
    is_harmonic,
    is_mu_normalized,
    is_nonstrategic,
    map_equilibrium_under_scaling,
    permute,
    permute_params,
    pure_equilibrium_from_potential,
    reduce_duplicate,
    reduce_redundant,
    scale,
    serialize_game,
    translate_nonstrategic,
)
from gamedecomp import numeric
from gamedecomp.equilibrium import pure_regret
from gamedecomp.games import game_norm_sq, inner_product_c0, inner_product_game
from gamedecomp.operators import lambda_project, pi_project

SPACE = StrategySpace((("a", "b"),) * 2)
BIG = 1e308
HEAVY = 1e300
TINY = 5e-324  # the smallest subnormal: positive, and 1 / TINY overflows


def _pennies(v):
    return Game.from_payoffs(SPACE, [[v, -v, -v, v], [-v, v, v, -v]], exact=False)


def _weights(space):
    """Unit weights, and every weight at 1e300, on ``space``."""
    heavy = [[HEAVY] * m for m in space.sizes]
    return {
        "unit": (
            MeasureVector.uniform(space, exact=False), CoMeasureVector.uniform(space, exact=False)
        ),
        "1e300": (
            MeasureVector.from_weights(space, heavy, exact=False),
            CoMeasureVector.from_generator(space, heavy, exact=False),
        ),
    }


PENNIES = _pennies(BIG)
FLAT = Game.from_payoffs(SPACE, [[BIG] * 4] * 2, exact=False)  # nonstrategic
WEIGHTS = _weights(SPACE)
TINY_GAMMA = CoMeasureVector.from_generator(SPACE, [[TINY] * 2] * 2, exact=False)
PURE = MixedProfile.pure(SPACE, (0, 0), exact=False)
# strategy a of player 1 against b, its alpha mixture, differ by 2e308
SPACE_3X2 = StrategySpace((("a", "b", "c"), ("a", "b")))
THREE_ROWS = Game.from_payoffs(SPACE_3X2, [[BIG, BIG, -BIG, -BIG, 0, 0]] * 2, exact=False)


def _with_weights(name, call, space=SPACE):
    """One case per weight set on ``space``: call(mu, gamma)."""
    return {f"{name}[{w}]": (lambda mu=mu, gamma=gamma: call(mu, gamma))
            for w, (mu, gamma) in _weights(space).items()}


_LIBRARY_CASES = {
    "is_nonstrategic": lambda: is_nonstrategic(PENNIES),
    **_with_weights("is_mu_normalized", lambda mu, gamma: is_mu_normalized(PENNIES, mu)),
    **_with_weights("is_gamma_potential", lambda mu, gamma: is_gamma_potential(PENNIES, gamma)),
    **_with_weights("is_harmonic", lambda mu, gamma: is_harmonic(PENNIES, mu, gamma)),
    **_with_weights("decompose", lambda mu, gamma: decompose(PENNIES, mu, gamma)),
    **_with_weights("extract_potential", lambda mu, gamma: extract_potential(PENNIES, gamma)),
    "permute": lambda: permute(PENNIES, PermutationSpec(0, (1, 0))),
    **_with_weights(
        "permute_params", lambda mu, gamma: permute_params(mu, gamma, PermutationSpec(0, (1, 0)))
    ),
    "translate_nonstrategic": lambda: translate_nonstrategic(FLAT, FLAT),
    **_with_weights("scale", lambda mu, gamma: scale(PENNIES, gamma)),
    **_with_weights("co_measure_quotient", lambda mu, gamma: co_measure_quotient(gamma, TINY_GAMMA)),
    "co_measure_inverse": lambda: co_measure_inverse(TINY_GAMMA),
    **_with_weights(
        "extend_duplicate",
        lambda mu, gamma: extend_duplicate(PENNIES, mu, gamma, DuplicationSpec(0, "a", "c")),
    ),
    **_with_weights(
        "reduce_duplicate", lambda mu, gamma: reduce_duplicate(PENNIES, mu, gamma, 0, "a", "b")
    ),
    **_with_weights(
        "reduce_redundant",
        lambda mu, gamma: reduce_redundant(
            THREE_ROWS, mu, gamma, RedundancySpec(0, "a", (Fraction(1), Fraction(0)))
        ),
        SPACE_3X2,
    ),
    "expected_payoff": lambda: expected_payoff(PENNIES, PURE, 1),
    "best_response_epsilon": lambda: best_response_epsilon(PENNIES, PURE),
    **_with_weights(
        "harmonic_equilibrium", lambda mu, gamma: harmonic_equilibrium(PENNIES, mu, gamma)
    ),
    "map_equilibrium_under_scaling": lambda: map_equilibrium_under_scaling(
        MixedProfile.uniform(SPACE, exact=False), [[TINY, TINY], [1.0, 1.0]]
    ),
    # each y^1 entry, 0.5 / 4e-309, is in range; their sum is not
    "map_equilibrium_under_scaling[4e-309]": lambda: map_equilibrium_under_scaling(
        MixedProfile.uniform(SPACE, exact=False), [[4e-309, 4e-309], [1.0, 1.0]]
    ),
    **_with_weights(
        "pure_equilibrium_from_potential",
        lambda mu, gamma: pure_equilibrium_from_potential(PENNIES, gamma),
    ),
    **_with_weights(
        "serialize_game", lambda mu, gamma: serialize_game(GameDocument(PENNIES, mu, gamma))
    ),
}

# parse_game reads text; the constructors it builds with have cases below
_NO_FLOAT_OPERANDS = {"parse_game"}


def _decompositions():
    """matching pennies at +-1e200, whose parts are in range but whose norms
    are not, and a triple of parts at 1e308, whose sums are not."""
    mu, gamma = WEIGHTS["unit"]
    yield "1e200", decompose(_pennies(1e200), mu, gamma), _pennies(1e200)
    zero = ScalarField.zeros(SPACE, exact=False)
    yield "1e308-parts", Decomposition(FLAT, FLAT, FLAT, zero, mu, gamma), FLAT


_DECOMPOSITION_CASES = {
    f"Decomposition.{method}[{name}]": (lambda parts=parts, g=g, call=call: call(parts, g))
    for name, parts, g in _decompositions()
    for method, call in {
        "components": lambda parts, g: parts.components(),
        "total": lambda parts, g: parts.total(),
        "reconstructs": lambda parts, g: parts.reconstructs(g),
        "inner_product": lambda parts, g: parts.inner_product(parts.harmonic, parts.harmonic),
        "distance_sq": lambda parts, g: parts.distance_sq,
        "closest_potential": lambda parts, g: parts.closest_potential(),
        "epsilon_bound": lambda parts, g: parts.epsilon_bound(),
    }.items()
}

EDGE_FIELD = ScalarField.from_values(SPACE, [BIG, -BIG, BIG, -BIG], exact=False)
_MU_1E300, _GAMMA_1E300 = WEIGHTS["1e300"]
_UNIT_MU, _UNIT_GAMMA = WEIGHTS["unit"]

# Value-type methods that compute: the operators answer, or refuse a result
# out of range, without a numpy warning.
_VALUE_TYPE_CASES = {
    "Game.__add__": lambda: PENNIES + PENNIES,
    "Game.__sub__": lambda: PENNIES - _pennies(-BIG),
    "Game.__eq__": lambda: PENNIES == _pennies(-BIG),
    "ScalarField.__add__": lambda: EDGE_FIELD + EDGE_FIELD,
    "ScalarField.__sub__": lambda: EDGE_FIELD - ScalarField.from_values(
        SPACE, [-BIG, BIG, -BIG, BIG], exact=False
    ),
    "ScalarField.__eq__": lambda: EDGE_FIELD == ScalarField.from_values(
        SPACE, [-BIG, BIG, -BIG, BIG], exact=False
    ),
    "MeasureVector.scaled": lambda: _MU_1E300.scaled(1e10),
    "MeasureVector.scaled[10^400]": lambda: _UNIT_MU.scaled(10**400),
    "CoMeasureVector.scaled": lambda: _GAMMA_1E300.scaled(1e10),
    "CoMeasureVector.scaled[10^400]": lambda: _UNIT_GAMMA.scaled(Fraction(10**400, 3)),
    "MeasureVector.total": lambda: MeasureVector.from_weights(
        SPACE, [[BIG, BIG], [1, 1]], exact=False
    ).total(0),
    "MeasureVector.product_array": lambda: WEIGHTS["1e300"][0].product_array(),
    "CoMeasureVector.from_generator": lambda: CoMeasureVector.from_generator(
        StrategySpace((("a", "b"),) * 3), [[HEAVY] * 2] * 3, exact=False
    ),
    "MixedProfile.from_probs": lambda: MixedProfile.from_probs(
        SPACE, [[BIG, BIG], [1, 0]], exact=False
    ),
    "MixedProfile.from_positive_weights": lambda: MixedProfile.from_positive_weights(
        SPACE, [[BIG, BIG], [1, 1]], exact=False
    ),
}

# The internal helpers README lists as importable from their modules.
_HELPER_CASES = {
    "pure_regret": lambda: pure_regret(PENNIES),
    "inner_product_game": lambda: inner_product_game(
        _pennies(1e200), _pennies(1e200), _UNIT_MU, _UNIT_GAMMA
    ),
    "game_norm_sq": lambda: game_norm_sq(_pennies(1e200), _UNIT_MU, _UNIT_GAMMA),
    "inner_product_c0": lambda: inner_product_c0(
        ScalarField.from_values(SPACE, [1e200] * 4, exact=False),
        ScalarField.from_values(SPACE, [1e200] * 4, exact=False),
        _UNIT_MU,
    ),
    "lambda_project": lambda: lambda_project(FLAT, _UNIT_MU),
    "pi_project": lambda: pi_project(FLAT, _UNIT_MU),
}

_CASES = {**_LIBRARY_CASES, **_DECOMPOSITION_CASES, **_VALUE_TYPE_CASES, **_HELPER_CASES}


def _finite(value) -> bool:
    """Every number in ``value``, a nest of tuples, lists, library objects
    and scalars, is finite."""
    if isinstance(value, Decomposition):
        value = (*value.components(), value.phi)
    if isinstance(value, (tuple, list)):
        return all(map(_finite, value))
    if hasattr(value, "_shared"):
        return all(np.isfinite(x.num).all() for x in value._shared)
    return isinstance(value, str) or math.isfinite(value)


@pytest.mark.parametrize("call", _CASES.values(), ids=_CASES.keys())
def test_float_calls_at_the_range_edge_are_finite_or_point_to_exact_mode(call):
    try:
        result = call()
    except ValidationError as exc:
        assert str(exc).endswith("; use exact mode"), str(exc)
    else:
        assert _finite(result), result


def test_every_public_function_has_an_edge_case():
    functions = {
        name for name in gamedecomp.__all__ if inspect.isfunction(getattr(gamedecomp, name))
    }
    covered = {case.split("[")[0] for case in _LIBRARY_CASES}
    assert functions - _NO_FLOAT_OPERANDS == covered
    methods = {name for name in vars(Decomposition) if not name.startswith("_")}
    assert {f"Decomposition.{name}" for name in methods} == {
        case.split("[")[0] for case in _DECOMPOSITION_CASES
    }


def test_float_equality_at_the_range_edge_answers_as_within_range():
    # 1e308 and -1e308 differ by more than the float range holds; entries
    # closer than tolerance(1e308) = 1e299 are equal, as a - b decides
    assert PENNIES == _pennies(BIG) and not PENNIES == _pennies(-BIG)
    assert EDGE_FIELD != ScalarField.from_values(SPACE, [-BIG, BIG, -BIG, BIG], exact=False)
    assert PENNIES == _pennies(BIG * (1 + 1e-12))
    assert PENNIES != _pennies(BIG * (1 - 1e-6))


def test_float_range_is_caught_only_by_the_numeric_guard():
    # one place: numeric._float_range, applied as a decorator
    package = Path(gamedecomp.__file__).parent
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        assert "with _float_range" not in text, path.name
        if path.name != "numeric.py":
            assert "errstate" not in text and "FloatingPointError" not in text, path.name
    text, guard = (package / "numeric.py").read_text(), inspect.getsource(numeric._float_range)
    for word in ("errstate", "FloatingPointError"):
        assert text.count(word) == guard.count(word) == 1
