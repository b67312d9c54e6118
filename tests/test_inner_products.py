import random
from fractions import Fraction

import pytest

from gamedecomp import (
    CoMeasureVector,
    Game,
    MeasureVector,
    MixedProfile,
    ParseError,
    ScalarField,
    StrategySpace,
    ValidationError,
    parse_game,
)
from gamedecomp.equilibrium import map_equilibrium_under_scaling
from gamedecomp.games import (
    game_norm_sq,
    inner_product_c0,
    inner_product_game,
    validate_parameters,
)
from gamedecomp.operators import lambda_project, pi_project
from gamedecomp.laws import random_game, random_gamma, random_mu, random_space
from oracles import opp_product

SPACE = StrategySpace((("s", "t"), ("s", "t")))
MP = Game.from_payoffs(SPACE, [[1, -1, -1, 1], [-1, 1, 1, -1]])
MU = MeasureVector.uniform(SPACE)
GAMMA = CoMeasureVector.uniform(SPACE)


def test_inner_product_c0_examples():
    zero = ScalarField.zeros(SPACE)
    assert inner_product_c0(zero, zero, MU) == 0

    indicator = ScalarField.from_values(SPACE, [1, 0, 0, 0])
    assert inner_product_c0(indicator, indicator, MU) == 1

    g1 = ScalarField.from_values(SPACE, [1, -1, -1, 1])
    assert inner_product_c0(g1, g1, MU) == 4


def test_inner_product_game_examples():
    zero = Game.zeros(SPACE)
    assert inner_product_game(zero, MP, MU, GAMMA) == 0
    # sum_i mu^i(S^i) <gamma g^i, gamma g^i>_0 = 2*4 + 2*4
    assert inner_product_game(MP, MP, MU, GAMMA) == 16
    assert game_norm_sq(MP, MU, GAMMA) == inner_product_game(MP, MP, MU, GAMMA)


def test_nonstrategic_orthogonal_to_normalized():
    rng = random.Random(11)
    for _ in range(25):
        space = random_space(rng, (2, 3), (2, 4))
        g1, g2 = random_game(rng, space), random_game(rng, space)
        mu, gamma = random_mu(rng, space), random_gamma(rng, space)
        nonstrategic = lambda_project(g1, mu)
        normalized = pi_project(g2, mu)
        assert inner_product_game(nonstrategic, normalized, mu, gamma) == 0


def test_bilinearity_symmetry_positivity():
    rng = random.Random(5)
    for _ in range(25):
        space = random_space(rng, (2, 3), (2, 3))
        g1, g2 = random_game(rng, space), random_game(rng, space)
        mu, gamma = random_mu(rng, space), random_gamma(rng, space)
        a = inner_product_game(g1, g2, mu, gamma)
        assert a == inner_product_game(g2, g1, mu, gamma)
        summed = inner_product_game(g1 + g2, g2, mu, gamma)
        assert summed == a + inner_product_game(g2, g2, mu, gamma)
        norm = game_norm_sq(g1, mu, gamma)
        assert norm >= 0
        assert (norm == 0) == g1.is_zero()


def test_validate_parameters_reports_offender():
    validate_parameters(MU, GAMMA)
    with pytest.raises(ValidationError, match="nonpositive measure"):
        validate_parameters(MeasureVector.from_weights(SPACE, [[0, 1], [1, 1]]), GAMMA)
    with pytest.raises(ValidationError, match="shape mismatch"):
        CoMeasureVector.from_tensors(SPACE, [[1, 1, 1], [1, 1]])
    with pytest.raises(ValidationError, match="nonpositive co-measure"):
        validate_parameters(MU, CoMeasureVector.from_tensors(SPACE, [[1, -1], [1, 1]]))


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_validate_parameters_names_first_offender(exact):
    """The first nonpositive entry, in player then row-major order, is named."""
    unit = CoMeasureVector.uniform(SPACE, exact=exact)
    zero, minus3 = ("0", "-3") if exact else ("0.0", "-3.0")

    def mu(weights):
        return MeasureVector.from_weights(SPACE, weights, exact)

    with pytest.raises(ValidationError, match=rf"^nonpositive measure: mu\^2\(t\) = {zero}$"):
        validate_parameters(mu([[1, 1], [1, 0]]), unit)
    with pytest.raises(
        ValidationError, match=rf"^nonpositive co-measure: gamma\^2 entry 1 = {minus3}$"
    ):
        gamma = CoMeasureVector.from_tensors(SPACE, [[1, 1], [2, -3]], exact)
        validate_parameters(mu([[1, 1], [1, 1]]), gamma)
    with pytest.raises(ValidationError, match=r"^nonpositive measure: mu\^1\(s\) = -1"):
        validate_parameters(mu([[-1, 0], [0, 1]]), unit)


NONPOSITIVE_PARAMETERS = {
    "MeasureVector.from_weights": (
        lambda exact: MeasureVector.from_weights(SPACE, [[1, 2], [0, -1]], exact),
        r"nonpositive measure: mu\^2\(s\) = 0",
    ),
    "MeasureVector.uniform": (
        lambda exact: MeasureVector.uniform(SPACE, -2, exact),
        r"nonpositive measure: mu\^1\(s\) = -2",
    ),
    "CoMeasureVector.from_tensors": (
        lambda exact: CoMeasureVector.from_tensors(SPACE, [[1, 1], [2, -3]], exact),
        r"nonpositive co-measure: gamma\^2 entry 1 = -3",
    ),
    "CoMeasureVector.from_generator": (
        lambda exact: CoMeasureVector.from_generator(SPACE, [[1, 0], [3, 4]], exact),
        r"nonpositive co-measure: gamma\^2 entry 1 = 0",
    ),
    "CoMeasureVector.uniform": (
        lambda exact: CoMeasureVector.uniform(SPACE, 0, exact),
        r"nonpositive co-measure: gamma\^1 entry 0 = 0",
    ),
}


@pytest.mark.parametrize(
    "build, message", NONPOSITIVE_PARAMETERS.values(), ids=NONPOSITIVE_PARAMETERS.keys()
)
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_parameters_refuse_nonpositive_entries_when_built(build, message, exact):
    """Strict positivity is an invariant of both parameter types, in both modes."""
    with pytest.raises(ValidationError, match=rf"^{message}(\.0)?$"):
        build(exact)


SPACE3 = StrategySpace((("a", "b"),) * 3)
_DOC = (
    "gamedoc 1\nplayers 2\nstrategies 1: s t\nstrategies 2: s t\n"
    "payoffs 1: 1 2 3 4\npayoffs 2: 1 2 3 4\n"
)

# With NONPOSITIVE_PARAMETERS, every entry point where outside data becomes a
# checked object, each with a bad input and the exact text it is refused
# with: (build, error, text, value), the value printed in the scalar mode.
BOUNDARY_REFUSALS = {
    "CoMeasureVector.from_generator-tensor": (
        lambda exact: CoMeasureVector.from_generator(SPACE, [[1, -1], [1, 1]], exact),
        ValidationError, "nonpositive co-measure: gamma^2 entry 1 = {}", -1,
    ),
    "CoMeasureVector.from_generator-generator": (
        lambda exact: CoMeasureVector.from_generator(SPACE3, [[-1, -1]] * 3, exact),
        ValidationError, "nonpositive co-measure generator: c^1(a) = {}", -1,
    ),
    "CoMeasureVector.from_tensors": (
        lambda exact: CoMeasureVector.from_tensors(SPACE, [[1, 0], [3, 4]], exact),
        ValidationError, "nonpositive co-measure: gamma^1 entry 1 = {}", 0,
    ),
    "MeasureVector.scaled": (
        lambda exact: MeasureVector.uniform(SPACE, exact=exact).scaled(0),
        ValidationError, "nonpositive measure: mu^1(s) = {}", 0,
    ),
    "CoMeasureVector.scaled": (
        lambda exact: CoMeasureVector.from_tensors(SPACE, [[1, 2], [3, 4]], exact).scaled(-2),
        ValidationError, "nonpositive co-measure: gamma^1 entry 0 = {}", -2,
    ),
    "map_equilibrium_under_scaling-zero": (
        lambda exact: map_equilibrium_under_scaling(
            MixedProfile.uniform(SPACE, exact), [[1, 1], [0, 2]]
        ),
        ValidationError, "nonpositive co-measure: gamma^1 entry 0 = {}", 0,
    ),
    "map_equilibrium_under_scaling-negative": (
        lambda exact: map_equilibrium_under_scaling(
            MixedProfile.uniform(SPACE, exact), [[1, -1], [1, 2]]
        ),
        ValidationError, "nonpositive co-measure: gamma^2 entry 1 = {}", -1,
    ),
    "MixedProfile.from_positive_weights": (
        lambda exact: MixedProfile.from_positive_weights(SPACE, [[1, 1], [0, 2]], exact),
        ValidationError, "nonpositive weight for player 2: w(s) = {}", 0,
    ),
    "parse_game-gamma": (
        lambda exact: parse_game(_DOC + "gamma 2: 1 0\n", exact),
        ParseError, "nonpositive co-measure: gamma^2 entry 1 = {}", 0,
    ),
    "parse_game-generator": (
        lambda exact: parse_game(_DOC + "generator 1: 1 -1\ngenerator 2: 1 1\n", exact),
        ParseError, "nonpositive co-measure: gamma^2 entry 1 = {}", -1,
    ),
    # the class constructors take numpy arrays; nested lists go to from_*
    "Game": (
        lambda exact: Game(SPACE, ([[1, 2], [3, 4]],) * 2),
        ValidationError, "Game: payoff tensor 1 is a list, not a numpy array; "
        "build from nested data with Game.from_payoffs", 0,
    ),
    "ScalarField": (
        lambda exact: ScalarField(SPACE, [1, 2, 3, 4]),
        ValidationError, "ScalarField: field 1 is a list, not a numpy array; "
        "build from nested data with ScalarField.from_values", 0,
    ),
    "MeasureVector": (
        lambda exact: MeasureVector(SPACE, ([1, 2], [3, 4])),
        ValidationError, "MeasureVector: weight vector 1 is a list, not a numpy array; "
        "build from nested data with MeasureVector.from_weights", 0,
    ),
    "CoMeasureVector": (
        lambda exact: CoMeasureVector(SPACE, ([1, 2], (3, 4))),
        ValidationError, "CoMeasureVector: co-measure tensor 1 is a list, not a numpy array; "
        "build from nested data with CoMeasureVector.from_tensors", 0,
    ),
    "CoMeasureVector-generator": (
        lambda exact: CoMeasureVector(
            SPACE, CoMeasureVector.uniform(SPACE, exact=exact).tensors, [[1, 1], [1, 1]]
        ),
        ValidationError, "CoMeasureVector: generator vector 1 is a list, not a numpy array; "
        "build from nested data with CoMeasureVector.from_generator", 0,
    ),
    "MixedProfile": (
        lambda exact: MixedProfile(SPACE, (MixedProfile.uniform(SPACE).probs[0], (0, 1))),
        ValidationError, "MixedProfile: probability vector 2 is a tuple, not a numpy array; "
        "build from nested data with MixedProfile.from_probs", 0,
    ),
}


@pytest.mark.parametrize(
    "build, error, text, value", BOUNDARY_REFUSALS.values(), ids=BOUNDARY_REFUSALS.keys()
)
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_entry_points_refuse_bad_input_with_their_text(build, error, text, value, exact):
    with pytest.raises(error) as raised:
        build(exact)
    assert type(raised.value) is error
    assert str(raised.value) == text.format(Fraction(value) if exact else float(value))


def test_measure_product_arrays():
    mu = MeasureVector.from_weights(SPACE, [[1, 2], [3, 4]])
    assert mu.total(0) == 3 and mu.total(1) == 7
    assert mu.product_array().reshape(-1).tolist() == [3, 4, 6, 8]
    assert opp_product(mu, 0).tolist() == [3, 4]
    assert opp_product(mu, 1).tolist() == [1, 2]


def test_product_gamma_matches_generator():
    space = StrategySpace((("a", "b"), ("a", "b"), ("a", "b")))
    gen = [[1, 2], [3, 4], [5, 6]]
    gamma = CoMeasureVector.from_generator(space, gen)
    # gamma^1(s^2, s^3) = c^2(s^2) c^3(s^3), row-major over (player 2, player 3)
    assert gamma.tensors[0].reshape(-1).tolist() == [15, 18, 20, 24]
    assert gamma.tensors[1].reshape(-1).tolist() == [5, 6, 10, 12]
    assert gamma.tensors[2].reshape(-1).tolist() == [3, 4, 6, 8]
