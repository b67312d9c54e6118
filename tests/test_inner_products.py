import random

import pytest

from gamedecomp import (
    CoMeasureVector,
    Game,
    MeasureVector,
    ScalarField,
    StrategySpace,
    ValidationError,
    game_norm_sq,
    inner_product_c0,
    inner_product_game,
    lambda_project,
    pi_project,
    validate_parameters,
)
from gamedecomp.laws import random_game, random_gamma, random_mu, random_space

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
    validate_parameters(SPACE, MU, GAMMA)
    with pytest.raises(ValidationError, match="nonpositive measure"):
        validate_parameters(SPACE, MeasureVector.from_weights(SPACE, [[0, 1], [1, 1]]), GAMMA)
    with pytest.raises(ValidationError, match="shape mismatch"):
        CoMeasureVector.from_tensors(SPACE, [[1, 1, 1], [1, 1]])
    with pytest.raises(ValidationError, match="nonpositive co-measure"):
        validate_parameters(SPACE, MU, CoMeasureVector.from_tensors(SPACE, [[1, -1], [1, 1]]))


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_validate_parameters_names_first_offender(exact):
    """The first nonpositive entry, in player then row-major order, is named."""
    unit = CoMeasureVector.uniform(SPACE, exact=exact)
    zero, minus3 = ("0", "-3") if exact else ("0.0", "-3.0")

    def mu(weights):
        return MeasureVector.from_weights(SPACE, weights, exact)

    with pytest.raises(ValidationError, match=rf"^nonpositive measure: mu\^2\(t\) = {zero}$"):
        validate_parameters(SPACE, mu([[1, 1], [1, 0]]), unit)
    with pytest.raises(
        ValidationError, match=rf"^nonpositive co-measure: gamma\^2 entry 1 = {minus3}$"
    ):
        gamma = CoMeasureVector.from_tensors(SPACE, [[1, 1], [2, -3]], exact)
        validate_parameters(SPACE, mu([[1, 1], [1, 1]]), gamma)
    with pytest.raises(ValidationError, match=r"^nonpositive measure: mu\^1\(s\) = -1"):
        validate_parameters(SPACE, mu([[-1, 0], [0, 1]]), unit)


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


def test_measure_product_arrays():
    mu = MeasureVector.from_weights(SPACE, [[1, 2], [3, 4]])
    assert mu.total(0) == 3 and mu.total(1) == 7
    assert mu.product_array().reshape(-1).tolist() == [3, 4, 6, 8]
    assert mu.opp_product_array(0).tolist() == [3, 4]
    assert mu.opp_product_array(1).tolist() == [1, 2]
    assert sum(mu.normalized(0).tolist()) == 1


def test_product_gamma_matches_generator():
    space = StrategySpace((("a", "b"), ("a", "b"), ("a", "b")))
    gen = [[1, 2], [3, 4], [5, 6]]
    gamma = CoMeasureVector.from_generator(space, gen)
    # gamma^1(s^2, s^3) = c^2(s^2) c^3(s^3), row-major over (player 2, player 3)
    assert gamma.tensors[0].reshape(-1).tolist() == [15, 18, 20, 24]
    assert gamma.tensors[1].reshape(-1).tolist() == [5, 6, 10, 12]
    assert gamma.tensors[2].reshape(-1).tolist() == [3, 4, 6, 8]
