import math
import random

import pytest

from gamedecomp import CoMeasureVector, MeasureVector, StrategySpace, parse_game
from gamedecomp.numeric import _Shared
from gamedecomp.laws import (
    LAWS,
    PARAM_VALUES,
    _draw_params,
    _minimize,
    random_game,
    random_gamma,
    random_mu,
    random_product_gamma,
    random_space,
    run_law,
)

ALL_LAWS = sorted(LAWS)


@pytest.mark.parametrize("law", ALL_LAWS)
def test_each_law_passes_smoke(law):
    report = run_law(law, trials=12, seed=2024)
    assert report.ok, f"{law}: {report.message}\n{report.counterexample}"


def test_reports_are_seed_deterministic():
    a = run_law("orthogonality", trials=6, seed=5)
    b = run_law("orthogonality", trials=6, seed=5)
    assert (a.ok, a.trials, a.seed) == (b.ok, b.trials, b.seed)


def test_failing_law_reports_minimized_counterexample(monkeypatch):
    def bogus_check(g, mu, gamma, aux):
        if any(v != 0 for v in g.flat(0)):
            return "player 1 has a nonzero payoff"
        return None

    monkeypatch.setitem(LAWS, "bogus", bogus_check)
    report = run_law("bogus", trials=3, seed=1)
    assert not report.ok
    assert report.failed_trial == 0
    assert "nonzero payoff" in report.message

    doc = parse_game(report.counterexample)
    nonzero = [v for v in doc.game.flat(0) if v != 0]
    assert len(nonzero) == 1  # greedy zeroing keeps a single witness entry
    assert all(m == 2 for m in doc.space.sizes)  # strategy deletion bottomed out


def test_minimizer_preserves_failure():
    rng = random.Random(17)
    space = random_space(rng, (2, 3), (3, 4))
    g = random_game(rng, space)
    mu, gamma = random_mu(rng, space), random_gamma(rng, space)

    def check(game, mv, cv, aux):
        return "always" if game.space.n_players >= 2 else None

    small_g, small_mu, small_gamma = _minimize(check, g, mu, gamma, "seed")
    assert check(small_g, small_mu, small_gamma, None) is not None
    assert all(v == 0 for i in small_g.space.players for v in small_g.flat(i))
    assert all(m == 2 for m in small_g.space.sizes)


def test_player_and_strategy_ranges_are_respected():
    for trial in range(10):
        rng = random.Random(f"9:{trial}")
        space = random_space(rng, (2, 2), (2, 2))
        assert space.n_players == 2
        assert space.sizes == (2, 2)


def _draws(rng, lengths):
    return [[rng.choice(PARAM_VALUES) for _ in range(k)] for k in lengths]


def _generator(gamma):
    return None if gamma.generator is None else [c.tolist() for c in gamma.generator]


def _replay(seed, space):
    """Draw mu, gamma and a product gamma from Random(seed), and check each
    against the public constructor fed the same draws from a twin Random;
    a counterexample replays from (law, seed, trial) only while they agree."""
    rng, twin = random.Random(seed), random.Random(seed)
    opp = [space.num_opp_profiles(i) for i in space.players]
    mu = random_mu(rng, space)
    assert mu == MeasureVector.from_weights(space, _draws(twin, space.sizes))
    gamma = random_gamma(rng, space)
    expected = CoMeasureVector.from_tensors(space, _draws(twin, opp))
    assert gamma == expected and _generator(gamma) == _generator(expected)
    product = random_product_gamma(rng, space)
    expected = CoMeasureVector.from_generator(space, _draws(twin, space.sizes))
    assert product == expected and _generator(product) == _generator(expected)
    assert rng.getstate() == twin.getstate()
    return gamma


def test_random_parameters_replay_the_public_constructors():
    for seed in range(30):
        _replay(seed, random_space(random.Random(f"space:{seed}"), (2, 3), (2, 4)))


@pytest.mark.parametrize("shape", [(1,), (2,), (3,), (4,), (2, 3), (3, 3, 4)])
def test_parameter_draws_are_the_shared_form_of_the_fraction_draws(shape):
    # the same numerators and denominator as _Shared.of builds from
    # rng.choice(PARAM_VALUES), from the same RNG stream
    for seed in range(200):
        rng, twin = random.Random(seed), random.Random(seed)
        drawn = _draw_params(rng, shape)
        built = _Shared.of(_draws(twin, [math.prod(shape)])[0], shape, exact=True)
        assert drawn.num.shape == shape
        assert (drawn.num.tolist(), drawn.den) == (built.num.tolist(), built.den)
        assert all(type(v) is int for v in drawn.num.reshape(-1).tolist())
        assert rng.getstate() == twin.getstate()


def test_an_all_ones_random_gamma_keeps_the_unit_generator():
    # on 2x2, Random(142) draws mu and then gamma entries that are all 1
    gamma = _replay(142, StrategySpace((("a", "b"), ("a", "b"))))
    assert gamma.is_all_ones()
    assert _generator(gamma) == [[1, 1], [1, 1]]
