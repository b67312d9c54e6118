"""Decomposition's inner product, d^2, B^2 and closest potential game against
the plain-Fraction weighted sum in oracles.py, on seeded games."""

import random
from fractions import Fraction as F

import numpy as np
import pytest

from gamedecomp import CoMeasureVector, Game, MeasureVector, StrategySpace, decompose
from gamedecomp.laws import PARAM_VALUES, random_game
from gamedecomp.numeric import tolerance
from oracles import min_norm_weight, weighted_sum

CASES = [
    ((2, 2), False), ((3, 3, 3), False), ((2, 3, 4), False), ((2,) * 5, False),
    ((2, 2), True), ((3, 3, 3), True), ((2, 3, 2), True), ((2,) * 4, True),
]


def _instance(sizes, wide):
    """Two seeded games and mu, gamma: entries from the law suite's values, or
    with numerators and denominators up to 10^4."""
    rng = random.Random(f"bounds-oracle:{sizes}:{wide}")
    space = StrategySpace(tuple(tuple(f"s{k}" for k in range(m)) for m in sizes))

    def draw():
        return F(rng.randint(1, 10**4), rng.randint(1, 10**4)) if wide else rng.choice(PARAM_VALUES)

    g, other = random_game(rng, space), random_game(rng, space)
    mu = MeasureVector.from_weights(space, [[draw() for _ in range(m)] for m in sizes])
    gamma = CoMeasureVector.from_tensors(
        space, [[draw() for _ in range(space.num_opp_profiles(i))] for i in space.players]
    )
    return g, other, mu, gamma


def _as_float(space, *values):
    g, other, mu, gamma = values
    return (
        *(Game.from_payoffs(space, [x.flat(i) for i in space.players], exact=False)
          for x in (g, other)),
        MeasureVector.from_weights(space, [[float(v) for v in w] for w in mu.weights], exact=False),
        CoMeasureVector.from_tensors(
            space, [[float(v) for v in t.reshape(-1)] for t in gamma.tensors], exact=False
        ),
    )


def _minus(a: Game, b: Game) -> Game:
    """a - b entry by entry in plain Fractions."""
    space = a.space
    return Game.from_payoffs(space, [
        [F(a.payoffs[i][s]) - F(b.payoffs[i][s]) for s in space.profiles()]
        for i in space.players
    ])


@pytest.mark.parametrize("sizes, wide", CASES)
def test_exact_bounds_equal_the_oracle(sizes, wide):
    g, other, mu, gamma = _instance(sizes, wide)
    parts = decompose(g, mu, gamma)
    games = [g, other, *parts.components()]
    for a in games:
        for b in games:
            assert parts.inner_product(a, b) == weighted_sum(a, b, mu, gamma)
    d2 = weighted_sum(parts.harmonic, parts.harmonic, mu, gamma)
    assert parts.distance_sq == d2
    assert parts.epsilon_bound() == 4 * d2 / min_norm_weight(mu, gamma)
    closest, dist_sq = parts.closest_potential()
    assert dist_sq == d2
    assert closest == _minus(g, parts.harmonic)
    gap = _minus(g, closest)
    assert weighted_sum(gap, gap, mu, gamma) == d2


@pytest.mark.parametrize("sizes, wide", CASES)
def test_float_bounds_track_the_oracle(sizes, wide):
    g, other, mu, gamma = _instance(sizes, wide)
    space = g.space
    exact = decompose(g, mu, gamma)
    gf, otherf, muf, gammaf = _as_float(space, g, other, mu, gamma)
    parts = decompose(gf, muf, gammaf)
    pairs = list(zip([g, other, *exact.components()], [gf, otherf, *parts.components()]))
    # every value compared is bounded by the largest squared norm in play
    scale = float(max(weighted_sum(a, a, mu, gamma) for a, _ in pairs))
    for a, fa in pairs:
        for b, fb in pairs:
            want = float(weighted_sum(a, b, mu, gamma))
            assert abs(parts.inner_product(fa, fb) - want) <= tolerance(scale)
    d2 = float(weighted_sum(exact.harmonic, exact.harmonic, mu, gamma))
    assert abs(parts.distance_sq - d2) <= tolerance(scale)
    worst = float(min_norm_weight(mu, gamma))
    assert abs(parts.epsilon_bound() - 4 * d2 / worst) <= tolerance(4 * scale / worst)
    closest, dist_sq = parts.closest_potential()
    assert abs(dist_sq - d2) <= tolerance(scale)
    want = _minus(g, exact.harmonic)
    size = max(float(np.max(np.abs(p.astype(float)))) for p in g.payoffs)
    for i in space.players:
        got = np.asarray(closest.payoffs[i]) - want.payoffs[i].astype(float)
        assert float(np.max(np.abs(got))) <= tolerance(size)
