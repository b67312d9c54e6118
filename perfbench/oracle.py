"""Independent exact (mu,gamma)-decomposition, used as the checker's reference.

The Laplacian L = sum_i mu^i(S^i) (I - Lambda^i) is a sum of commuting
per-axis projections. In the per-axis basis {1, e_j/mu_j - e_0/mu_0} every
Lambda^i is diag(1, 0, ..., 0) at once, so the minimal-norm Poisson solve is
a basis change along each axis, a division by sum_{i: k_i != 0} mu^i(S^i),
and the change back; dropping the all-constant coefficient pins the mu-mean
of phi to zero. This shares no code with the program under test.
"""

from __future__ import annotations

import gc
import math
import random
import time
from fractions import Fraction

from inputs import GameInput, make_game


def _along(values: list, sizes: tuple[int, ...], axis: int, fn) -> list:
    """Apply fn (a vector -> vector map) to every fibre of a row-major tensor along axis."""
    m = sizes[axis]
    inner = math.prod(sizes[axis + 1:])
    out = list(values)
    for base in range(0, len(values), m * inner):
        for r in range(inner):
            idx = [base + k * inner + r for k in range(m)]
            for i, v in zip(idx, fn([values[i] for i in idx])):
                out[i] = v
    return out


def _average(weights, total):
    def fn(x):
        mean = sum(w * v for w, v in zip(weights, x)) / total
        return [mean] * len(x)
    return fn


def _to_basis(weights, total):
    def fn(x):
        c0 = sum(w * v for w, v in zip(weights, x)) / total
        return [c0] + [w * (v - c0) for w, v in zip(weights[1:], x[1:])]
    return fn


def _from_basis(weights):
    def fn(c):
        rest = [cj / w for cj, w in zip(c[1:], weights[1:])]
        return [c[0] - sum(c[1:]) / weights[0]] + [c[0] + r for r in rest]
    return fn


def expand_gamma(game: GameInput, player: int) -> list:
    """gamma^i(s^-i) for every profile s, in row-major profile order."""
    sizes = game.sizes
    strides = [math.prod(sizes[j + 1:]) for j in range(len(sizes))]
    opp_sizes = sizes[:player] + sizes[player + 1:]
    opp_strides = [math.prod(opp_sizes[j + 1:]) for j in range(len(opp_sizes))]
    out = []
    for s in range(game.num_profiles):
        coords = [(s // strides[j]) % sizes[j] for j in range(len(sizes))]
        opp = coords[:player] + coords[player + 1:]
        out.append(game.gamma[player][sum(k * st for k, st in zip(opp, opp_strides))])
    return out


def decompose(game: GameInput) -> tuple[list, list, list]:
    """(nonstrategic, potential, harmonic) payoff rows, exactly."""
    sizes, n = game.sizes, game.players
    totals = [sum(w) for w in game.mu]
    gammas = [expand_gamma(game, i) for i in range(n)]
    nonstrategic = [_along(game.payoffs[i], sizes, i, _average(game.mu[i], totals[i])) for i in range(n)]

    h = [Fraction(0)] * game.num_profiles
    for i in range(n):
        for s, (g, a, gam) in enumerate(zip(game.payoffs[i], nonstrategic[i], gammas[i])):
            h[s] += gam * totals[i] * (g - a)

    coeffs = h
    for i in range(n):
        coeffs = _along(coeffs, sizes, i, _to_basis(game.mu[i], totals[i]))
    strides = [math.prod(sizes[j + 1:]) for j in range(n)]
    for s in range(game.num_profiles):
        eigen = sum(totals[j] for j in range(n) if (s // strides[j]) % sizes[j])
        coeffs[s] = coeffs[s] / eigen if eigen else Fraction(0)
    phi = coeffs
    for i in range(n):
        phi = _along(phi, sizes, i, _from_basis(game.mu[i]))

    potential = []
    for i in range(n):
        f = [p / gam for p, gam in zip(phi, gammas[i])]
        avg = _along(f, sizes, i, _average(game.mu[i], totals[i]))
        potential.append([x - a for x, a in zip(f, avg)])
    harmonic = [
        [g - a - p for g, a, p in zip(game.payoffs[i], nonstrategic[i], potential[i])]
        for i in range(n)
    ]
    return nonstrategic, potential, harmonic


REFERENCE_GAME = make_game("reference", (3, 3, 3), random.Random("reference"))


def reference_seconds() -> float:
    """CPU time of one decomposition of a fixed game: the yardstick for host speed.

    The garbage collector is off meanwhile, so a collection of the caller's
    heap does not land in the yardstick.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        decompose(REFERENCE_GAME)
        return time.process_time() - start
    finally:
        if enabled:
            gc.enable()
