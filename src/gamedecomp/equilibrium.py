"""Exact equilibrium verification and the closed-form harmonic equilibria.

There is no general Nash solver here: the library only verifies candidate
profiles, constructs the known equilibrium of harmonic games, maps equilibria
through product scalings, and searches potential-function argmaxes.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

from .errors import PreconditionError
from .numeric import axis_contract, is_zero, magnitude
from .games import CoMeasureVector, Game, MeasureVector, MixedProfile, require_operands
from .decomposition import extract_potential, is_harmonic


def _opponent_payoff_vector(g: Game, x: MixedProfile, player: int) -> list:
    """Expected payoff of each pure strategy of ``player`` against x^{-i}."""
    values = g.payoffs[player]
    # contract every axis except the player's own, highest axis first
    for axis in range(g.space.n_players - 1, -1, -1):
        if axis == player:
            continue
        values = axis_contract(values, x.probs[axis], axis)
    return list(np.atleast_1d(values).tolist())


def expected_payoff(g: Game, x: MixedProfile, player: int):
    """sum_s prod_j x^j(s^j) g^i(s), exactly."""
    player = require_operands(g, x).require_player(player)
    vector = _opponent_payoff_vector(g, x, player)
    return sum(p * v for p, v in zip(x.probs[player].tolist(), vector))


def best_response_epsilon(g: Game, x: MixedProfile):
    """Largest gain any player gets from a unilateral pure deviation, floored at 0.

    x is a Nash equilibrium iff the result is exactly 0; scanning pure
    deviations suffices because a best response to fixed opponents is pure.
    """
    require_operands(g, x)
    zero = Fraction(0) if g.exact else 0.0
    worst = zero
    for i in g.space.players:
        vector = _opponent_payoff_vector(g, x, i)
        current = sum(p * v for p, v in zip(x.probs[i].tolist(), vector))
        gain = max(vector) - current
        if gain > worst:
            worst = gain
    return worst


def is_no_gain(g: Game, eps) -> bool:
    """True iff a best-response epsilon of g is 0: exactly, or in float mode
    within the tolerance of the magnitude of g's payoffs, whose rounding
    noise a float epsilon carries."""
    return is_zero(eps, g.exact, 1.0 if g.exact else magnitude(*g.payoffs))


def pure_regret(g: Game) -> np.ndarray:
    """r(s) = max_i (max_t g^i(t, s^{-i}) - g^i(s)) at every pure profile s.

    Equals best_response_epsilon at each pure profile, as one tensor: a max
    along each player's own axis, one subtraction, and an elementwise max over
    players, O(n |S|) scalar operations in all.
    """
    gains = (
        np.max(p, axis=i, keepdims=True) - p for i, p in enumerate(g.payoffs)
    )
    return functools.reduce(np.maximum, gains)


def harmonic_equilibrium(
    g: Game, mu: MeasureVector, gamma: CoMeasureVector
) -> MixedProfile:
    """The completely mixed equilibrium normalized(mu^i c^i) of a harmonic game.

    Requires gamma to be a product co-measure with stored generator c, or
    constant per player (then c = 1 and the profile is normalized mu).  The
    harmonic check first validates mu and gamma.
    """
    space = require_operands(g, mu, gamma)
    if not is_harmonic(g, mu, gamma):
        raise PreconditionError("not harmonic")
    if gamma.generator is not None:
        weights = [
            [m * c for m, c in zip(mu.weights[i].tolist(), gamma.generator[i].tolist())]
            for i in space.players
        ]
    elif all(gamma.is_player_constant(i) for i in space.players):
        weights = [mu.weights[i].tolist() for i in space.players]
    else:
        raise PreconditionError("gamma not product: no generator stored")
    profile = MixedProfile.from_positive_weights(space, weights, exact=g.exact)
    eps = best_response_epsilon(g, profile)
    if not is_no_gain(g, eps):
        raise PreconditionError(
            f"constructed profile fails the equilibrium check (eps = {eps})"
        )
    return profile


def map_equilibrium_under_scaling(x: MixedProfile, b_generator) -> MixedProfile:
    """Transport an equilibrium of g to one of (beta . g), beta generated by b.

    y^i is x^i / b^i renormalized; Nash equilibria map onto Nash equilibria
    for product scalings.  b is checked as a co-measure generator: one
    strictly positive vector per player, in x's scalar mode.
    """
    space = x.space
    gen = CoMeasureVector.from_generator(space, b_generator, x.exact).generator
    weights = [
        [p / c for p, c in zip(x.probs[i].tolist(), gen[i].tolist())] for i in space.players
    ]
    return MixedProfile.from_positive_weights(space, weights, exact=x.exact)


def pure_equilibrium_from_potential(
    g: Game, gamma: CoMeasureVector
) -> list[tuple[int, ...]]:
    """All global argmax profiles of the potential function, in canonical order.

    Every returned profile is a pure Nash equilibrium of g.  One axis-by-axis
    integration both decides membership and yields the potential.
    """
    psi = extract_potential(g, gamma)
    flat = psi.flat()
    best = max(flat)
    return [
        g.space.profile(idx) for idx, v in enumerate(flat) if v == best
    ]
