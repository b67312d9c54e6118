"""Exact equilibrium verification and the closed-form harmonic equilibria.

There is no general Nash solver here: the library only verifies candidate
profiles, constructs the known equilibrium of harmonic games, maps equilibria
through product scalings, and searches potential-function argmaxes.

The checks read games and profiles in shared form (``numeric._Shared``):
exact mode contracts payoff numerators with probability numerators and
divides once per result, so ``best_response_epsilon`` and
``expected_payoff`` build one ``Fraction`` per call and ``pure_regret`` one
per distinct entry it returns.  Float tensors lie over 1, so float mode
computes the expressions it always did, in the same order.  The profiles
built here are normalized from weight numerators, since weights over any
denominator give the same profile.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import PreconditionError
from .numeric import _Shared, _float_range, axis_contract, is_zero, magnitude, quotient
from .games import (
    CoMeasureVector,
    Game,
    MeasureVector,
    MixedProfile,
    _own_shapes,
    _require_finite,
    require_operands,
)
from .decomposition import extract_potential, is_harmonic


def _opponent_payoffs(g: Game, x: MixedProfile, player: int) -> tuple[np.ndarray, int]:
    """(v, den): player's expected payoff from each pure strategy t against
    x^{-i} is v[t] / den, contracted on numerators.  v is kept a numpy
    array: numpy's float overflow reaches the callers' float-range guard,
    where Python floats would overflow to inf silently."""
    payoff = g._shared[player]
    values, den = payoff.num, payoff.den
    # contract every axis except the player's own, highest axis first
    for axis in range(g.space.n_players - 1, -1, -1):
        if axis == player:
            continue
        probs = x._shared[axis]
        values = axis_contract(values, probs.num, axis)
        den *= probs.den
    return values, den


def _current_payoff(vector: np.ndarray, probs: _Shared):
    """sum_t x^i(t) v[t] on numerators, over den * probs.den, added in index
    order; v is _opponent_payoffs's array."""
    return sum(p * v for p, v in zip(probs.num.tolist(), vector))


@_float_range("the expected payoff")
def expected_payoff(g: Game, x: MixedProfile, player: int):
    """sum_s prod_j x^j(s^j) g^i(s), exactly."""
    player = require_operands(g, x).require_player(player)
    vector, den = _opponent_payoffs(g, x, player)
    probs = x._shared[player]
    return quotient(_current_payoff(vector, probs), den * probs.den, g.exact)


@_float_range("the best-response epsilon")
def best_response_epsilon(g: Game, x: MixedProfile):
    """Largest gain any player gets from a unilateral pure deviation, floored at 0.

    x is a Nash equilibrium iff the result is exactly 0; scanning pure
    deviations suffices because a best response to fixed opponents is pure.
    Each player's gain max_t v[t] x^i.den - sum_t x^i(t) v[t] lies over its
    own denominator, so gains are compared by cross-multiplying.
    """
    require_operands(g, x)
    worst, worst_den = 0, 1
    for i in g.space.players:
        vector, den = _opponent_payoffs(g, x, i)
        probs = x._shared[i]
        gain = max(vector) * probs.den - _current_payoff(vector, probs)
        den *= probs.den
        if gain * worst_den > worst * den:
            worst, worst_den = gain, den
    return quotient(worst, worst_den, g.exact)


def is_no_gain(g: Game, eps) -> bool:
    """True iff a best-response epsilon of g is 0: exactly, or in float mode
    within the tolerance of the magnitude of g's payoffs, whose rounding
    noise a float epsilon carries (the float numerators are the payoffs)."""
    return is_zero(eps, g.exact, 1.0 if g.exact else magnitude(*(x.num for x in g._shared)))


def _pure_regret(g: Game) -> _Shared:
    """pure_regret in shared form: every player's gains put over the LCM of
    the payoff denominators (float: 1, nothing is scaled)."""
    payoffs = g._shared
    den = math.lcm(*(x.den for x in payoffs))
    gains = (
        (np.max(x.num, axis=i, keepdims=True) - x.num) * (den // x.den)
        for i, x in enumerate(payoffs)
    )
    return _Shared(functools.reduce(np.maximum, gains), den)


@_float_range("the pure regret")
def pure_regret(g: Game) -> np.ndarray:
    """r(s) = max_i (max_t g^i(t, s^{-i}) - g^i(s)) at every pure profile s.

    Equals best_response_epsilon at each pure profile, as one tensor: a max
    along each player's own axis, one subtraction, and an elementwise max over
    players, O(n |S|) scalar operations in all, on numerators.
    """
    return _pure_regret(g).values()


@_float_range("the harmonic equilibrium")
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
    if gamma._generator is not None:
        weights = [
            _Shared(w.num * c.num, w.den * c.den) for w, c in zip(mu._shared, gamma._generator)
        ]
    elif all(gamma.is_player_constant(i) for i in space.players):
        weights = mu._shared
    else:
        raise PreconditionError("gamma not product: no generator stored")
    profile = MixedProfile._normalized(space, weights)
    eps = best_response_epsilon(g, profile)
    if not is_no_gain(g, eps):
        raise PreconditionError(
            f"constructed profile fails the equilibrium check (eps = {eps})"
        )
    return profile


@_float_range("the equilibrium under the scaling")
def map_equilibrium_under_scaling(x: MixedProfile, b_generator) -> MixedProfile:
    """Transport an equilibrium of g to one of (beta . g), beta generated by b.

    y^i is x^i / b^i renormalized; Nash equilibria map onto Nash equilibria
    for product scalings.  b is checked as a co-measure generator: one
    finite, strictly positive vector per player, in x's scalar mode.  The
    product co-measure of b is built only to raise ``from_generator``'s
    message for a nonpositive entry.
    """
    space = x.space
    b = CoMeasureVector._coerce(space, b_generator, x.exact, _own_shapes(space), "generator vector")
    _require_finite(b, "generator")
    if any((c.num <= 0).any() for c in b):
        CoMeasureVector._generated(space, b)._checked()  # raises
    return MixedProfile._normalized(space, (p.divide(c.divisor()) for p, c in zip(x._shared, b)))


def pure_equilibrium_from_potential(
    g: Game, gamma: CoMeasureVector
) -> list[tuple[int, ...]]:
    """All global argmax profiles of the potential function, in canonical order.

    Every returned profile is a pure Nash equilibrium of g.  One axis-by-axis
    integration both decides membership and yields the potential, whose
    numerators share one positive denominator, so they order as its values.
    """
    flat = extract_potential(g, gamma)._shared[0].num.reshape(-1).tolist()
    best = max(flat)
    return [
        g.space.profile(idx) for idx, v in enumerate(flat) if v == best
    ]
