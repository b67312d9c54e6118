"""The (mu, gamma)-decomposition map, class predicates, and distance bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import PreconditionError
from .numeric import (
    _Shared, _add, _float_range, _sub, contract, is_zero, magnitude, quotient, unequal_mask,
)
from .games import (
    CoMeasureVector,
    Game,
    MeasureVector,
    ScalarField,
    norm_weights,
    require_operands,
    validate_parameters,
    weighted_inner_product,
)
from .operators import _deviation, _deviation_divergence, _divergence, _solve, _spread


@dataclass(frozen=True)
class Decomposition:
    """The unique orthogonal triple with nonstrategic + potential + harmonic = game.

    ``phi`` is the potential function of the potential component, pinned to
    mu-mean zero (the minimal-norm pseudo-inverse choice).
    """

    nonstrategic: Game
    potential: Game
    harmonic: Game
    phi: ScalarField
    mu: MeasureVector
    gamma: CoMeasureVector

    def components(self) -> tuple[Game, Game, Game]:
        return (self.nonstrategic, self.potential, self.harmonic)

    @_float_range("the sum of the components")
    def total(self) -> Game:
        return self.nonstrategic + self.potential + self.harmonic

    @_float_range("the reconstruction check")
    def reconstructs(self, g: Game) -> bool:
        """total() == g, decided on integer numerators: the components are
        added in shared form (numeric._Shared) and compared with g over one
        common denominator, so exact mode does no ``Fraction`` arithmetic."""
        require_operands(g, self.mu)
        totals = (
            reduce(_add, per_player)
            for per_player in zip(*(c._shared for c in self.components()))
        )
        return all(t.equals(x) for t, x in zip(totals, g._shared))

    @cached_property
    def _weights(self) -> tuple[_Shared, ...]:
        return norm_weights(self.mu, self.gamma)

    @_float_range("the inner product")
    def inner_product(self, a: Game, b: Game):
        """<a, b>_{mu,gamma} on this decomposition's cached norm weights,
        contracted on integer numerators in exact mode."""
        require_operands(a, b, self.mu)
        return weighted_inner_product(a, b, self._weights)

    @cached_property
    def distance_sq(self):
        """||harmonic||^2_{mu,gamma}: squared distance to the closest potential game."""
        return self.inner_product(self.harmonic, self.harmonic)

    @_float_range("the closest potential game")
    def closest_potential(self) -> tuple[Game, object]:
        """The nearest gamma-potential game and the squared distance to it.

        Returns (nonstrategic + potential, ||harmonic||^2_{mu,gamma}); the
        sum is taken in shared form, and converted out when it is read.
        """
        return self.nonstrategic + self.potential, self.distance_sq

    @_float_range("the epsilon bound")
    def epsilon_bound(self):
        """Squared bound B^2 with eps^2 <= B^2 for every equilibrium of the
        closest potential game, taken as an approximate equilibrium of g.

        B^2 = 4 d^2 max_{j, s} 1 / (gamma^j(s^{-j})^2 mu^j(S^j) mu(s)), where
        d^2 is the squared distance to the closest potential game.  The mu(s)
        factor keeps the single-entry norm estimate valid for arbitrary
        strictly positive measures; when the product measure is identically 1
        it reduces to 4 max d^2 / (gamma^2 mu^j(S^j)).  The denominators are
        the norm weights, so d^2 and B^2 share one weight tensor, whose
        smallest entry is found on the numerators.

        Both scalar modes return the square, so comparisons eps^2 <= B^2 need
        no root and stay rational in exact mode.
        """
        smallest = min(quotient(w.num.min(), w.den, w.exact) for w in self._weights)
        return 4 * self.distance_sq * (1 / smallest)


@_float_range("the decomposition")
def decompose(g: Game, mu: MeasureVector, gamma: CoMeasureVector) -> Decomposition:
    """Split g into nonstrategic, gamma-potential, and (mu,gamma)-harmonic parts.

    Pipeline, with one round of own-axis averages of g:
    nonstrategic = Lambda g; Pi g = g - Lambda g; the deviation divergence
    h = sum_i gamma^i mu^i(S^i) (Pi g)^i; phi = minimal-norm solution of
    L phi = h.  gamma^i is constant along axis i, so the potential part
    Pi(phi / gamma^i) is (phi - Lambda^i phi) / gamma^i, and
    harmonic = Pi g - potential.

    Both scalar modes run this one body on ``numeric._Shared`` tensors (see
    operators), the form games, phi and the cached mu and gamma are stored
    in.  The three parts and phi are built in that form and converted to
    ``Fraction`` values only where they are read, so exact mode pays the
    gcds of ``Fraction`` arithmetic once per entry read out.  Only the
    Poisson solve core differs per mode (_solve).  A float kernel that
    leaves the float range raises one ValidationError pointing to exact
    mode.
    """
    space = require_operands(g, mu, gamma)
    validate_parameters(mu, gamma)
    plan, gamma_plan = mu._plan, gamma._plan
    averages, normalized = zip(*(_deviation(x, axis) for x, axis in zip(g._shared, plan.axes)))
    phi = _solve(_divergence(normalized, plan, gamma_plan), plan)
    potential = [
        _deviation(phi, axis)[1].divide(divisor)
        for axis, divisor in zip(plan.axes, gamma_plan.divisors)
    ]
    return Decomposition(
        nonstrategic=Game._with_shared(
            space, (_spread(avg, space.sizes, i) for i, avg in enumerate(averages))
        ),
        potential=Game._with_shared(space, potential),
        harmonic=Game._with_shared(
            space, (_sub(pi, part) for pi, part in zip(normalized, potential))
        ),
        phi=ScalarField._with_shared(space, (phi,)),
        mu=mu,
        gamma=gamma,
    )


# -- class-membership predicates ------------------------------------------------


@_float_range("the nonstrategic test")
def is_nonstrategic(g: Game) -> bool:
    """True iff every player's payoff ignores her own coordinate; decided on
    each tensor's numerators, which share one denominator."""
    return not any(
        unequal_mask(x.num, x.num[(slice(None),) * i + (slice(0, 1),)], g.exact).any()
        for i, x in enumerate(g._shared)
    )


@_float_range("the mu-normalized test")
def is_mu_normalized(g: Game, mu: MeasureVector) -> bool:
    """True iff the mu-weighted own-coordinate sum vanishes everywhere;
    exact mode sums numerators, weighted by mu^i's numerators."""
    require_operands(g, mu)
    for x, axis in zip(g._shared, mu._plan.axes):
        acc = contract(x.num.reshape(axis.dims), axis.m)
        scale = 1.0 if g.exact else magnitude(x.num) * axis.total
        if not is_zero(acc, g.exact, scale):
            return False
    return True


def is_gamma_potential(g: Game, gamma: CoMeasureVector) -> bool:
    """True iff some potential function matches all rescaled payoff differences.

    Decided without a decomposition: the rescaled differences
    D_i(s) = gamma^i(s^{-i}) (g^i(s) - g^i(0_i, s^{-i})) are integrated axis by
    axis into a candidate psi, and g is gamma-potential iff psi reproduces
    every D_i (see _integrate).  Costs O(n |S|) array operations.
    """
    return _integrate(g, gamma)[1] is None


@_float_range("the harmonic test")
def is_harmonic(g: Game, mu: MeasureVector, gamma: CoMeasureVector) -> bool:
    """True iff the weighted deviation divergence vanishes at every profile."""
    require_operands(g, mu, gamma)
    validate_parameters(mu, gamma)
    plan = mu._plan
    h = _deviation_divergence(g, plan, gamma._plan)
    scale = 1.0 if g.exact else sum(
        magnitude(x.num) * magnitude(t.num) * axis.total
        for x, t, axis in zip(g._shared, gamma._shared, plan.axes)
    )
    return is_zero(h.num, g.exact, scale)


@_float_range("the mean-zero potential")
def extract_potential(g: Game, gamma: CoMeasureVector) -> ScalarField:
    """Recover a potential function by axis-by-axis integration.

    psi(s) sums the rescaled differences D_i along the path that moves the
    players' coordinates from 0 to s one axis at a time (see _integrate); the
    checks psi(s) - psi(0_i, s^{-i}) == D_i(s) then cover every edge, and a
    failure means the game is not gamma-potential.  The result is normalized
    to mean zero under the uniform measure.  Float integration or a mean
    out of the float range raises a ValidationError pointing to exact mode.
    """
    psi, bad = _integrate(g, gamma)
    if bad is not None:
        source, target = bad
        raise PreconditionError(
            "not gamma-potential: inconsistent cycle at profiles "
            f"{g.space.profile_labels(source)} -> {g.space.profile_labels(target)}"
        )
    mean = psi.over(psi.num.sum(), psi.den * g.space.num_profiles)
    return ScalarField._with_shared(g.space, (_sub(psi, mean),))


@_float_range("the gamma-potential test")
def _integrate(g: Game, gamma: CoMeasureVector):
    """Integrate the gamma-rescaled payoff differences of g; find a bad edge.

    With D_i(s) = gamma^i(s^{-i}) (g^i(s) - g^i(0_i, s^{-i})), psi(s) is the
    sum over i of D_i evaluated with the axes before i pinned at 0, so
    psi(0) = 0 and psi telescopes along the path 0 -> s.  psi is a potential
    iff psi(s) == psi(0_i, s^{-i}) + D_i(s) for every i and s; every edge
    (s, t) of player i is the difference of two such checks.  For the first
    player the check holds by construction, since the later terms pin its axis.
    Both sides are of the size of psi, so the float tolerance follows psi.

    Every D_i is put over one denominator, the LCM of those of g^i gamma^i,
    so exact mode integrates and compares integer numerators and builds no
    ``Fraction``; float tensors lie over 1 and are computed as they were.

    Returns (psi, None) when all checks pass, else (psi, (source, target)) for
    the first failing edge: the lowest player, then the first profile in
    row-major order; psi is a shared tensor.
    """
    space = require_operands(g, gamma)
    terms = []
    for i, payoff in enumerate(g._shared):
        factor = gamma.expanded(i)
        diff = factor.num * (payoff.num - payoff.num[(slice(None),) * i + (slice(0, 1),)])
        terms.append((diff, factor.den * payoff.den))
    den = math.lcm(*(d for _, d in terms))
    diffs = [num if d == den else num * (den // d) for num, d in terms]
    psi = None
    for i, diff in enumerate(diffs):
        pinned = diff[(slice(0, 1),) * i]
        psi = pinned if psi is None else psi + pinned
    for i in space.players[1:]:
        mismatch = unequal_mask(psi, np.take(psi, [0], axis=i) + diffs[i], g.exact)
        if mismatch.any():
            target = np.unravel_index(int(np.argmax(mismatch)), space.sizes)
            target = tuple(int(k) for k in target)
            source = target[:i] + (0,) + target[i + 1:]
            return _Shared(psi, den), (source, target)
    return _Shared(psi, den), None


def closest_potential(
    g: Game, mu: MeasureVector, gamma: CoMeasureVector
) -> tuple[Game, object]:
    """The nearest gamma-potential game and ||harmonic||^2; see Decomposition."""
    return decompose(g, mu, gamma).closest_potential()


def epsilon_bound(g: Game, mu: MeasureVector, gamma: CoMeasureVector):
    """Squared bound B^2 on eps^2; see Decomposition.epsilon_bound."""
    return decompose(g, mu, gamma).epsilon_bound()
