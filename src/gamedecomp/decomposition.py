"""The (mu, gamma)-decomposition map, class predicates, and distance bounds."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PreconditionError
from .numeric import axis_contract, freeze, is_zero
from .games import (
    CoMeasureVector,
    Game,
    MeasureVector,
    ScalarField,
    game_norm_sq,
    validate_parameters,
)
from .operators import (
    deviation_divergence,
    lambda_project,
    pi_project,
    solve_poisson,
)
from .spaces import require_same_space


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

    def total(self) -> Game:
        return self.nonstrategic + self.potential + self.harmonic


def decompose(g: Game, mu: MeasureVector, gamma: CoMeasureVector) -> Decomposition:
    """Split g into nonstrategic, gamma-potential, and (mu,gamma)-harmonic parts.

    Pipeline: h = deviation divergence of g; phi = minimal-norm solution of
    L phi = h; f^i = phi / gamma^i; then potential = Pi(f),
    harmonic = Pi(g - f), nonstrategic = Lambda(g).
    """
    space = require_same_space(g, mu, gamma)
    validate_parameters(space, mu, gamma)

    h = deviation_divergence(g, mu, gamma)
    phi = solve_poisson(h, mu)
    f = Game(
        space,
        tuple(freeze(phi.values / gamma.expanded(i)) for i in space.players),
    )
    return Decomposition(
        nonstrategic=lambda_project(g, mu),
        potential=pi_project(f, mu),
        harmonic=pi_project(g - f, mu),
        phi=phi,
        mu=mu,
        gamma=gamma,
    )


# -- class-membership predicates ------------------------------------------------


def is_nonstrategic(g: Game) -> bool:
    """True iff every player's payoff ignores her own coordinate."""
    for i in g.space.players:
        first = np.take(g.payoffs[i], 0, axis=i)
        for k in range(1, g.space.sizes[i]):
            if not _tensors_match(first, np.take(g.payoffs[i], k, axis=i), g.exact):
                return False
    return True


def is_mu_normalized(g: Game, mu: MeasureVector) -> bool:
    """True iff the mu-weighted own-coordinate sum vanishes everywhere."""
    require_same_space(g, mu)
    for i in g.space.players:
        acc = axis_contract(g.payoffs[i], mu.weights[i], i)
        if not all(is_zero(v, g.exact) for v in acc.reshape(-1).tolist()):
            return False
    return True


def is_gamma_potential(g: Game, gamma: CoMeasureVector) -> bool:
    """True iff some potential function matches all rescaled payoff differences.

    Decided through the decomposition with uniform mu: the class does not
    depend on mu, and membership is exactly a vanishing harmonic component.
    """
    mu = MeasureVector.uniform(g.space, exact=g.exact)
    return decompose(g, mu, gamma).harmonic.is_zero()


def is_harmonic(g: Game, mu: MeasureVector, gamma: CoMeasureVector) -> bool:
    """True iff the weighted deviation divergence vanishes at every profile."""
    h = deviation_divergence(g, mu, gamma)
    return all(is_zero(v, g.exact) for v in h.flat())


def extract_potential(g: Game, gamma: CoMeasureVector) -> ScalarField:
    """Recover a potential function by spanning-tree integration.

    Walks a BFS tree over the comparable-profile graph, integrates
    gamma^i-rescaled payoff differences, then validates every remaining edge;
    inconsistent cycles mean the game is not gamma-potential.  The result is
    normalized to mean zero under the uniform measure.
    """
    space = require_same_space(g, gamma)
    zero = Fraction(0) if g.exact else 0.0
    psi = {0: zero}
    frontier = [0]
    while frontier:
        s_idx = frontier.pop()
        s = space.profile(s_idx)
        for i in space.players:
            opp = tuple(x for j, x in enumerate(s) if j != i)
            gam = gamma.tensors[i][opp]
            for k in range(space.sizes[i]):
                t = space.merge_opp(i, k, opp)
                t_idx = space.index(t)
                if t_idx in psi:
                    continue
                diff = gam * (g.payoffs[i][t] - g.payoffs[i][s])
                psi[t_idx] = psi[s_idx] + diff
                frontier.append(t_idx)

    for i, s, t in space.edges():
        opp = tuple(x for j, x in enumerate(s) if j != i)
        expected = gamma.tensors[i][opp] * (g.payoffs[i][t] - g.payoffs[i][s])
        actual = psi[space.index(t)] - psi[space.index(s)]
        if not is_zero(actual - expected, g.exact):
            raise PreconditionError(
                "not gamma-potential: inconsistent cycle at profiles "
                f"{space.profile_labels(s)} -> {space.profile_labels(t)}"
            )

    values = [psi[idx] for idx in range(space.num_profiles)]
    mean = sum(values) / space.num_profiles
    return ScalarField.from_values(
        space, [v - mean for v in values], exact=g.exact
    )


def closest_potential(
    g: Game, mu: MeasureVector, gamma: CoMeasureVector
) -> tuple[Game, object]:
    """The nearest gamma-potential game and the squared distance to it.

    Returns (nonstrategic + potential, ||harmonic||^2_{mu,gamma}).
    """
    parts = decompose(g, mu, gamma)
    closest = parts.nonstrategic + parts.potential
    dist_sq = game_norm_sq(parts.harmonic, mu, gamma)
    return closest, dist_sq


def epsilon_bound(g: Game, mu: MeasureVector, gamma: CoMeasureVector):
    """Squared bound B^2 with eps^2 <= B^2 for every equilibrium of the closest
    potential game, taken as an approximate equilibrium of g.

    B^2 = 4 d^2 max_{j, s} 1 / (gamma^j(s^{-j})^2 mu^j(S^j) mu(s)), where d^2
    is the squared distance to the closest potential game.  The mu(s) factor
    keeps the single-entry norm estimate valid for arbitrary strictly positive
    measures; when the product measure is identically 1 it reduces to
    4 max d^2 / (gamma^2 mu^j(S^j)).

    Both scalar modes return the square, so comparisons eps^2 <= B^2 need no
    root and stay rational in exact mode.
    """
    _, dist_sq = closest_potential(g, mu, gamma)
    prod = mu.product_array()
    worst = None
    for j in g.space.players:
        total = mu.total(j)
        gam_sq = gamma.expanded(j) ** 2
        denom = (gam_sq * prod * total).reshape(-1).tolist()
        for value in denom:
            factor = 1 / value
            if worst is None or factor > worst:
                worst = factor
    return 4 * dist_sq * worst


def _tensors_match(a: np.ndarray, b: np.ndarray, exact: bool) -> bool:
    if exact:
        return bool(np.all(a == b))
    return bool(np.all(np.abs(a - b) <= 1e-9))
