"""Strategic game transformations and their induced parameter updates.

Each transformation comes with the parameter transformation that makes it
commute with the decomposition map.  Permutations, duplications and
reductions all edit one player's strategy axis, and they share one rule
(``_take_game`` and ``_take_params``): new strategy k of player i is old
strategy idx[k], taken along axis i of every payoff tensor, along i's axis
inside every other gamma^j, and from the generator's entry for i.  Only the
new mu^i differs between them: permuted, split by lam, merged into s1, or
given alpha-shares.  Scalings divide gamma by the scaling co-measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import PreconditionError, ValidationError
from .numeric import axis_contract, freeze, scalar_array, unequal_mask
from .games import CoMeasureVector, Game, MeasureVector, require_operands
from .decomposition import is_nonstrategic
from .spaces import StrategySpace


# -- the strategy-axis re-indexing rule --------------------------------------------


def _take_game(g: Game, space: StrategySpace, player: int, idx) -> Game:
    """g on ``space``, where strategy k of ``player`` is old strategy idx[k]."""
    return Game(
        space, tuple(freeze(np.take(p, idx, axis=player)) for p in g.payoffs)
    )


def _take_params(
    mu: MeasureVector,
    gamma: CoMeasureVector,
    space: StrategySpace,
    player: int,
    idx,
    weights,
) -> tuple[MeasureVector, CoMeasureVector]:
    """mu and gamma on ``space`` under the re-indexing of _take_game.

    mu^player becomes ``weights``; every gamma^j with j != player, and the
    generator's entry for player, take idx along player's axis.  gamma^player
    and the other weights do not see player's strategy and stay as they are.
    """
    mu_weights = list(mu.weights)
    mu_weights[player] = scalar_array(weights, (len(idx),), mu.exact)
    tensors = tuple(
        t if j == player else freeze(np.take(t, idx, axis=space.axis_in_opp(j, player)))
        for j, t in enumerate(gamma.tensors)
    )
    generator = gamma.generator
    if generator is not None:
        generator = tuple(
            freeze(np.take(c, idx)) if j == player else c
            for j, c in enumerate(generator)
        )
    return MeasureVector(space, tuple(mu_weights)), CoMeasureVector(space, tensors, generator)


# -- permutations ---------------------------------------------------------------


@dataclass(frozen=True)
class PermutationSpec:
    """Relabeling sigma of one player's strategies, as an index array."""

    player: int
    sigma: tuple[int, ...]

    def validate(self, space: StrategySpace) -> None:
        m = space.sizes[space.require_player(self.player)]
        if sorted(self.sigma) != list(range(m)):
            raise ValidationError(
                f"invalid permutation array {self.sigma} for {m} strategies"
            )


def permute(g: Game, spec: PermutationSpec) -> Game:
    """(T g)^j(s^i, s^{-i}) = g^j(sigma(s^i), s^{-i}) for every player j."""
    spec.validate(g.space)
    return _take_game(g, g.space, spec.player, list(spec.sigma))


def permute_params(
    mu: MeasureVector, gamma: CoMeasureVector, spec: PermutationSpec
) -> tuple[MeasureVector, CoMeasureVector]:
    """mu_sigma^i = mu^i o sigma; other gammas permute their player-i axis."""
    space = require_operands(mu, gamma)
    spec.validate(space)
    idx = list(spec.sigma)
    weights = np.take(mu.weights[spec.player], idx)
    return _take_params(mu, gamma, space, spec.player, idx, weights)


# -- pseudo-translations ----------------------------------------------------------


def translate_nonstrategic(g: Game, ns: Game) -> Game:
    """Add a nonstrategic game; only the nonstrategic component moves."""
    require_operands(g, ns)
    if not is_nonstrategic(ns):
        raise PreconditionError("translation not nonstrategic")
    return g + ns


# -- scalings ---------------------------------------------------------------------


def scale(g: Game, beta: CoMeasureVector) -> Game:
    """(beta . g)^i(s) = beta^i(s^{-i}) g^i(s); beta is strictly positive
    like every co-measure."""
    require_operands(g, beta)
    payoffs = tuple(
        freeze(g.payoffs[i] * beta.expanded(i)) for i in g.space.players
    )
    return Game(g.space, payoffs)


def co_measure_quotient(
    gamma: CoMeasureVector, beta: CoMeasureVector
) -> CoMeasureVector:
    """(gamma/beta)^i = gamma^i / beta^i entrywise; preserves product structure."""
    space = require_operands(gamma, beta)
    tensors = tuple(
        freeze(gamma.tensors[i] / beta.tensors[i]) for i in space.players
    )
    generator = None
    if gamma.generator is not None and beta.generator is not None:
        generator = tuple(
            freeze(cg / cb) for cg, cb in zip(gamma.generator, beta.generator)
        )
    return CoMeasureVector(space, tensors, generator)


def co_measure_inverse(beta: CoMeasureVector) -> CoMeasureVector:
    """1/beta, used to undo a scaling."""
    tensors = tuple(freeze(1 / t) for t in beta.tensors)
    generator = None
    if beta.generator is not None:
        generator = tuple(freeze(1 / c) for c in beta.generator)
    return CoMeasureVector(beta.space, tensors, generator)


# -- duplication ------------------------------------------------------------------


@dataclass(frozen=True)
class DuplicationSpec:
    """Duplicate ``source`` of ``player`` under a new label.

    ``lam`` splits the duplicated measure weight: the new strategy receives
    lam * mu(source), the source keeps the rest.  Co-measure slices of the
    other players are replicated at the new strategy, which is what keeps all
    four game classes stable under extension.
    """

    player: int
    source: str
    new_label: str
    lam: Fraction = field(default=Fraction(1, 2))

    def validate(self) -> None:
        if not 0 < self.lam < 1:
            raise ValidationError(f"measure split must lie in (0,1), got {self.lam}")


def extend_duplicate(
    g: Game,
    mu: MeasureVector,
    gamma: CoMeasureVector,
    spec: DuplicationSpec,
) -> tuple[Game, MeasureVector, CoMeasureVector]:
    """Insert a duplicate strategy right after its source and split parameters."""
    space = require_operands(g, mu, gamma)
    spec.validate()
    i = spec.player
    src = space.strategy_index(i, spec.source)
    pos = src + 1  # deterministic insertion point, directly after the source
    new_space = space.insert_strategy(i, pos, spec.new_label)
    idx = [*range(pos), src, *range(pos, space.sizes[i])]
    w = mu.weights[i]
    weights = [*w[:src], (1 - spec.lam) * w[src], spec.lam * w[src], *w[pos:]]
    return (
        _take_game(g, new_space, i, idx),
        *_take_params(mu, gamma, new_space, i, idx, weights),
    )


# -- reduction of duplicates --------------------------------------------------------


def reduce_duplicate(
    g: Game,
    mu: MeasureVector,
    gamma: CoMeasureVector,
    player: int,
    s0: str,
    s1: str,
) -> tuple[Game, MeasureVector, CoMeasureVector]:
    """Delete duplicate strategy s0, folding its measure weight into s1.

    Requires s0 to be an exact duplicate of s1 for every player and gamma to be
    coherent with the duplication (equal slices at s0 and s1); the reduced
    gamma keeps the common slice value.
    """
    space = require_operands(g, mu, gamma)
    i = player
    p0 = space.strategy_index(i, s0)
    p1 = space.strategy_index(i, s1)
    if p0 == p1:
        raise ValidationError("s0 and s1 must be different strategies")

    for j in space.players:
        a = np.take(g.payoffs[j], p0, axis=i)
        b = np.take(g.payoffs[j], p1, axis=i)
        diffs = np.argwhere(unequal_mask(a, b, g.exact))
        if diffs.size:
            where = tuple(int(x) for x in diffs[0])
            raise PreconditionError(
                f"not a duplicate: payoff of player {j + 1} differs at "
                f"opponent subprofile {where}"
            )
    for j in space.players:
        if j == i:
            continue
        axis = space.axis_in_opp(j, i)
        a = np.take(gamma.tensors[j], p0, axis=axis)
        b = np.take(gamma.tensors[j], p1, axis=axis)
        if unequal_mask(a, b, g.exact).any():
            raise PreconditionError(
                f"gamma not coherent: gamma^{j + 1} differs between "
                f"{s0!r} and {s1!r} slices"
            )

    new_space = space.delete_strategy(i, p0)
    others = [k for k in range(space.sizes[i]) if k != p0]
    w = mu.weights[i]
    weights = [w[k] + w[p0] if k == p1 else w[k] for k in others]
    return (
        _take_game(g, new_space, i, others),
        *_take_params(mu, gamma, new_space, i, others, weights),
    )


# -- reduction of redundant strategies -----------------------------------------------


@dataclass(frozen=True)
class RedundancySpec:
    """Removable strategy s0 of ``player`` expressed as the alpha-mixture of the rest.

    ``alpha`` lists one weight per remaining strategy of the player, in the
    player's label order with s0 skipped; entries are nonnegative rationals
    summing to one.
    """

    player: int
    s0: str
    alpha: tuple[Fraction, ...]

    def validate(self, space: StrategySpace) -> None:
        m = space.sizes[space.require_player(self.player)]
        if len(self.alpha) != m - 1:
            raise ValidationError(
                f"alpha needs {m - 1} entries, got {len(self.alpha)}"
            )
        if any(a < 0 for a in self.alpha):
            raise ValidationError("alpha entries must be nonnegative")
        if sum(self.alpha, Fraction(0)) != 1:
            raise ValidationError("alpha entries must sum to exactly 1")


def reduce_redundant(
    g: Game,
    mu: MeasureVector,
    gamma: CoMeasureVector,
    spec: RedundancySpec,
) -> tuple[Game, MeasureVector, CoMeasureVector]:
    """Delete an alpha-redundant strategy; mu gains alpha-shares of its weight.

    Requires a uniform co-measure vector (each gamma^j constant over the
    opponent subprofiles; the constants may differ across players), restricted
    unchanged to the smaller space and returned without a generator.
    """
    space = require_operands(g, mu, gamma)
    spec.validate(space)
    i = spec.player
    p0 = space.strategy_index(i, spec.s0)
    others = [k for k in range(space.sizes[i]) if k != p0]

    for j in space.players:
        if not gamma.is_player_constant(j):
            raise PreconditionError(f"gamma not uniform: gamma^{j + 1} varies")

    new_space = space.delete_strategy(i, p0)
    reduced = _take_game(g, new_space, i, others)
    for j in space.players:
        mix = axis_contract(reduced.payoffs[j], spec.alpha, i)
        actual = np.take(g.payoffs[j], p0, axis=i)
        bad = np.argwhere(unequal_mask(actual, mix, g.exact))
        if bad.size:
            where = tuple(int(x) for x in bad[0])
            raise PreconditionError(
                f"not alpha-redundant: player {j + 1} payoff at opponent "
                f"subprofile {where} misses the alpha mixture"
            )

    w = mu.weights[i]
    weights = [w[k] + a * w[p0] for a, k in zip(spec.alpha, others)]
    new_mu, new_gamma = _take_params(mu, gamma, new_space, i, others, weights)
    return reduced, new_mu, CoMeasureVector(new_space, new_gamma.tensors)
