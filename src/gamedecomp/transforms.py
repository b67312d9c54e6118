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
from .numeric import _Shared, axis_contract, scalar_array, unequal_mask
from .games import CoMeasureVector, Game, MeasureVector, require_operands, shared_payoffs
from .decomposition import is_nonstrategic
from .spaces import StrategySpace


# -- the strategy-axis re-indexing rule --------------------------------------------


def _take_game(g: Game, space: StrategySpace, player: int, idx) -> Game:
    """g on ``space``, where strategy k of ``player`` is old strategy idx[k];
    taken from the numerators, over the same denominators."""
    return Game._with_shared(space, (_take(x, idx, player) for x in shared_payoffs(g)))


def _take(x: _Shared, idx, axis: int = 0) -> _Shared:
    """x with idx taken along ``axis``, from the numerators."""
    return _Shared(np.take(x.num, idx, axis=axis), x.den)


def _take_params(
    mu: MeasureVector,
    gamma: CoMeasureVector,
    space: StrategySpace,
    player: int,
    idx,
    weights: _Shared | None = None,
) -> tuple[MeasureVector, CoMeasureVector]:
    """mu and gamma on ``space`` under the re-indexing of _take_game, on
    numerators.

    mu^player becomes ``weights``, or takes idx when none are given; every
    gamma^j with j != player, and the generator's entry for player, take idx
    along player's axis.  gamma^player and the other weights do not see
    player's strategy and stay as they are.
    """
    mu_weights = list(mu._shared)
    mu_weights[player] = _take(mu_weights[player], idx) if weights is None else weights
    tensors = (
        x if j == player else _take(x, idx, space.axis_in_opp(j, player))
        for j, x in enumerate(gamma._shared)
    )
    generator = gamma._generator
    if generator is not None:
        generator = tuple(_take(c, idx) if j == player else c for j, c in enumerate(generator))
    return (
        MeasureVector._with_shared(space, mu_weights),
        CoMeasureVector._with_shared(space, tensors, _generator=generator),
    )


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
    return _take_params(mu, gamma, space, spec.player, list(spec.sigma))


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
    factors = (beta.expanded(i) for i in g.space.players)
    return Game._with_shared(g.space, (
        _Shared(x.num * b.num, x.den * b.den) for x, b in zip(shared_payoffs(g), factors)
    ))


def co_measure_quotient(
    gamma: CoMeasureVector, beta: CoMeasureVector
) -> CoMeasureVector:
    """(gamma/beta)^i = gamma^i / beta^i entrywise; preserves product structure."""
    space = require_operands(gamma, beta)
    generator = None
    if gamma._generator is not None and beta._generator is not None:
        generator = tuple(map(_Shared.divide, gamma._generator, beta._generator))
    return CoMeasureVector._with_shared(
        space, map(_Shared.divide, gamma._shared, beta._shared), _generator=generator
    )


def co_measure_inverse(beta: CoMeasureVector) -> CoMeasureVector:
    """1/beta, used to undo a scaling: the unit co-measure over beta."""
    return co_measure_quotient(CoMeasureVector.uniform(beta.space, exact=beta.exact), beta)


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
    # mu^i(src) splits into shares 1 - lam and lam, over the shares' denominator
    w = mu._shared[i]
    split = _Shared.of(scalar_array([1 - spec.lam, spec.lam], (2,), mu.exact))
    weights = _Shared(
        np.concatenate([w.num[:src] * split.den, split.num * w.num[src], w.num[pos:] * split.den]),
        w.den * split.den,
    )
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

    for j, payoff in enumerate(shared_payoffs(g)):
        # one tensor's numerators share its denominator
        a = np.take(payoff.num, p0, axis=i)
        b = np.take(payoff.num, p1, axis=i)
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
        a = np.take(gamma._shared[j].num, p0, axis=axis)
        b = np.take(gamma._shared[j].num, p1, axis=axis)
        if unequal_mask(a, b, g.exact).any():
            raise PreconditionError(
                f"gamma not coherent: gamma^{j + 1} differs between "
                f"{s0!r} and {s1!r} slices"
            )

    new_space = space.delete_strategy(i, p0)
    others = [k for k in range(space.sizes[i]) if k != p0]
    w = mu._shared[i]
    num = w.num.copy()
    num[p1] += num[p0]
    weights = _take(_Shared(num, w.den), others)
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
    alpha = _Shared.of(scalar_array(spec.alpha, (len(spec.alpha),), g.exact))
    for j, (payoff, kept) in enumerate(zip(shared_payoffs(g), shared_payoffs(reduced))):
        # both sides times the denominators of g^j and alpha
        mix = axis_contract(kept.num, alpha.num, i)
        actual = np.take(payoff.num, p0, axis=i) * alpha.den
        bad = np.argwhere(unequal_mask(actual, mix, g.exact))
        if bad.size:
            where = tuple(int(x) for x in bad[0])
            raise PreconditionError(
                f"not alpha-redundant: player {j + 1} payoff at opponent "
                f"subprofile {where} misses the alpha mixture"
            )

    # mu^i(s0) moves to the others in alpha-shares, over alpha's denominator
    w = mu._shared[i]
    kept = np.take(w.num, others)
    weights = _Shared(kept * alpha.den + alpha.num * w.num[p0], w.den * alpha.den)
    new_mu, new_gamma = _take_params(mu, gamma, new_space, i, others, weights)
    return reduced, new_mu, CoMeasureVector._with_shared(new_space, new_gamma._shared)
