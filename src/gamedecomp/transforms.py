"""Strategic game transformations and their induced parameter updates.

Each transformation comes with the parameter transformation that makes it
commute with the decomposition map.  Permutations, duplications and
reductions all edit one player's strategy axis, and they share one rule
(``_take_game`` and ``_take_params``): new strategy k of player i is old
strategy idx[k], taken along axis i of every payoff tensor, along i's axis
inside every other gamma^j, and from the generator's entry for i.  Only the
new mu^i differs between them: permuted, split by lam, merged into s1, or
given alpha-shares.  Scalings divide gamma by the scaling co-measure.

Duplications and both reductions have two private halves: a game half (the
checks on the game, then ``_take_game``) and a parameter half (the checks
on mu and gamma, then their update).  The public function calls both; the
law suite carries each part of a decomposition through the game half alone.
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
    require_operands(g, mu, gamma)
    spec.validate()
    return (_extend_game(g, spec), *_extend_params(mu, gamma, spec))


def _duplicated(space: StrategySpace, spec: DuplicationSpec):
    """(new space, source index, idx) of the duplication: the copy sits
    directly after its source, a deterministic insertion point."""
    i = spec.player
    src = space.strategy_index(i, spec.source)
    pos = src + 1
    new_space = space.insert_strategy(i, pos, spec.new_label)
    return new_space, src, [*range(pos), src, *range(pos, space.sizes[i])]


def _extend_game(g: Game, spec: DuplicationSpec) -> Game:
    """The game half of extend_duplicate, for a validated spec."""
    new_space, _, idx = _duplicated(g.space, spec)
    return _take_game(g, new_space, spec.player, idx)


def _extend_params(mu: MeasureVector, gamma: CoMeasureVector, spec: DuplicationSpec):
    """The parameter half of extend_duplicate: mu^i(src) splits into shares
    1 - lam and lam, over the shares' denominator."""
    new_space, src, idx = _duplicated(mu.space, spec)
    w = mu._shared[spec.player]
    split = _Shared.of(scalar_array([1 - spec.lam, spec.lam], (2,), mu.exact))
    parts = [w.num[:src] * split.den, split.num * w.num[src], w.num[src + 1:] * split.den]
    weights = _Shared(np.concatenate(parts), w.den * split.den)
    return _take_params(mu, gamma, new_space, spec.player, idx, weights)


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
    require_operands(g, mu, gamma)
    return (_reduce_game(g, player, s0, s1), *_reduce_params(mu, gamma, player, s0, s1))


def _duplicate_pair(space: StrategySpace, player: int, s0: str, s1: str) -> tuple[int, int]:
    """The indices of s0 and s1, which must be different strategies."""
    p0 = space.strategy_index(player, s0)
    p1 = space.strategy_index(player, s1)
    if p0 == p1:
        raise ValidationError("s0 and s1 must be different strategies")
    return p0, p1


def _deleted(space: StrategySpace, player: int, p0: int):
    """(new space, idx) with strategy p0 of ``player`` deleted."""
    return space.delete_strategy(player, p0), [k for k in range(space.sizes[player]) if k != p0]


def _reduce_game(g: Game, player: int, s0: str, s1: str) -> Game:
    """The game half of reduce_duplicate: check that s0 duplicates s1 for
    every player, then delete s0."""
    i = player
    p0, p1 = _duplicate_pair(g.space, i, s0, s1)
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
    new_space, others = _deleted(g.space, i, p0)
    return _take_game(g, new_space, i, others)


def _reduce_params(mu: MeasureVector, gamma: CoMeasureVector, player: int, s0: str, s1: str):
    """The parameter half of reduce_duplicate: check that gamma is coherent
    with the duplication, then fold mu^i(s0) into s1 and delete s0."""
    space, i = mu.space, player
    p0, p1 = _duplicate_pair(space, i, s0, s1)
    for j in space.players:
        if j == i:
            continue
        axis = space.axis_in_opp(j, i)
        a = np.take(gamma._shared[j].num, p0, axis=axis)
        b = np.take(gamma._shared[j].num, p1, axis=axis)
        if unequal_mask(a, b, mu.exact).any():
            raise PreconditionError(
                f"gamma not coherent: gamma^{j + 1} differs between "
                f"{s0!r} and {s1!r} slices"
            )
    new_space, others = _deleted(space, i, p0)
    w = mu._shared[i]
    num = w.num.copy()
    num[p1] += num[p0]
    return _take_params(mu, gamma, new_space, i, others, _take(_Shared(num, w.den), others))


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
    require_operands(g, mu, gamma)
    spec.validate(g.space)
    # the parameter half first, so gamma's check still comes before the game's
    new_mu, new_gamma = _redundant_params(mu, gamma, spec)
    return _redundant_game(g, spec), new_mu, new_gamma


def _alpha_shares(spec: RedundancySpec, exact: bool) -> _Shared:
    """spec.alpha in shared form, in the given scalar mode."""
    return _Shared.of(scalar_array(spec.alpha, (len(spec.alpha),), exact))


def _redundant_game(g: Game, spec: RedundancySpec) -> Game:
    """The game half of reduce_redundant, for a validated spec: delete s0,
    then check that its payoffs are the alpha mixture of the rest."""
    i = spec.player
    p0 = g.space.strategy_index(i, spec.s0)
    new_space, others = _deleted(g.space, i, p0)
    reduced = _take_game(g, new_space, i, others)
    alpha = _alpha_shares(spec, g.exact)
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
    return reduced


def _redundant_params(mu: MeasureVector, gamma: CoMeasureVector, spec: RedundancySpec):
    """The parameter half of reduce_redundant, for a validated spec: check
    that gamma is uniform, then move mu^i(s0) to the other strategies in
    alpha-shares, over alpha's denominator."""
    space, i = mu.space, spec.player
    p0 = space.strategy_index(i, spec.s0)
    for j in space.players:
        if not gamma.is_player_constant(j):
            raise PreconditionError(f"gamma not uniform: gamma^{j + 1} varies")
    new_space, others = _deleted(space, i, p0)
    alpha = _alpha_shares(spec, mu.exact)
    w = mu._shared[i]
    kept = np.take(w.num, others)
    weights = _Shared(kept * alpha.den + alpha.num * w.num[p0], w.den * alpha.den)
    new_mu, new_gamma = _take_params(mu, gamma, new_space, i, others, weights)
    return new_mu, CoMeasureVector._with_shared(new_space, new_gamma._shared)
