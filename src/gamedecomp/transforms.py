"""Strategic game transformations and their induced parameter updates.

Each transformation comes with the parameter transformation that makes it
commute with the decomposition map.  Permutations, duplications and
reductions all edit one player's strategy axis, and each public transform
builds one ``_Edit`` for it: new strategy k of player i is old strategy
idx[k], taken along axis i of every payoff tensor (``_Edit.game``), along
i's axis inside every other gamma^j and from the generator's entry for i
(``_Edit.params``).  Only the new mu^i differs between them: permuted, split
by lam, merged into s1, or given alpha-shares; each transform computes it
inline, after its checks.  Scalings divide gamma by the scaling co-measure.

The reductions check the game with ``_duplicate_checked`` and
``_mixture_reduced``.  The law suite carries each part of a decomposition
through the same edit and check, without the parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError, ValidationError
from .numeric import _Shared, _float_range, axis_contract, unequal_mask
from .games import CoMeasureVector, Game, MeasureVector, require_operands
from .decomposition import is_nonstrategic
from .spaces import StrategySpace


# -- the strategy-axis re-indexing rule --------------------------------------------


def _take(x: _Shared, idx, axis: int = 0) -> _Shared:
    """x with idx taken along ``axis``, from the numerators."""
    return _Shared(np.take(x.num, idx, axis=axis), x.den)


class _Edit(NamedTuple):
    """One player's strategy axis re-indexed: on ``space``, strategy k of
    ``player`` is old strategy idx[k]."""

    space: StrategySpace
    player: int
    idx: list

    def game(self, g: Game) -> Game:
        """g under this edit, taken from the numerators, over the same
        denominators."""
        taken = (_take(x, self.idx, self.player) for x in g._shared)
        return Game._with_shared(self.space, taken)

    def params(
        self, mu: MeasureVector, gamma: CoMeasureVector, weights: _Shared | None = None
    ) -> tuple[MeasureVector, CoMeasureVector]:
        """mu and gamma under this edit, on numerators.

        mu^player becomes ``weights``, or takes idx when none are given; every
        gamma^j with j != player, and the generator's entry for player, take
        idx along player's axis.  gamma^player and the other weights do not
        see player's strategy and stay as they are.
        """
        space, i, idx = self
        mu_weights = list(mu._shared)
        mu_weights[i] = _take(mu_weights[i], idx) if weights is None else weights
        tensors = (
            x if j == i else _take(x, idx, space.axis_in_opp(j, i))
            for j, x in enumerate(gamma._shared)
        )
        generator = gamma._generator
        if generator is not None:
            generator = tuple(_take(c, idx) if j == i else c for j, c in enumerate(generator))
        return (
            MeasureVector._with_shared(space, mu_weights),
            CoMeasureVector._with_shared(space, tensors, _generator=generator),
        )


def _deletion(space: StrategySpace, player: int, p0: int) -> _Edit:
    """The edit that deletes strategy p0 of ``player``."""
    others = [k for k in range(space.sizes[player]) if k != p0]
    return _Edit(space.delete_strategy(player, p0), player, others)


def _first_difference(a: np.ndarray, b: np.ndarray, exact: bool) -> tuple[int, ...] | None:
    """The first opponent subprofile, in row-major order, where the slices a
    and b differ, or None; the slices have at least one axis."""
    diffs = np.argwhere(unequal_mask(a, b, exact))
    return tuple(int(x) for x in diffs[0]) if diffs.size else None


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


def _permutation(space: StrategySpace, spec: PermutationSpec) -> _Edit:
    """The edit that relabels the player's strategies by sigma, once sigma is
    checked."""
    spec.validate(space)
    return _Edit(space, spec.player, list(spec.sigma))


def permute(g: Game, spec: PermutationSpec) -> Game:
    """(T g)^j(s^i, s^{-i}) = g^j(sigma(s^i), s^{-i}) for every player j."""
    return _permutation(g.space, spec).game(g)


def permute_params(
    mu: MeasureVector, gamma: CoMeasureVector, spec: PermutationSpec
) -> tuple[MeasureVector, CoMeasureVector]:
    """mu_sigma^i = mu^i o sigma; other gammas permute their player-i axis."""
    return _permutation(require_operands(mu, gamma), spec).params(mu, gamma)


# -- pseudo-translations ----------------------------------------------------------


@_float_range("the translation")
def translate_nonstrategic(g: Game, ns: Game) -> Game:
    """Add a nonstrategic game; only the nonstrategic component moves."""
    require_operands(g, ns)
    if not is_nonstrategic(ns):
        raise PreconditionError("translation not nonstrategic")
    return g + ns


# -- scalings ---------------------------------------------------------------------


@_float_range("the scaling")
def scale(g: Game, beta: CoMeasureVector) -> Game:
    """(beta . g)^i(s) = beta^i(s^{-i}) g^i(s); beta is strictly positive
    like every co-measure."""
    require_operands(g, beta)
    factors = (beta.expanded(i) for i in g.space.players)
    return Game._with_shared(g.space, (
        _Shared(x.num * b.num, x.den * b.den) for x, b in zip(g._shared, factors)
    ))


@_float_range("the co-measure quotient")
def co_measure_quotient(
    gamma: CoMeasureVector, beta: CoMeasureVector
) -> CoMeasureVector:
    """(gamma/beta)^i = gamma^i / beta^i entrywise; preserves product structure."""
    space = require_operands(gamma, beta)
    tensors = _quotients("co-measure tensor", gamma._shared, beta._shared)
    generator = None
    if gamma._generator is not None and beta._generator is not None:
        generator = _quotients("generator", gamma._generator, beta._generator)
    return CoMeasureVector._with_shared(space, tensors, _generator=generator)


def _quotients(noun: str, tops, bottoms) -> tuple[_Shared, ...]:
    """top / bottom entrywise for each pair of positive shared tensors.  A
    float entry of 0 is an underflow, refused pointing to exact mode, as an
    entry that overflows to inf is when the co-measure is built."""
    out = tuple(top.divide(bottom.divisor()) for top, bottom in zip(tops, bottoms))
    for x, top, bottom in zip(out, tops, bottoms):
        if x.exact:
            continue  # an exact quotient of positive entries is positive
        zero = x.num.reshape(-1) == 0
        if zero.any():
            k = int(np.argmax(zero))
            a, b = float(top.num.reshape(-1)[k]), float(bottom.num.reshape(-1)[k])
            raise ValidationError(
                f"a {noun} entry leaves the float range ({a!r} / {b!r} underflows "
                "to 0.0); use exact mode"
            )
    return out


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
    """Insert a duplicate strategy right after its source and split
    parameters: mu^i(src) splits into shares 1 - lam and lam, over the
    shares' denominator."""
    space = require_operands(g, mu, gamma)
    spec.validate()
    edit, src = _duplication(space, spec)
    w = mu._shared[spec.player]
    split = _Shared.of([1 - spec.lam, spec.lam], (2,), mu.exact)
    parts = [w.num[:src] * split.den, split.num * w.num[src], w.num[src + 1:] * split.den]
    weights = _Shared(np.concatenate(parts), w.den * split.den)
    return (edit.game(g), *edit.params(mu, gamma, weights))


def _duplication(space: StrategySpace, spec: DuplicationSpec) -> tuple[_Edit, int]:
    """The edit that inserts the copy of spec.source directly after it, a
    deterministic insertion point, and the source's index."""
    i = spec.player
    src = space.strategy_index(i, spec.source)
    pos = src + 1
    new_space = space.insert_strategy(i, pos, spec.new_label)
    return _Edit(new_space, i, [*range(pos), src, *range(pos, space.sizes[i])]), src


# -- reduction of duplicates --------------------------------------------------------


@_float_range("the duplicate reduction")
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
    p0 = space.strategy_index(player, s0)
    p1 = space.strategy_index(player, s1)
    if p0 == p1:
        raise ValidationError("s0 and s1 must be different strategies")
    _duplicate_checked(g, player, p0, p1)
    # built after the duplicate check: deleting from 2 strategies is refused
    edit = _deletion(space, player, p0)
    for j in space.players:
        if j == player:
            continue
        axis = space.axis_in_opp(j, player)
        a = np.take(gamma._shared[j].num, p0, axis=axis)
        b = np.take(gamma._shared[j].num, p1, axis=axis)
        # .any(), not _first_difference: on 2 players the slices are 0-d
        if unequal_mask(a, b, mu.exact).any():
            raise PreconditionError(
                f"gamma not coherent: gamma^{j + 1} differs between "
                f"{s0!r} and {s1!r} slices"
            )
    w = mu._shared[player]
    num = w.num.copy()
    num[p1] += num[p0]
    return (edit.game(g), *edit.params(mu, gamma, _take(_Shared(num, w.den), edit.idx)))


def _duplicate_checked(g: Game, player: int, p0: int, p1: int) -> Game:
    """g, after checking that strategy p0 of ``player`` duplicates p1 for
    every player; compared on numerators, which share one tensor's
    denominator."""
    for j, payoff in enumerate(g._shared):
        a = np.take(payoff.num, p0, axis=player)
        b = np.take(payoff.num, p1, axis=player)
        where = _first_difference(a, b, g.exact)
        if where is not None:
            raise PreconditionError(
                f"not a duplicate: payoff of player {j + 1} differs at "
                f"opponent subprofile {where}"
            )
    return g


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


@_float_range("the redundancy reduction")
def reduce_redundant(
    g: Game,
    mu: MeasureVector,
    gamma: CoMeasureVector,
    spec: RedundancySpec,
) -> tuple[Game, MeasureVector, CoMeasureVector]:
    """Delete an alpha-redundant strategy; mu gains alpha-shares of its weight.

    Requires a uniform co-measure vector (each gamma^j constant over the
    opponent subprofiles; the constants may differ across players), restricted
    unchanged to the smaller space and returned without a generator.  gamma is
    checked before the game.
    """
    space = require_operands(g, mu, gamma)
    spec.validate(space)
    i = spec.player
    p0 = space.strategy_index(i, spec.s0)
    for j in space.players:
        if not gamma.is_player_constant(j):
            raise PreconditionError(f"gamma not uniform: gamma^{j + 1} varies")
    edit = _deletion(space, i, p0)
    alpha = _Shared.of(spec.alpha, (len(spec.alpha),), g.exact)
    reduced = _mixture_reduced(g, edit, p0, alpha)
    # mu^i(s0) moves to the other strategies in alpha-shares, over alpha's denominator
    w = mu._shared[i]
    kept = np.take(w.num, edit.idx)
    weights = _Shared(kept * alpha.den + alpha.num * w.num[p0], w.den * alpha.den)
    new_mu, new_gamma = edit.params(mu, gamma, weights)
    return reduced, new_mu, CoMeasureVector._with_shared(edit.space, new_gamma._shared)


def _mixture_reduced(g: Game, edit: _Edit, p0: int, alpha: _Shared) -> Game:
    """edit.game(g), for the edit that deletes strategy p0, after checking
    that g's payoffs at p0 are the alpha mixture of the strategies kept."""
    reduced = edit.game(g)
    i = edit.player
    for j, (payoff, kept) in enumerate(zip(g._shared, reduced._shared)):
        # both sides times the denominators of g^j and alpha
        mix = axis_contract(kept.num, alpha.num, i)
        actual = np.take(payoff.num, p0, axis=i) * alpha.den
        where = _first_difference(actual, mix, g.exact)
        if where is not None:
            raise PreconditionError(
                f"not alpha-redundant: player {j + 1} payoff at opponent "
                f"subprofile {where} misses the alpha mixture"
            )
    return reduced
