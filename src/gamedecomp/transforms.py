"""Strategic game transformations and their induced parameter updates.

Each transformation comes with the parameter transformation that makes it
commute with the decomposition map: permutations permute mu and the player-i
coordinate inside every other gamma; scalings divide gamma by the scaling
co-measure; duplication splits the duplicated mu weight and replicates gamma
slices; reductions merge them back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import PreconditionError, ValidationError
from .numeric import axis_contract, freeze
from .games import CoMeasureVector, Game, MeasureVector
from .decomposition import is_nonstrategic
from .spaces import StrategySpace, require_same_space


# -- permutations ---------------------------------------------------------------


@dataclass(frozen=True)
class PermutationSpec:
    """Relabeling sigma of one player's strategies, as an index array."""

    player: int
    sigma: tuple[int, ...]

    def validate(self, space: StrategySpace) -> None:
        m = space.sizes[self.player]
        if sorted(self.sigma) != list(range(m)):
            raise ValidationError(
                f"invalid permutation array {self.sigma} for {m} strategies"
            )


def permute(g: Game, spec: PermutationSpec) -> Game:
    """(T g)^j(s^i, s^{-i}) = g^j(sigma(s^i), s^{-i}) for every player j."""
    spec.validate(g.space)
    idx = list(spec.sigma)
    payoffs = tuple(
        freeze(np.take(g.payoffs[j], idx, axis=spec.player))
        for j in g.space.players
    )
    return Game(g.space, payoffs)


def permute_params(
    mu: MeasureVector, gamma: CoMeasureVector, spec: PermutationSpec
) -> tuple[MeasureVector, CoMeasureVector]:
    """mu_sigma^i = mu^i o sigma; other gammas permute their player-i axis."""
    space = require_same_space(mu, gamma)
    spec.validate(space)
    i, idx = spec.player, list(spec.sigma)

    weights = list(mu.weights)
    weights[i] = freeze(np.take(mu.weights[i], idx, axis=0))
    new_mu = MeasureVector(space, tuple(weights))

    tensors = []
    for j in space.players:
        if j == i:
            tensors.append(gamma.tensors[j])
        else:
            axis = space.axis_in_opp(j, i)
            tensors.append(freeze(np.take(gamma.tensors[j], idx, axis=axis)))
    generator = None
    if gamma.generator is not None:
        generator = list(gamma.generator)
        generator[i] = freeze(np.take(gamma.generator[i], idx, axis=0))
        generator = tuple(generator)
    return new_mu, CoMeasureVector(space, tuple(tensors), generator)


# -- pseudo-translations ----------------------------------------------------------


def translate_nonstrategic(g: Game, ns: Game) -> Game:
    """Add a nonstrategic game; only the nonstrategic component moves."""
    require_same_space(g, ns)
    if not is_nonstrategic(ns):
        raise PreconditionError("translation not nonstrategic")
    return g + ns


# -- scalings ---------------------------------------------------------------------


def scale(g: Game, beta: CoMeasureVector) -> Game:
    """(beta . g)^i(s) = beta^i(s^{-i}) g^i(s)."""
    require_same_space(g, beta)
    payoffs = tuple(
        freeze(g.payoffs[i] * beta.expanded(i)) for i in g.space.players
    )
    return Game(g.space, payoffs)


def co_measure_quotient(
    gamma: CoMeasureVector, beta: CoMeasureVector
) -> CoMeasureVector:
    """(gamma/beta)^i = gamma^i / beta^i entrywise; preserves product structure."""
    space = require_same_space(gamma, beta)
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
    space = require_same_space(g, mu, gamma)
    spec.validate()
    i = spec.player
    src = space.strategy_index(i, spec.source)
    pos = src + 1  # deterministic insertion point, directly after the source
    new_space = space.insert_strategy(i, pos, spec.new_label)

    payoffs = tuple(
        freeze(_insert_slice(g.payoffs[j], i, pos, src)) for j in space.players
    )
    new_game = Game(new_space, payoffs)

    weights = list(mu.weights)
    w = weights[i].tolist()
    moved = w[src]
    w[src] = (1 - spec.lam) * moved
    w.insert(pos, spec.lam * moved)
    new_mu = MeasureVector.from_weights(
        new_space,
        [w if j == i else weights[j].tolist() for j in space.players],
        exact=g.exact,
    )

    tensors = []
    for j in space.players:
        if j == i:
            tensors.append(gamma.tensors[j])
        else:
            axis = space.axis_in_opp(j, i)
            tensors.append(_insert_slice(gamma.tensors[j], axis, pos, src))
    generator = None
    if gamma.generator is not None:
        gen = list(gamma.generator)
        c = gen[i].tolist()
        c.insert(pos, c[src])
        generator = [
            c if j == i else gen[j].tolist() for j in space.players
        ]
    new_gamma = (
        CoMeasureVector.from_generator(new_space, generator, exact=g.exact)
        if generator is not None
        else CoMeasureVector.from_tensors(
            new_space, [t.tolist() for t in tensors], exact=g.exact
        )
    )
    return new_game, new_mu, new_gamma


def _insert_slice(arr: np.ndarray, axis: int, pos: int, src: int) -> np.ndarray:
    copied = np.expand_dims(np.take(arr, src, axis=axis), axis)
    left = np.take(arr, range(pos), axis=axis)
    right = np.take(arr, range(pos, arr.shape[axis]), axis=axis)
    return np.concatenate([left, copied, right], axis=axis)


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
    space = require_same_space(g, mu, gamma)
    i = player
    p0 = space.strategy_index(i, s0)
    p1 = space.strategy_index(i, s1)
    if p0 == p1:
        raise ValidationError("s0 and s1 must be different strategies")

    for j in space.players:
        a = np.take(g.payoffs[j], p0, axis=i)
        b = np.take(g.payoffs[j], p1, axis=i)
        diffs = np.argwhere(a != b) if g.exact else np.argwhere(np.abs(a - b) > 1e-9)
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
        same = bool(np.all(a == b)) if g.exact else bool(np.all(np.abs(a - b) <= 1e-9))
        if not same:
            raise PreconditionError(
                f"gamma not coherent: gamma^{j + 1} differs between "
                f"{s0!r} and {s1!r} slices"
            )

    new_space = space.delete_strategy(i, p0)
    payoffs = tuple(
        freeze(np.delete(g.payoffs[j], p0, axis=i)) for j in space.players
    )
    new_game = Game(new_space, payoffs)

    w = mu.weights[i].tolist()
    w[p1] = w[p1] + w[p0]
    del w[p0]
    new_mu = MeasureVector.from_weights(
        new_space,
        [w if j == i else mu.weights[j].tolist() for j in space.players],
        exact=g.exact,
    )

    tensors = []
    for j in space.players:
        if j == i:
            tensors.append(gamma.tensors[j].tolist())
        else:
            axis = space.axis_in_opp(j, i)
            tensors.append(np.delete(gamma.tensors[j], p0, axis=axis).tolist())
    generator = None
    if gamma.generator is not None:
        gen = [c.tolist() for c in gamma.generator]
        del gen[i][p0]
        generator = gen
    new_gamma = (
        CoMeasureVector.from_generator(new_space, generator, exact=g.exact)
        if generator is not None
        else CoMeasureVector.from_tensors(new_space, tensors, exact=g.exact)
    )
    return new_game, new_mu, new_gamma


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
        m = space.sizes[self.player]
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
    unchanged to the smaller space.
    """
    space = require_same_space(g, mu, gamma)
    spec.validate(space)
    i = spec.player
    p0 = space.strategy_index(i, spec.s0)
    others = [k for k in range(space.sizes[i]) if k != p0]

    for j in space.players:
        if not gamma.is_player_constant(j):
            raise PreconditionError(f"gamma not uniform: gamma^{j + 1} varies")

    kept = tuple(freeze(np.delete(g.payoffs[j], p0, axis=i)) for j in space.players)
    for j in space.players:
        mix = axis_contract(kept[j], spec.alpha, i)
        actual = np.take(g.payoffs[j], p0, axis=i)
        bad = (
            np.argwhere(actual != mix)
            if g.exact
            else np.argwhere(np.abs(actual - mix) > 1e-9)
        )
        if bad.size:
            where = tuple(int(x) for x in bad[0])
            raise PreconditionError(
                f"not alpha-redundant: player {j + 1} payoff at opponent "
                f"subprofile {where} misses the alpha mixture"
            )

    new_space = space.delete_strategy(i, p0)
    new_game = Game(new_space, kept)

    w = mu.weights[i].tolist()
    removed = w[p0]
    new_w = [w[k] + a * removed for a, k in zip(spec.alpha, others)]
    new_mu = MeasureVector.from_weights(
        new_space,
        [new_w if j == i else mu.weights[j].tolist() for j in space.players],
        exact=g.exact,
    )

    new_gamma = CoMeasureVector.from_tensors(
        new_space,
        [
            [gamma.tensors[j].reshape(-1)[0]] * new_space.num_opp_profiles(j)
            for j in space.players
        ],
        exact=g.exact,
    )
    return new_game, new_mu, new_gamma
