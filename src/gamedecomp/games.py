"""Core value types: games, scalar fields, measures, co-measures, profiles.

All values are immutable after construction and every operation is a pure
function of its inputs, so concurrent use needs no locking.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError
from .numeric import (
    arrays_equal,
    array_is_exact,
    freeze,
    scalar_array,
    unequal_mask,
    zeros_array,
)
from .spaces import StrategySpace, require_same_space


def require_same_mode(*objects) -> None:
    """Raise unless every operand has the same scalar mode (exact or float)."""
    if len({obj.exact for obj in objects}) > 1:
        raise ValidationError("operands mix exact and float scalars")


def _coerce_tensor(space: StrategySpace, data, shape, exact: bool) -> np.ndarray:
    arr = np.asarray(data)
    if arr.shape == shape:
        flat = arr.reshape(-1)
    elif arr.shape == (int(np.prod(shape)),):
        flat = arr
    else:
        raise ValidationError(
            f"shape mismatch: expected {shape} (or flat length {int(np.prod(shape))}), "
            f"got {arr.shape}"
        )
    return scalar_array(flat.tolist(), shape, exact)


@dataclass(frozen=True, eq=False)
class Game:
    """Per-player payoff tensors over one shared profile space."""

    space: StrategySpace
    payoffs: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.payoffs) != self.space.n_players:
            raise ValidationError("need one payoff tensor per player")
        for arr in self.payoffs:
            if arr.shape != self.space.sizes:
                raise ValidationError(
                    f"payoff tensor shape {arr.shape} != {self.space.sizes}"
                )

    @classmethod
    def from_payoffs(cls, space: StrategySpace, payoffs, exact: bool = True) -> "Game":
        tensors = tuple(
            _coerce_tensor(space, p, space.sizes, exact) for p in payoffs
        )
        return cls(space, tensors)

    @classmethod
    def zeros(cls, space: StrategySpace, exact: bool = True) -> "Game":
        return cls(space, tuple(zeros_array(space.sizes, exact) for _ in space.players))

    @property
    def exact(self) -> bool:
        return array_is_exact(self.payoffs[0])

    def payoff(self, player: int, profile: tuple[int, ...]):
        return self.payoffs[player][profile]

    def flat(self, player: int) -> list:
        return self.payoffs[player].reshape(-1).tolist()

    def __add__(self, other: "Game") -> "Game":
        require_same_space(self, other)
        require_same_mode(self, other)
        return Game(
            self.space,
            tuple(freeze(a + b) for a, b in zip(self.payoffs, other.payoffs)),
        )

    def __sub__(self, other: "Game") -> "Game":
        require_same_space(self, other)
        require_same_mode(self, other)
        return Game(
            self.space,
            tuple(freeze(a - b) for a, b in zip(self.payoffs, other.payoffs)),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Game):
            return NotImplemented
        require_same_mode(self, other)
        return self.space == other.space and all(
            arrays_equal(a, b, self.exact)
            for a, b in zip(self.payoffs, other.payoffs)
        )

    def is_zero(self) -> bool:
        zero = Game.zeros(self.space, self.exact)
        return self == zero


@dataclass(frozen=True, eq=False)
class ScalarField:
    """An element of C0: one scalar per strategy profile."""

    space: StrategySpace
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.space.sizes:
            raise ValidationError("field shape does not match the strategy space")

    @classmethod
    def from_values(cls, space: StrategySpace, data, exact: bool = True) -> "ScalarField":
        return cls(space, _coerce_tensor(space, data, space.sizes, exact))

    @classmethod
    def zeros(cls, space: StrategySpace, exact: bool = True) -> "ScalarField":
        return cls(space, zeros_array(space.sizes, exact))

    @property
    def exact(self) -> bool:
        return array_is_exact(self.values)

    def value(self, profile: tuple[int, ...]):
        return self.values[profile]

    def flat(self) -> list:
        return self.values.reshape(-1).tolist()

    def __add__(self, other: "ScalarField") -> "ScalarField":
        require_same_space(self, other)
        require_same_mode(self, other)
        return ScalarField(self.space, freeze(self.values + other.values))

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        require_same_space(self, other)
        require_same_mode(self, other)
        return ScalarField(self.space, freeze(self.values - other.values))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScalarField):
            return NotImplemented
        require_same_mode(self, other)
        return self.space == other.space and arrays_equal(
            self.values, other.values, self.exact
        )


@dataclass(frozen=True, eq=False)
class MeasureVector:
    """Strictly positive weights on each player's own strategies."""

    space: StrategySpace
    weights: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.weights) != self.space.n_players:
            raise ValidationError("need one weight vector per player")
        for i, w in enumerate(self.weights):
            if w.shape != (self.space.sizes[i],):
                raise ValidationError(
                    f"mu^{i + 1} has {w.shape[0]} entries, expected {self.space.sizes[i]}"
                )

    @classmethod
    def from_weights(cls, space: StrategySpace, weights, exact: bool = True):
        tensors = tuple(
            _coerce_tensor(space, w, (space.sizes[i],), exact)
            for i, w in enumerate(weights)
        )
        return cls(space, tensors)

    @classmethod
    def uniform(cls, space: StrategySpace, value=Fraction(1), exact: bool = True):
        return cls.from_weights(
            space, [[value] * m for m in space.sizes], exact
        )

    @property
    def exact(self) -> bool:
        return array_is_exact(self.weights[0])

    def total(self, player: int):
        return self.weights[player].sum()

    def normalized(self, player: int) -> np.ndarray:
        w = self.weights[player]
        return w / self.total(player)

    def product_array(self) -> np.ndarray:
        """mu(s) = prod_i mu^i(s^i) as a full-profile tensor."""
        out = self.weights[0]
        for w in self.weights[1:]:
            out = np.multiply.outer(out, w)
        return out

    def opp_product_array(self, player: int) -> np.ndarray:
        """mu^{-i}(s^{-i}) as a tensor over S^{-i}."""
        rest = [w for j, w in enumerate(self.weights) if j != player]
        out = rest[0]
        for w in rest[1:]:
            out = np.multiply.outer(out, w)
        return out

    def scaled(self, factor) -> "MeasureVector":
        return MeasureVector(
            self.space, tuple(freeze(w * factor) for w in self.weights)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, MeasureVector):
            return NotImplemented
        return self.space == other.space and all(
            arrays_equal(a, b, self.exact) for a, b in zip(self.weights, other.weights)
        )


@dataclass(frozen=True, eq=False)
class CoMeasureVector:
    """Strictly positive weights gamma^i on each opponent subprofile space.

    ``generator`` is set when the vector is known to be a product co-measure
    gamma^i = prod_{j != i} c^j; it is preserved by the transformations that
    keep the product structure.
    """

    space: StrategySpace
    tensors: tuple[np.ndarray, ...]
    generator: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        if len(self.tensors) != self.space.n_players:
            raise ValidationError("need one co-measure tensor per player")
        for i, t in enumerate(self.tensors):
            if t.shape != self.space.opp_sizes(i):
                raise ValidationError(
                    f"gamma^{i + 1} shape {t.shape} != {self.space.opp_sizes(i)}"
                )
        if self.generator is not None:
            for i, c in enumerate(self.generator):
                if c.shape != (self.space.sizes[i],):
                    raise ValidationError("generator shape mismatch")

    @classmethod
    def from_tensors(cls, space: StrategySpace, tensors, exact: bool = True):
        arrays = tuple(
            _coerce_tensor(space, t, space.opp_sizes(i), exact)
            for i, t in enumerate(tensors)
        )
        return cls(space, arrays)

    @classmethod
    def uniform(cls, space: StrategySpace, value=Fraction(1), exact: bool = True):
        if value == 1:
            # the unit co-measure is the product co-measure generated by ones
            return cls.from_generator(
                space, [[value] * m for m in space.sizes], exact
            )
        return cls.from_tensors(
            space,
            [[value] * space.num_opp_profiles(i) for i in space.players],
            exact,
        )

    @classmethod
    def from_generator(cls, space: StrategySpace, generator, exact: bool = True):
        gen = tuple(
            _coerce_tensor(space, c, (space.sizes[i],), exact)
            for i, c in enumerate(generator)
        )
        tensors = []
        for i in space.players:
            rest = [c for j, c in enumerate(gen) if j != i]
            out = rest[0]
            for c in rest[1:]:
                out = np.multiply.outer(out, c)
            tensors.append(freeze(out))
        return cls(space, tuple(tensors), generator=gen)

    @property
    def exact(self) -> bool:
        return array_is_exact(self.tensors[0])

    def expanded(self, player: int) -> np.ndarray:
        """gamma^i broadcast over the full profile space (own axis inserted)."""
        return np.expand_dims(self.tensors[player], axis=player)

    def value(self, player: int, profile: tuple[int, ...]):
        opp = tuple(k for j, k in enumerate(profile) if j != player)
        return self.tensors[player][opp]

    def is_player_constant(self, player: int) -> bool:
        flat = self.tensors[player].reshape(-1)
        return bool(np.all(flat == flat[0]))

    def scaled(self, factor) -> "CoMeasureVector":
        # no canonical way to spread the factor over generator entries
        return CoMeasureVector(
            self.space, tuple(freeze(t * factor) for t in self.tensors), None
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoMeasureVector):
            return NotImplemented
        return self.space == other.space and all(
            arrays_equal(a, b, self.exact) for a, b in zip(self.tensors, other.tensors)
        )


@dataclass(frozen=True, eq=False)
class MixedProfile:
    """Per-player probability vectors; entries nonnegative, each sums to 1."""

    space: StrategySpace
    probs: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.probs) != self.space.n_players:
            raise ValidationError("need one probability vector per player")
        exact = array_is_exact(self.probs[0])
        for i, p in enumerate(self.probs):
            if p.shape != (self.space.sizes[i],):
                raise ValidationError(f"profile vector {i + 1} has wrong length")
            if any(x < 0 for x in p.reshape(-1).tolist()):
                raise ValidationError(f"negative probability for player {i + 1}")
            total = p.sum()
            if unequal_mask(total, 1, exact):
                raise ValidationError(
                    f"probabilities of player {i + 1} sum to {total}, not 1"
                )

    @classmethod
    def from_probs(cls, space: StrategySpace, probs, exact: bool = True):
        arrays = tuple(
            _coerce_tensor(space, p, (space.sizes[i],), exact)
            for i, p in enumerate(probs)
        )
        return cls(space, arrays)

    @classmethod
    def uniform(cls, space: StrategySpace, exact: bool = True):
        return cls.from_probs(
            space, [[Fraction(1, m)] * m for m in space.sizes], exact
        )

    @classmethod
    def pure(cls, space: StrategySpace, profile: tuple[int, ...], exact: bool = True):
        probs = []
        for i, k in enumerate(profile):
            row = [Fraction(0)] * space.sizes[i]
            row[k] = Fraction(1)
            probs.append(row)
        return cls.from_probs(space, probs, exact)

    @classmethod
    def from_positive_weights(cls, space: StrategySpace, weights, exact: bool = True):
        """Normalize strictly positive weight vectors into a profile."""
        probs = []
        for w in weights:
            vec = list(w)
            total = sum(vec)
            probs.append([x / total for x in vec])
        return cls.from_probs(space, probs, exact)

    @property
    def exact(self) -> bool:
        return array_is_exact(self.probs[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, MixedProfile):
            return NotImplemented
        return self.space == other.space and all(
            arrays_equal(a, b, self.exact) for a, b in zip(self.probs, other.probs)
        )


# -- parameter validation ----------------------------------------------------


def validate_parameters(
    space: StrategySpace, mu: MeasureVector, gamma: CoMeasureVector
) -> None:
    """Check spaces, a shared scalar mode and strict positivity; report the
    first offending entry."""
    if mu.space != space or gamma.space != space:
        raise ValidationError("parameters live on a different strategy space")
    require_same_mode(mu, gamma)
    for i in space.players:
        for k, w in enumerate(mu.weights[i].reshape(-1).tolist()):
            if w <= 0:
                label = space.labels[i][k]
                raise ValidationError(
                    f"nonpositive measure: mu^{i + 1}({label}) = {w}"
                )
    validate_co_measure(space, gamma)


def validate_co_measure(space: StrategySpace, gamma: CoMeasureVector) -> None:
    """Check that gamma lives on ``space`` and is strictly positive."""
    if gamma.space != space:
        raise ValidationError("parameters live on a different strategy space")
    for i in space.players:
        flat = gamma.tensors[i].reshape(-1).tolist()
        for k, w in enumerate(flat):
            if w <= 0:
                raise ValidationError(
                    f"nonpositive co-measure: gamma^{i + 1} entry {k} = {w}"
                )


# -- inner products ------------------------------------------------------------


def inner_product_c0(h: ScalarField, f: ScalarField, mu: MeasureVector):
    """<h, f>_0 = sum_s mu(s) h(s) f(s)."""
    require_same_space(h, f, mu)
    return (mu.product_array() * h.values * f.values).sum()


def norm_weights(mu: MeasureVector, gamma: CoMeasureVector) -> tuple[np.ndarray, ...]:
    """Per-player weights w_i(s) = mu^i(S^i) mu(s) gamma^i(s^{-i})^2 of the game
    inner product, as full-profile tensors; build once, reuse for every pair."""
    require_same_space(mu, gamma)
    prod = mu.product_array()
    return tuple(
        freeze(prod * (gamma.expanded(i) ** 2 * mu.total(i)))
        for i in mu.space.players
    )


def weighted_inner_product(g1: Game, g2: Game, weights: tuple[np.ndarray, ...]):
    """sum_i sum_s w_i(s) g1^i(s) g2^i(s), with ``weights`` from norm_weights."""
    require_same_space(g1, g2)
    return sum(
        (w * a * b).sum() for w, a, b in zip(weights, g1.payoffs, g2.payoffs)
    )


def inner_product_game(
    g1: Game, g2: Game, mu: MeasureVector, gamma: CoMeasureVector
):
    """<g1, g2>_{mu,gamma} = sum_i mu^i(S^i) <gamma^i g1^i, gamma^i g2^i>_0."""
    require_same_space(g1, g2, mu, gamma)
    return weighted_inner_product(g1, g2, norm_weights(mu, gamma))


def game_norm_sq(g: Game, mu: MeasureVector, gamma: CoMeasureVector):
    """Squared norm ||g||^2_{mu,gamma}; squared to stay rational in exact mode."""
    return inner_product_game(g, g, mu, gamma)
