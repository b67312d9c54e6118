"""Core value types: games, scalar fields, measures, co-measures, profiles.

All values are immutable after construction and every operation is a pure
function of its inputs, so concurrent use needs no locking.

The five types share one private base, ``_Tensors``: a strategy space plus
one scalar tensor per player (a single tensor for ``ScalarField``).  It holds
the ``exact`` property, ``==`` (which refuses mixed scalar modes), the shape
check against each class's ``_shapes``, the count-checked coercion behind
every ``from_*`` constructor, and the ``+``/``-`` of ``Game`` and
``ScalarField``.  ``Game`` still binds ``__add__``, ``__sub__`` and ``__eq__``
in its own class body: the layer tracer in ``perfbench/spans.py`` wraps them
by reading ``Game.__dict__``, where an inherited method is not found.

A ``Game`` keeps its payoffs in shared form (``numeric._Shared``) once it
has them: ``Game._with_shared`` stores the form a game was computed in, and
``shared_payoffs`` converts any other game once, on first read.  Games made
by ``+``, ``-`` or a transformation are new objects and convert their own.

``MeasureVector`` and ``CoMeasureVector`` refuse a nonpositive entry when
they are built, so every mu and gamma in the package is strictly positive.
``require_operands`` is the one operand check of every public function: one
strategy space, then one scalar mode.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce

import numpy as np

from .errors import ValidationError
from .numeric import (
    _Shared,
    arrays_equal,
    array_is_exact,
    freeze,
    quotient,
    scalar_array,
    unequal_mask,
    zeros_array,
)
from .spaces import StrategySpace


def require_operands(*operands) -> StrategySpace:
    """The operand check of every public function: raise unless all operands
    live on one strategy space, then unless they share one scalar mode;
    return that space."""
    spaces = {obj.space for obj in operands}
    if len(spaces) != 1:
        raise ValidationError("arguments live on different strategy spaces")
    require_same_mode(*operands)
    return next(iter(spaces))


def require_same_mode(*objects) -> None:
    """Raise unless every operand has the same scalar mode (exact or float)."""
    if len({obj.exact for obj in objects}) > 1:
        raise ValidationError("operands mix exact and float scalars")


def _coerce_tensor(data, shape, exact: bool) -> np.ndarray:
    arr = np.asarray(data)
    size = math.prod(shape)
    if arr.shape not in (shape, (size,)):
        raise ValidationError(
            f"shape mismatch: expected {shape} (or flat length {size}), got {arr.shape}"
        )
    return scalar_array(arr.reshape(-1).tolist(), shape, exact)


def _check_shapes(what: str, arrays, shapes) -> None:
    got = tuple(arr.shape for arr in arrays)
    if got != shapes:
        raise ValidationError(f"{what} shapes {got} do not match the space: expected {shapes}")


def _require_positive(arrays, message) -> None:
    """Raise message(i, k, value) for the first entry k <= 0 in row-major
    order of the first array i that has one."""
    for i, arr in enumerate(arrays):
        flat = arr.reshape(-1)
        bad = flat <= 0
        if bad.any():
            k = int(np.argmax(bad))
            raise ValidationError(message(i, k, flat[k]))


def _own_shapes(space: StrategySpace) -> tuple[tuple[int, ...], ...]:
    """One vector per player over that player's own strategies."""
    return tuple((m,) for m in space.sizes)


def _outer(vectors) -> np.ndarray:
    """The outer product v_1 x v_2 x ... as a tensor, first vector slowest."""
    return reduce(np.multiply.outer, vectors)


class _Tensors:
    """A strategy space plus the tuple of scalar tensors named by ``_field``,
    shaped as ``_shapes(space)`` says; see the module docstring."""

    _field = ""  # the dataclass field holding the tensors
    _noun = ""  # what one tensor is, for error messages

    @staticmethod
    def _shapes(space: StrategySpace) -> tuple[tuple[int, ...], ...]:
        raise NotImplementedError

    @property
    def _arrays(self) -> tuple[np.ndarray, ...]:
        return getattr(self, self._field)

    @classmethod
    def _build(cls, space: StrategySpace, arrays: tuple[np.ndarray, ...]):
        return cls(space, arrays)

    @classmethod
    def _coerce(cls, space: StrategySpace, data, exact: bool, shapes=None, noun=None):
        """One immutable tensor per item of ``data``, after checking the count."""
        shapes = cls._shapes(space) if shapes is None else shapes
        data = list(data)
        if len(data) != len(shapes):
            raise ValidationError(
                f"need one {noun or cls._noun} per player ({len(shapes)}), got {len(data)}"
            )
        return tuple(_coerce_tensor(d, shape, exact) for d, shape in zip(data, shapes))

    def __post_init__(self):
        _check_shapes(self._noun, self._arrays, self._shapes(self.space))

    @property
    def exact(self) -> bool:
        return array_is_exact(self._arrays[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        require_same_mode(self, other)
        return self.space == other.space and all(
            arrays_equal(a, b, self.exact) for a, b in zip(self._arrays, other._arrays)
        )

    def _combine(self, other, op):
        require_operands(self, other)
        return self._build(
            self.space,
            tuple(freeze(op(a, b)) for a, b in zip(self._arrays, other._arrays)),
        )

    def _add(self, other):
        return self._combine(other, operator.add)

    def _sub(self, other):
        return self._combine(other, operator.sub)


@dataclass(frozen=True, eq=False)
class Game(_Tensors):
    """Per-player payoff tensors over one shared profile space."""

    space: StrategySpace
    payoffs: tuple[np.ndarray, ...]

    _field = "payoffs"
    _noun = "payoff tensor"

    @staticmethod
    def _shapes(space):
        return tuple(space.sizes for _ in space.players)

    @classmethod
    def from_payoffs(cls, space: StrategySpace, payoffs, exact: bool = True) -> "Game":
        return cls(space, cls._coerce(space, payoffs, exact))

    @classmethod
    def zeros(cls, space: StrategySpace, exact: bool = True) -> "Game":
        return cls(space, tuple(zeros_array(space.sizes, exact) for _ in space.players))

    @classmethod
    def _with_shared(cls, space: StrategySpace, shared, payoffs=None) -> "Game":
        """The game with payoffs ``shared`` in shared form, which it keeps:
        ``payoffs`` are those tensors already converted out, else each is
        converted now."""
        shared = tuple(shared)
        if payoffs is None:
            payoffs = tuple(x.values() for x in shared)
        game = cls(space, tuple(payoffs))
        game.__dict__["_shared"] = shared
        return game

    @cached_property
    def _shared(self) -> tuple[_Shared, ...]:
        """The payoff tensors in shared form, one per player: the form the
        game was built from (_with_shared), else converted on first read."""
        return tuple(_Shared.of(p) for p in self.payoffs)

    def flat(self, player: int) -> list:
        return self.payoffs[player].reshape(-1).tolist()

    __add__ = _Tensors._add
    __sub__ = _Tensors._sub
    __eq__ = _Tensors.__eq__

    def is_zero(self) -> bool:
        return self == Game.zeros(self.space, self.exact)


@dataclass(frozen=True, eq=False)
class ScalarField(_Tensors):
    """An element of C0: one scalar per strategy profile."""

    space: StrategySpace
    values: np.ndarray

    _noun = "field"

    @staticmethod
    def _shapes(space):
        return (space.sizes,)

    @property
    def _arrays(self) -> tuple[np.ndarray, ...]:
        return (self.values,)

    @classmethod
    def _build(cls, space, arrays):
        return cls(space, arrays[0])

    @classmethod
    def from_values(cls, space: StrategySpace, data, exact: bool = True) -> "ScalarField":
        return cls(space, cls._coerce(space, [data], exact)[0])

    @classmethod
    def zeros(cls, space: StrategySpace, exact: bool = True) -> "ScalarField":
        return cls(space, zeros_array(space.sizes, exact))

    def flat(self) -> list:
        return self.values.reshape(-1).tolist()

    __add__ = _Tensors._add
    __sub__ = _Tensors._sub


@dataclass(frozen=True, eq=False)
class MeasureVector(_Tensors):
    """Strictly positive weights on each player's own strategies."""

    space: StrategySpace
    weights: tuple[np.ndarray, ...]

    _field = "weights"
    _noun = "weight vector"
    _shapes = staticmethod(_own_shapes)

    def __post_init__(self):
        super().__post_init__()
        _require_positive(
            self.weights,
            lambda i, k, w: f"nonpositive measure: mu^{i + 1}({self.space.labels[i][k]}) = {w}",
        )

    @classmethod
    def from_weights(cls, space: StrategySpace, weights, exact: bool = True):
        return cls(space, cls._coerce(space, weights, exact))

    @classmethod
    def uniform(cls, space: StrategySpace, value=Fraction(1), exact: bool = True):
        return cls.from_weights(space, [[value] * m for m in space.sizes], exact)

    def total(self, player: int):
        return self.weights[player].sum()

    def product_array(self) -> np.ndarray:
        """mu(s) = prod_i mu^i(s^i) as a full-profile tensor."""
        return _outer(self.weights)

    def scaled(self, factor) -> "MeasureVector":
        return MeasureVector(self.space, tuple(freeze(w * factor) for w in self.weights))


@dataclass(frozen=True, eq=False)
class CoMeasureVector(_Tensors):
    """Strictly positive weights gamma^i on each opponent subprofile space.

    ``generator`` is set when the vector is known to be a product co-measure
    gamma^i = prod_{j != i} c^j; it is preserved by the transformations that
    keep the product structure.
    """

    space: StrategySpace
    tensors: tuple[np.ndarray, ...]
    generator: tuple[np.ndarray, ...] | None = None

    _field = "tensors"
    _noun = "co-measure tensor"

    @staticmethod
    def _shapes(space):
        return tuple(space.opp_sizes(i) for i in space.players)

    def __post_init__(self):
        super().__post_init__()
        if self.generator is not None:
            _check_shapes("generator", self.generator, _own_shapes(self.space))
        _require_positive(
            self.tensors,
            lambda i, k, w: f"nonpositive co-measure: gamma^{i + 1} entry {k} = {w}",
        )

    @classmethod
    def from_tensors(cls, space: StrategySpace, tensors, exact: bool = True):
        tensors = cls._coerce(space, tensors, exact)
        if all(v == 1 for t in tensors for v in t.flat):
            # an all-ones co-measure is the unit product co-measure, generated by ones
            return cls.from_generator(space, [[1] * m for m in space.sizes], exact)
        return cls(space, tensors)

    @classmethod
    def uniform(cls, space: StrategySpace, value=Fraction(1), exact: bool = True):
        return cls.from_tensors(
            space, [[value] * space.num_opp_profiles(i) for i in space.players], exact
        )

    @classmethod
    def from_generator(cls, space: StrategySpace, generator, exact: bool = True):
        gen = cls._coerce(space, generator, exact, _own_shapes(space), "generator vector")
        tensors = tuple(
            freeze(_outer(c for j, c in enumerate(gen) if j != i)) for i in space.players
        )
        return cls(space, tensors, generator=gen)

    def expanded(self, player: int) -> np.ndarray:
        """gamma^i broadcast over the full profile space (own axis inserted)."""
        return np.expand_dims(self.tensors[player], axis=player)

    def is_player_constant(self, player: int) -> bool:
        flat = self.tensors[player].reshape(-1)
        return bool(np.all(flat == flat[0]))

    def scaled(self, factor) -> "CoMeasureVector":
        # no canonical way to spread the factor over generator entries
        return CoMeasureVector(
            self.space, tuple(freeze(t * factor) for t in self.tensors), None
        )


@dataclass(frozen=True, eq=False)
class MixedProfile(_Tensors):
    """Per-player probability vectors; entries nonnegative, each sums to 1."""

    space: StrategySpace
    probs: tuple[np.ndarray, ...]

    _field = "probs"
    _noun = "probability vector"
    _shapes = staticmethod(_own_shapes)

    def __post_init__(self):
        super().__post_init__()
        for i, p in enumerate(self.probs):
            if (p < 0).any():
                raise ValidationError(f"negative probability for player {i + 1}")
            total = p.sum()
            if unequal_mask(total, 1, self.exact):
                raise ValidationError(
                    f"probabilities of player {i + 1} sum to {total}, not 1"
                )

    @classmethod
    def from_probs(cls, space: StrategySpace, probs, exact: bool = True):
        return cls(space, cls._coerce(space, probs, exact))

    @classmethod
    def uniform(cls, space: StrategySpace, exact: bool = True):
        return cls.from_probs(space, [[Fraction(1, m)] * m for m in space.sizes], exact)

    @classmethod
    def pure(cls, space: StrategySpace, profile: tuple[int, ...], exact: bool = True):
        rows = [[int(j == k) for j in range(space.sizes[i])] for i, k in enumerate(profile)]
        return cls.from_probs(space, rows, exact)

    @classmethod
    def from_positive_weights(cls, space: StrategySpace, weights, exact: bool = True):
        """Normalize strictly positive weight vectors into a profile.

        The weights are coerced to the scalar mode first, so exact weights
        given as Python ints are divided exactly.
        """
        probs = []
        for w in weights:
            vec = list(w)
            vec = scalar_array(vec, (len(vec),), exact).tolist()
            total = sum(vec)
            probs.append([x / total for x in vec])
        return cls.from_probs(space, probs, exact)


# -- parameter validation ----------------------------------------------------

_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_LOG_FLOAT_MIN = math.log(sys.float_info.min)


def validate_parameters(mu: MeasureVector, gamma: CoMeasureVector) -> None:
    """Float mode: every norm weight w_i(s) = mu^i(S^i) mu(s) gamma^i(s^{-i})^2
    must be a normal float, or mu(s) h(s), d^2 and B^2 overflow or lose their
    precision.  Decided on the logarithms of the largest and smallest
    products, which cannot overflow.

    Every caller has already checked mu and gamma with ``require_operands``
    (one space, one scalar mode), and both types refuse a nonpositive entry
    when they are built, so exact mode has nothing left to check."""
    if mu.exact:
        return
    weights = [w.tolist() for w in mu.weights]
    top_mu = sum(math.log(max(w)) for w in weights)
    bottom_mu = sum(math.log(min(w)) for w in weights)
    for i, t in enumerate(gamma.tensors):
        w, hi = weights[i], max(weights[i])
        log_total = math.log(hi) + math.log(sum(x / hi for x in w))
        top = log_total + top_mu + 2 * math.log(t.max())
        bottom = log_total + bottom_mu + 2 * math.log(t.min())
        if top > _LOG_FLOAT_MAX or bottom < _LOG_FLOAT_MIN:
            raise ValidationError(
                f"mu and gamma take the norm weights of player {i + 1} out of the "
                "float range (mu^i(S^i) mu(s) gamma^i(s^-i)^2 must lie within "
                f"[{sys.float_info.min!r}, {sys.float_info.max!r}]); use exact mode"
            )


# -- inner products ------------------------------------------------------------


def inner_product_c0(h: ScalarField, f: ScalarField, mu: MeasureVector):
    """<h, f>_0 = sum_s mu(s) h(s) f(s)."""
    require_operands(h, f, mu)
    return (mu.product_array() * h.values * f.values).sum()


def norm_weights(mu: MeasureVector, gamma: CoMeasureVector) -> tuple[_Shared, ...]:
    """Per-player weights w_i(s) = mu^i(S^i) mu(s) gamma^i(s^{-i})^2 of the game
    inner product, as full-profile shared tensors; build once, reuse for
    every pair.

    Exact mode multiplies the numerators of mu and gamma over the product of
    their denominators.  Float mode computes prod * (gamma^i ** 2 * mu^i(S^i))
    in that order, which fixes its rounding.
    """
    require_operands(mu, gamma)
    weights = [_Shared.of(w) for w in mu.weights]
    prod = _outer([w.num for w in weights])
    den = math.prod(w.den for w in weights)
    out = []
    for i in mu.space.players:
        g = _Shared.of(gamma.expanded(i))
        factor = _Shared(g.num ** 2, g.den ** 2).scale(mu.total(i))
        out.append(_Shared(freeze(prod * factor.num), den * factor.den))
    return tuple(out)


def shared_payoffs(g: Game) -> tuple[_Shared, ...]:
    """g's payoff tensors in shared form, one per player; each game converts
    its payoffs at most once (Game._shared)."""
    return g._shared


def weighted_inner_product(g1: Game, g2: Game, weights: tuple[_Shared, ...]):
    """sum_i sum_s w_i(s) g1^i(s) g2^i(s), with ``weights`` from norm_weights.

    The payoffs are read in shared form, and each player's sum runs on the
    numerators and is divided once, by w.den a.den b.den, so exact mode
    builds one ``Fraction`` per player.  The player sums are added in player
    order; float mode thus sums (w * a * b).sum() per player.
    """
    require_operands(g1, g2)
    return sum(
        quotient((w.num * a.num * b.num).sum(), w.den * a.den * b.den, w.exact)
        for w, a, b in zip(weights, shared_payoffs(g1), shared_payoffs(g2))
    )


def inner_product_game(
    g1: Game, g2: Game, mu: MeasureVector, gamma: CoMeasureVector
):
    """<g1, g2>_{mu,gamma} = sum_i mu^i(S^i) <gamma^i g1^i, gamma^i g2^i>_0."""
    require_operands(g1, g2, mu, gamma)
    return weighted_inner_product(g1, g2, norm_weights(mu, gamma))


def game_norm_sq(g: Game, mu: MeasureVector, gamma: CoMeasureVector):
    """Squared norm ||g||^2_{mu,gamma}; squared to stay rational in exact mode."""
    return inner_product_game(g, g, mu, gamma)
