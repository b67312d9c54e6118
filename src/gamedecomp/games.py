"""Core value types: games, scalar fields, measures, co-measures, profiles.

All values are immutable after construction and every operation is a pure
function of its inputs, so concurrent use needs no locking.

The five types share one private base, ``_Tensors``, and one storage rule: a
strategy space plus one scalar tensor per player (a single tensor for
``ScalarField``), kept only in shared form (``numeric._Shared``: numerators
over one denominator, the floats themselves over 1 in float mode).
``Game.payoffs``, ``ScalarField.values``, ``MeasureVector.weights``,
``CoMeasureVector.tensors`` and ``generator``, and ``MixedProfile.probs`` are
views: immutable ``Fraction`` (or float) tensors built on first read and
cached.  ``_with_shared`` builds an object from tensors in shared form, so a
part, transformed game or parameter update that is never read out builds no
``Fraction``.  Outside values come in through ``numeric._Shared.of`` only:
every ``from_*`` constructor (and ``zeros``, ``uniform`` and ``pure``)
converts its data with the count-checked ``_coerce`` and builds with
``_with_shared``, so its view is built on first read too.  The class
constructors (``Game(space, payoffs)`` and the like) take numpy arrays,
refusing anything else with a ``ValidationError`` that names the ``from_*``
constructor for nested data; they read each tensor once into shared form
through the same ``of``, which takes a tensor's scalar mode from its
dtype (object is exact, float64 is float, any other dtype is refused) and
copies it, so the caller's arrays are neither kept nor frozen and the view
is built on first read like any other.  No computation in the package
reads a view: views exist for callers.  The base also holds the
``exact`` property, ``==`` on numerators (which refuses mixed scalar modes),
the shape check against each class's ``_shapes`` and the refusal of an
object whose own tensors mix scalar modes.

``+`` and ``-`` exist on ``Game`` and ``ScalarField`` only.  ``Game`` binds
``__add__``, ``__sub__`` and ``__eq__`` in its own class body: the layer
tracer in ``perfbench/spans.py`` wraps them by reading ``Game.__dict__``,
where an inherited method is not found.

``MeasureVector`` and ``CoMeasureVector`` each derive one plan on first use
and cache it on the object (``_plan``): what every decomposition kernel
reads of the parameter and that depends on it alone.  A measure's plan
(``_MeasurePlan``) holds per axis an ``_Axis``: the numerators m^i, their
sum W (in float mode the value ``weights.num.sum()`` gives), the
denominator L, m_0, the total mu^i(S^i) and the (pre, m, post) view dims;
in exact mode the first Poisson solve adds the eigenvalue factor and the
denominator growth of the inverse steps.  A co-measure's plan
(``_CoMeasurePlan``) holds each gamma^i broadcast over the profile space
and, on first use, what dividing by it takes (``_Shared.divisor``).  There
is no module-level cache: a plan goes with its object.

``MeasureVector`` and ``CoMeasureVector`` refuse a nonpositive entry, of a
co-measure's generator too, when they are built, reading the sign off the
numerators, so every mu, gamma and generator in the package is strictly
positive.  A float object refuses an ``inf`` or ``nan`` entry the same way,
and ``CoMeasureVector(space, tensors, generator)`` refuses a generator that
does not generate its tensors.  ``require_operands`` is the one operand
check of every public function: one strategy space, then one scalar mode.

These checks (``_check``) run where data enters, through ``_checked``: the
constructors (so every ``from_*``, ``uniform`` and ``zeros``, and the gamedoc
reader), ``scaled`` and ``map_equilibrium_under_scaling``'s generator.  An
exact object that a kernel computes from checked objects with
``_with_shared`` (a decomposition part, a transformed game or parameter
update, a law draw) is trusted: exact arithmetic on valid inputs keeps its
shapes, its one scalar mode, its signs and its sums.  Every float object is
checked when stored (``_store``), since rounding can take a kernel's result
to ``inf`` or a positive weight to 0.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import cached_property, reduce
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .numeric import (
    _Shared,
    _add,
    _float_range,
    _object_array,
    _sub,
    freeze,
    insert_axis,
    quotient,
    unequal_mask,
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


def _check_shapes(what: str, arrays, shapes) -> None:
    got = tuple(arr.shape for arr in arrays)
    if got != shapes:
        raise ValidationError(f"{what} shapes {got} do not match the space: expected {shapes}")


def _require_positive(tensors, message) -> None:
    """Raise message(i, k, value) for the first entry k <= 0 in row-major
    order of the first shared tensor i that has one; decided on numerators,
    whose denominator is positive, converting only that entry."""
    for i, x in enumerate(tensors):
        flat = x.num.reshape(-1)
        bad = flat <= 0
        if bad.any():
            k = int(np.argmax(bad))
            raise ValidationError(message(i, k, quotient(flat[k], x.den, x.exact)))


def _require_finite(tensors, noun: str) -> None:
    """Raise, pointing to exact mode, at the first float entry that is inf or
    nan, in row-major order of the first tensor that has one; exact tensors
    have none."""
    for x in tensors:
        if not x.exact:
            flat = x.num.reshape(-1)
            bad = ~np.isfinite(flat)
            if bad.any():
                raise ValidationError(
                    f"a {noun} entry leaves the float range "
                    f"({float(flat[int(np.argmax(bad))])!r}); use exact mode"
                )


def _given_arrays(tensors, owner: str, noun: str, builder: str) -> tuple[_Shared, ...]:
    """The tensors a class constructor is given, in shared form
    (``_Shared.of``, which copies them, so they are neither kept nor
    frozen).  Anything but a numpy array is refused, pointing to the
    ``from_*`` constructor that takes nested data."""
    tensors = tuple(tensors)
    for i, t in enumerate(tensors):
        if not isinstance(t, np.ndarray):
            raise ValidationError(
                f"{owner}: {noun} {i + 1} is a {type(t).__name__}, not a numpy array; "
                f"build from nested data with {owner}.{builder}"
            )
    return tuple(map(_Shared.of, tensors))


def _own_shapes(space: StrategySpace) -> tuple[tuple[int, ...], ...]:
    """One vector per player over that player's own strategies."""
    return tuple((m,) for m in space.sizes)


def _outer(factors) -> _Shared:
    """The outer product x_1 x x_2 x ... of shared tensors, first slowest."""
    factors = list(factors)
    return _Shared(
        reduce(np.multiply.outer, [x.num for x in factors]), math.prod(x.den for x in factors)
    )


class _Axis(NamedTuple):
    """One player's weights m^i over L_i as the kernels read them along
    tensor axis i (see ``_MeasurePlan``)."""

    m: np.ndarray  # the numerators m^i: Python ints, or the floats over 1
    rest: np.ndarray  # m^i without its first entry
    first: object  # m_0
    weight_sum: object  # W = sum_k m_k: a Python int, or weights.num.sum()
    den: int  # L
    total: object  # mu^i(S^i) = W / L: a Fraction, or the float W
    dims: tuple[int, int, int]  # (pre, m, post): the axes before i, i, the axes after
    kept: tuple[int, ...]  # the space's shape with axis i of length 1


class _MeasurePlan:
    """What the kernels read of a measure mu, derived once per
    ``MeasureVector`` (its cached ``_plan``): per axis an ``_Axis``, and in
    exact mode, on the first Poisson solve, the solve's eigenvalue factor
    (``inverse_eigen``).  A plan lives on its measure only."""

    def __init__(self, mu: "MeasureVector"):
        sizes = mu.space.sizes
        self.exact, self.shape = mu.exact, sizes
        axes = []
        for i, w in enumerate(mu._shared):
            m = w.num
            total = sum(m.tolist()) if self.exact else m.sum()
            axes.append(_Axis(
                m, m[1:], m[0], total, w.den, quotient(total, w.den, self.exact),
                (math.prod(sizes[:i]), sizes[i], math.prod(sizes[i + 1:])),
                sizes[:i] + (1,) + sizes[i + 1:],
            ))
        self.axes = tuple(axes)

    @cached_property
    def inverse_eigen(self) -> tuple[np.ndarray, int]:
        """Exact mode: the division by the eigenvalues of L as (integer
        factor tensor over the space, denominator growth of the inverse
        transform), for ``operators._solve_ints``.

        With L the LCM of the L_i, the eigenvalue at coefficient index k is
        e(k) / L, where e(k) = sum_{i: k_i != 0} W_i L / L_i.  Dividing by it
        multiplies by L E / e(k) over E, the LCM of all e(k).  e depends only
        on which k_i are nonzero: its 2^n subset sums are Python ints, spread
        to the space by one ``take`` per axis of more than two strategies.
        The origin's factor is 0, the mean-zero pin.  The growth is E over
        its common factor with L, times m_0 W for each inverse axis step."""
        lcm = math.lcm(*(a.den for a in self.axes))
        eigen = [0]
        for a in self.axes:
            step = a.weight_sum * (lcm // a.den)
            eigen = [e + s for e in eigen for s in (0, step)]
        eigen[0] = 1
        common = math.lcm(*eigen)
        cancel = math.gcd(lcm, common)
        factor = [0] + [common // e * (lcm // cancel) for e in eigen[1:]]
        factor = _object_array(factor, (2,) * len(self.axes))
        for i, m in enumerate(self.shape):
            if m != 2:
                factor = factor.take([0] + [1] * (m - 1), axis=i)
        growth = common // cancel * math.prod(a.first * a.weight_sum for a in self.axes)
        return factor, growth


class _CoMeasurePlan:
    """What the kernels read of a co-measure gamma, derived once per
    ``CoMeasureVector`` (its cached ``_plan``): each gamma^i broadcast over
    the full profile space (``expanded``: player i's axis inserted with
    length 1), and, on first use, what dividing by each of those takes
    (``_Shared.divisor``: in exact mode the integer inverse)."""

    def __init__(self, gamma: "CoMeasureVector"):
        self.expanded = tuple(
            _Shared(insert_axis(x.num, i), x.den) for i, x in enumerate(gamma._shared)
        )

    @cached_property
    def divisors(self) -> tuple[_Shared, ...]:
        return tuple(x.divisor() for x in self.expanded)


class _Tensors:
    """A strategy space plus one scalar tensor per player (one tensor for
    ``ScalarField``), stored only in shared form; the value tensors named by
    ``_field`` are a view, built on first read and cached.  See the module
    docstring."""

    space: StrategySpace
    _field = ""  # the name of the value view
    _noun = ""  # what one tensor is, for error messages
    _builder = ""  # the from_* constructor that takes nested data

    def __init__(self, space: StrategySpace, tensors: tuple[np.ndarray, ...]):
        self._store(space, _given_arrays(tensors, type(self).__name__, self._noun, self._builder))
        self._checked()

    @staticmethod
    def _shapes(space: StrategySpace) -> tuple[tuple[int, ...], ...]:
        raise NotImplementedError

    @classmethod
    def _with_shared(cls, space: StrategySpace, shared, **private):
        """The object whose tensors are ``shared``, converted out on first
        read; ``private`` sets further stored attributes before ``_store``.
        A build from a kernel's output is trusted (see ``_store``); one from
        outside data ends in ``_checked``."""
        obj = cls.__new__(cls)
        vars(obj).update(private)
        obj._store(space, shared)
        return obj

    def _store(self, space: StrategySpace, shared) -> None:
        """Keep the tensors.  Every float object is checked here: rounding
        can take a kernel's result out of the float range or to 0.  An exact
        object is checked by ``_checked``, where outside data enters."""
        vars(self).update(space=space, _shared=tuple(shared))
        if not self.exact:
            self._check()

    def _checked(self):
        """This object after the full check (``_store`` ran it on a float
        object)."""
        if self.exact:
            self._check()
        return self

    def _check(self) -> None:
        """The full check: the shapes against ``_shapes``, then one scalar
        mode, then finite float entries."""
        _check_shapes(self._noun, [x.num for x in self._shared], self._shapes(self.space))
        require_same_mode(*self._shared)
        _require_finite(self._shared, self._noun)

    def _values(self) -> tuple[np.ndarray, ...]:
        return tuple(x.values() for x in self._shared)

    def __setattr__(self, name, *_):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    @classmethod
    def _coerce(cls, space: StrategySpace, data, exact: bool, shapes=None, noun=None):
        """One shared tensor per item of ``data`` (``_Shared.of``), after
        checking the count."""
        shapes = cls._shapes(space) if shapes is None else shapes
        data = list(data)
        if len(data) != len(shapes):
            raise ValidationError(
                f"need one {noun or cls._noun} per player ({len(shapes)}), got {len(data)}"
            )
        return tuple(_Shared.of(d, shape, exact) for d, shape in zip(data, shapes))

    @property
    def exact(self) -> bool:
        return self._shared[0].exact

    def __eq__(self, other) -> bool:
        """Entrywise equality on the shared forms: exact numerators over one
        denominator, float entries within tolerance."""
        if not isinstance(other, type(self)):
            return NotImplemented
        require_same_mode(self, other)
        return self.space == other.space and all(
            a.equals(b) for a, b in zip(self._shared, other._shared)
        )

    def _combine(self, other, op):
        require_operands(self, other)
        return self._with_shared(
            self.space, tuple(op(a, b) for a, b in zip(self._shared, other._shared))
        )

    def __repr__(self) -> str:
        view = getattr(self, self._field)
        return f"{type(self).__name__}(space={self.space!r}, {self._field}={view!r})"


class Game(_Tensors):
    """Per-player payoff tensors over one shared profile space."""

    _field = "payoffs"
    _noun = "payoff tensor"
    _builder = "from_payoffs"

    @cached_property
    def payoffs(self) -> tuple[np.ndarray, ...]:
        """The immutable payoff tensors, one per player."""
        return self._values()

    @staticmethod
    def _shapes(space):
        return tuple(space.sizes for _ in space.players)

    @classmethod
    def from_payoffs(cls, space: StrategySpace, payoffs, exact: bool = True) -> "Game":
        return cls._with_shared(space, cls._coerce(space, payoffs, exact))._checked()

    @classmethod
    def zeros(cls, space: StrategySpace, exact: bool = True) -> "Game":
        return cls.from_payoffs(space, [[0] * space.num_profiles] * space.n_players, exact)

    def flat(self, player: int) -> list:
        return self.payoffs[player].reshape(-1).tolist()

    def is_zero(self) -> bool:
        return all(x.is_zero() for x in self._shared)

    @_float_range("the sum")
    def __add__(self, other):
        return self._combine(other, _add)

    @_float_range("the difference")
    def __sub__(self, other):
        return self._combine(other, _sub)

    __eq__ = _Tensors.__eq__


class ScalarField(_Tensors):
    """An element of C0: one scalar per strategy profile."""

    _field = "values"
    _noun = "field"
    _builder = "from_values"

    def __init__(self, space: StrategySpace, values: np.ndarray):
        super().__init__(space, (values,))

    @cached_property
    def values(self) -> np.ndarray:
        """The immutable tensor of values, one per profile."""
        return self._shared[0].values()

    @staticmethod
    def _shapes(space):
        return (space.sizes,)

    @classmethod
    def from_values(cls, space: StrategySpace, data, exact: bool = True) -> "ScalarField":
        return cls._with_shared(space, cls._coerce(space, [data], exact))._checked()

    @classmethod
    def zeros(cls, space: StrategySpace, exact: bool = True) -> "ScalarField":
        return cls.from_values(space, [0] * space.num_profiles, exact)

    def flat(self) -> list:
        return self.values.reshape(-1).tolist()

    __add__ = Game.__add__
    __sub__ = Game.__sub__


class MeasureVector(_Tensors):
    """Strictly positive weights on each player's own strategies."""

    _field = "weights"
    _noun = "weight vector"
    _builder = "from_weights"
    _shapes = staticmethod(_own_shapes)

    def _check(self) -> None:
        super()._check()
        _require_positive(
            self._shared,
            lambda i, k, w: f"nonpositive measure: mu^{i + 1}({self.space.labels[i][k]}) = {w}",
        )

    @cached_property
    def weights(self) -> tuple[np.ndarray, ...]:
        """The immutable weight vectors, one per player."""
        return self._values()

    @classmethod
    def from_weights(cls, space: StrategySpace, weights, exact: bool = True):
        return cls._with_shared(space, cls._coerce(space, weights, exact))._checked()

    @classmethod
    def uniform(cls, space: StrategySpace, value=Fraction(1), exact: bool = True):
        return cls.from_weights(space, [[value] * m for m in space.sizes], exact)

    @cached_property
    @_float_range("the measure total")
    def _plan(self) -> _MeasurePlan:
        return _MeasurePlan(self)

    def total(self, player: int):
        """mu^i(S^i), summed once per object."""
        return self._plan.axes[player].total

    def _product(self) -> _Shared:
        """mu(s) = prod_i mu^i(s^i) as a full-profile shared tensor."""
        return _outer(self._shared)

    @_float_range("the product measure")
    def product_array(self) -> np.ndarray:
        """mu(s) = prod_i mu^i(s^i) as a full-profile tensor."""
        return self._product().values()

    @_float_range("the scaled measure")
    def scaled(self, factor) -> "MeasureVector":
        return self._with_shared(self.space, (w.scale(factor) for w in self._shared))._checked()


class CoMeasureVector(_Tensors):
    """Strictly positive weights gamma^i on each opponent subprofile space.

    ``generator`` is set when the vector is known to be a product co-measure
    gamma^i = prod_{j != i} c^j; it is preserved by the transformations that
    keep the product structure, and stored in shared form like the tensors.
    """

    _field = "tensors"
    _noun = "co-measure tensor"
    _builder = "from_tensors"
    _generator = None  # the generator in shared form, when one is known

    def __init__(self, space: StrategySpace, tensors, generator=None):
        if generator is not None:
            vars(self)["_generator"] = _given_arrays(
                generator, "CoMeasureVector", "generator vector", "from_generator"
            )
        super().__init__(space, tensors)
        # the only constructor given both: the others build the tensors from
        # the generator, or keep one that generates them
        if generator is not None:
            products = self._products(space, self._generator)
            for i, (x, product) in enumerate(zip(self._shared, products)):
                if not x.equals(product):
                    raise ValidationError(
                        f"the generator does not generate gamma^{i + 1}: it differs from "
                        "the product of the other players' generator vectors"
                    )

    @staticmethod
    def _shapes(space):
        return tuple(space.opp_sizes(i) for i in space.players)

    def _check(self) -> None:
        super()._check()
        if self._generator is not None:
            _check_shapes("generator", [c.num for c in self._generator], _own_shapes(self.space))
            require_same_mode(self, *self._generator)
            _require_finite(self._generator, "generator")
        _require_positive(
            self._shared,
            lambda i, k, w: f"nonpositive co-measure: gamma^{i + 1} entry {k} = {w}",
        )
        # on 3 or more players, negative generator entries can multiply to
        # positive tensors
        _require_positive(
            self._generator or (),
            lambda i, k, c: f"nonpositive co-measure generator: c^{i + 1}"
            f"({self.space.labels[i][k]}) = {c}",
        )

    @cached_property
    def tensors(self) -> tuple[np.ndarray, ...]:
        """The immutable tensors gamma^i over S^{-i}, one per player."""
        return self._values()

    @cached_property
    def generator(self) -> tuple[np.ndarray, ...] | None:
        """The immutable vectors c^j of a product co-measure, or None."""
        return None if self._generator is None else tuple(c.values() for c in self._generator)

    @classmethod
    def from_tensors(cls, space: StrategySpace, tensors, exact: bool = True):
        gamma = cls._with_shared(space, cls._coerce(space, tensors, exact))._checked()
        return gamma._unit_if_all_ones()

    def _unit_if_all_ones(self) -> "CoMeasureVector":
        """This co-measure, or, when every entry is 1, the unit product
        co-measure, generated by ones."""
        if not self.is_all_ones():
            return self
        return self.from_generator(self.space, [[1] * m for m in self.space.sizes], self.exact)

    @classmethod
    def uniform(cls, space: StrategySpace, value=Fraction(1), exact: bool = True):
        return cls.from_tensors(
            space, [[value] * space.num_opp_profiles(i) for i in space.players], exact
        )

    @classmethod
    def from_generator(cls, space: StrategySpace, generator, exact: bool = True):
        gen = cls._coerce(space, generator, exact, _own_shapes(space), "generator vector")
        return cls._generated(space, gen)._checked()

    @classmethod
    def _generated(cls, space: StrategySpace, shared):
        """The product co-measure gamma^i = prod_{j != i} c^j of the
        generator c in shared form."""
        shared = tuple(shared)
        return cls._with_shared(space, cls._products(space, shared), _generator=shared)

    @staticmethod
    @_float_range("the product co-measure")
    def _products(space: StrategySpace, generator) -> tuple[_Shared, ...]:
        """gamma^i = prod_{j != i} c^j for every player i, in shared form."""
        return tuple(_outer(c for j, c in enumerate(generator) if j != i) for i in space.players)

    @cached_property
    def _plan(self) -> _CoMeasurePlan:
        return _CoMeasurePlan(self)

    def expanded(self, player: int) -> _Shared:
        """gamma^i in shared form, broadcast over the full profile space (own
        axis inserted)."""
        return self._plan.expanded[player]

    def is_all_ones(self) -> bool:
        """Every gamma^i entry is 1: each numerator equals its denominator."""
        return all((x.num == x.den).all() for x in self._shared)

    def is_player_constant(self, player: int) -> bool:
        flat = self._shared[player].num.reshape(-1)
        return bool(np.all(flat == flat[0]))

    @_float_range("the scaled co-measure")
    def scaled(self, factor) -> "CoMeasureVector":
        # no canonical way to spread the factor over generator entries
        return self._with_shared(self.space, (t.scale(factor) for t in self._shared))._checked()


class MixedProfile(_Tensors):
    """Per-player probability vectors; entries nonnegative, each sums to 1."""

    _field = "probs"
    _noun = "probability vector"
    _builder = "from_probs"
    _shapes = staticmethod(_own_shapes)

    @_float_range("the probability sum")
    def _check(self) -> None:
        super()._check()
        for i, x in enumerate(self._shared):
            if (x.num < 0).any():
                raise ValidationError(f"negative probability for player {i + 1}")
            total = x.num.sum()
            if unequal_mask(total, x.den, x.exact):
                raise ValidationError(
                    f"probabilities of player {i + 1} sum to "
                    f"{quotient(total, x.den, x.exact)}, not 1"
                )

    @cached_property
    def probs(self) -> tuple[np.ndarray, ...]:
        """The immutable probability vectors, one per player."""
        return self._values()

    @classmethod
    def from_probs(cls, space: StrategySpace, probs, exact: bool = True):
        return cls._with_shared(space, cls._coerce(space, probs, exact))._checked()

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

        The weights are read in the scalar mode first, so exact weights
        given as Python ints are divided exactly; an entry out of the float
        range, or nonpositive, is refused.
        """
        shared = cls._coerce(space, weights, exact)
        _require_finite(shared, "weight vector")
        _require_positive(
            shared,
            lambda i, k, w: f"nonpositive weight for player {i + 1}: "
            f"w({space.labels[i][k]}) = {w}",
        )
        return cls._normalized(space, shared)

    @classmethod
    @_float_range("the probability sum")
    def _normalized(cls, space: StrategySpace, weights) -> "MixedProfile":
        """The profile w^i / sum_k w^i(k) from shared weight tensors, each
        nonnegative with a positive sum: exact mode keeps the numerators over
        their sum, since the weights' own denominator cancels; float mode
        divides by the sum, added in index order (not numpy's pairwise sum),
        and refuses a sum past the float range."""
        return cls._with_shared(
            space, (w.over(w.num, np.add.accumulate(w.num)[-1]) for w in weights)
        )


# -- parameter validation ----------------------------------------------------

_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_LOG_FLOAT_MIN = math.log(sys.float_info.min)


def validate_parameters(mu: MeasureVector, gamma: CoMeasureVector) -> None:
    """Float mode: every norm weight w_i(s) = mu^i(S^i) mu(s) gamma^i(s^{-i})^2
    must be a normal float, or mu(s) h(s), d^2 and B^2 overflow or lose their
    precision.  Decided on the logarithms of the largest and smallest
    products, which cannot overflow, read off the float numerators, which
    are the values.

    Every caller has already checked mu and gamma with ``require_operands``
    (one space, one scalar mode), and both types refuse a nonpositive entry
    when they are built, so exact mode has nothing left to check."""
    if mu.exact:
        return
    weights = [w.num.tolist() for w in mu._shared]
    top_mu = sum(math.log(max(w)) for w in weights)
    bottom_mu = sum(math.log(min(w)) for w in weights)
    for i, t in enumerate(gamma._shared):
        w, hi = weights[i], max(weights[i])
        log_total = math.log(hi) + math.log(sum(x / hi for x in w))
        top = log_total + top_mu + 2 * math.log(t.num.max())
        bottom = log_total + bottom_mu + 2 * math.log(t.num.min())
        if top > _LOG_FLOAT_MAX or bottom < _LOG_FLOAT_MIN:
            raise ValidationError(
                f"mu and gamma take the norm weights of player {i + 1} out of the "
                "float range (mu^i(S^i) mu(s) gamma^i(s^-i)^2 must lie within "
                f"[{sys.float_info.min!r}, {sys.float_info.max!r}]); use exact mode"
            )


# -- inner products ------------------------------------------------------------


@_float_range("the C0 inner product")
def inner_product_c0(h: ScalarField, f: ScalarField, mu: MeasureVector):
    """<h, f>_0 = sum_s mu(s) h(s) f(s)."""
    require_operands(h, f, mu)
    return weighted_inner_product(h, f, (mu._product(),))


def norm_weights(mu: MeasureVector, gamma: CoMeasureVector) -> tuple[_Shared, ...]:
    """Per-player weights w_i(s) = mu^i(S^i) mu(s) gamma^i(s^{-i})^2 of the game
    inner product, as full-profile shared tensors; build once, reuse for
    every pair.

    Exact mode multiplies the numerators of mu and gamma over the product of
    their denominators.  Float mode computes prod * (gamma^i ** 2 * mu^i(S^i))
    in that order, which fixes its rounding.
    """
    require_operands(mu, gamma)
    prod = mu._product()
    out = []
    for i in mu.space.players:
        g = gamma.expanded(i)
        factor = _Shared(g.num ** 2, g.den ** 2).scale(mu.total(i))
        out.append(_Shared(freeze(prod.num * factor.num), prod.den * factor.den))
    return tuple(out)


def weighted_inner_product(g1: Game, g2: Game, weights: tuple[_Shared, ...]):
    """sum_i sum_s w_i(s) g1^i(s) g2^i(s), with ``weights`` from norm_weights;
    g1 and g2 may also be scalar fields, with the one weight mu(s)
    (``inner_product_c0``).

    The payoffs are read in shared form, and each player's sum runs on the
    numerators and is divided once, by w.den a.den b.den, so exact mode
    builds one ``Fraction`` per player.  The player sums are added in player
    order; float mode thus sums (w * a * b).sum() per player.
    """
    require_operands(g1, g2)
    return sum(
        quotient((w.num * a.num * b.num).sum(), w.den * a.den * b.den, w.exact)
        for w, a, b in zip(weights, g1._shared, g2._shared)
    )


@_float_range("the game inner product")
def inner_product_game(
    g1: Game, g2: Game, mu: MeasureVector, gamma: CoMeasureVector
):
    """<g1, g2>_{mu,gamma} = sum_i mu^i(S^i) <gamma^i g1^i, gamma^i g2^i>_0."""
    require_operands(g1, g2, mu, gamma)
    return weighted_inner_product(g1, g2, norm_weights(mu, gamma))


def game_norm_sq(g: Game, mu: MeasureVector, gamma: CoMeasureVector):
    """Squared norm ||g||^2_{mu,gamma}; squared to stay rational in exact mode."""
    return inner_product_game(g, g, mu, gamma)
