"""Scalar handling.

The default scalar is an exact rational (``fractions.Fraction``), which keeps
every operation in the library bit-exact.  A floating-point mode exists for
oracle cross-checks and large fuzz runs; it is selected per object at
construction time and detected from the numpy dtype (``object`` = exact,
``float64`` = float).

``_Shared`` holds a tensor as numerators over one shared denominator, Python
ints in exact mode and the floats themselves over 1 in float mode.  Games and
scalar fields store their tensors in this form, the ``decompose`` pipeline
runs on it in both modes, and its methods hold that pipeline's scalar-mode
branches; only the Poisson solve core keeps a body per mode
(``operators._solve``).
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import GameDecompError, ParseError, ValidationError

FLOAT_ZERO_TOL = 1e-9

_SCALAR_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_scalar(text: str, exact: bool = True):
    """Parse an integer or ``p/q`` literal. Float mode also accepts finite decimals."""
    text = text.strip()
    if exact:
        if not _SCALAR_RE.match(text):
            raise ParseError(f"not an integer or p/q rational: {text!r}")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ParseError(f"zero denominator: {text!r}") from None
        except ValueError:  # an integer part over sys.get_int_max_str_digits()
            raise ParseError(
                f"number too long: {len(text)} characters, over the limit of "
                f"{sys.get_int_max_str_digits()} digits per integer"
            ) from None
    try:
        value = float(Fraction(text)) if _SCALAR_RE.match(text) else float(text)
    except (ValueError, OverflowError, ZeroDivisionError):
        raise ParseError(f"not a finite number: {text!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"not a finite number: {text!r}")
    return value


def format_scalar(value) -> str:
    if isinstance(value, (Fraction, int)):
        try:
            return str(value)
        except ValueError:  # an integer over sys.get_int_max_str_digits()
            raise GameDecompError(
                "result too long to print: an integer in it has over "
                f"{sys.get_int_max_str_digits()} digits"
            ) from None
    return repr(float(value))


def scalar_array(values, shape, exact: bool = True) -> np.ndarray:
    """Build an immutable tensor of scalars in the requested mode."""
    flat = list(values)
    size = int(np.prod(shape)) if shape else 1
    if len(flat) != size:
        raise ValueError(f"expected {size} values, got {len(flat)}")
    if exact:
        flat = [v if isinstance(v, Fraction) else _exact_scalar(v) for v in flat]
        arr = _object_array(flat, size)
    else:
        arr = np.asarray([float(v) for v in flat], dtype=np.float64)
        if not np.isfinite(arr).all():
            raise ValidationError("float scalars must be finite (no nan or inf)")
    arr = arr.reshape(shape)
    arr.flags.writeable = False
    return arr


def _exact_scalar(value) -> Fraction:
    """An exact entry from anything but a float: a float is already rounded,
    so taking its binary value silently would mix the scalar modes."""
    if isinstance(value, (float, np.floating)):
        raise ValidationError(
            f"float {value!r} given as an exact scalar; pass an int, a Fraction "
            "or a 'p/q' string, or build the value in float mode"
        )
    return Fraction(value)


def zeros_array(shape, exact: bool = True) -> np.ndarray:
    return scalar_array([Fraction(0)] * int(np.prod(shape)), shape, exact)


class _Shared(NamedTuple):
    """A tensor as numerators over one shared positive denominator: the
    entries are ``num / den``.

    Exact tensors hold Python-int numerators, so integer arithmetic on
    ``num`` defers every gcd to ``values()``, the one conversion back to
    ``Fraction``.  A float tensor is its own numerators over 1.  The
    ``decompose`` pipeline (see ``operators``) runs on this form in both
    scalar modes; these methods hold its only scalar-mode branches outside
    the Poisson solve core.
    """

    num: np.ndarray  # object dtype of Python ints, or float64
    den: int

    @classmethod
    def of(cls, values: np.ndarray) -> "_Shared":
        """A tensor in: exact entries over the LCM of their denominators."""
        if not array_is_exact(values):
            return cls(values, 1)
        flat = values.reshape(-1).tolist()
        den = math.lcm(*(v.denominator for v in flat))
        if den == 1:
            nums = [v.numerator for v in flat]
        else:
            nums = [v.numerator * (den // v.denominator) for v in flat]
        return cls(_object_array(nums, values.shape), den)

    @property
    def exact(self) -> bool:
        return array_is_exact(self.num)

    def over(self, num: np.ndarray, den) -> "_Shared":
        """num / den in this tensor's mode: exact keeps the denominator,
        float divides now."""
        return _Shared(num, den) if self.exact else _Shared(num / den, 1)

    def scale(self, c) -> "_Shared":
        """This tensor times the scalar c; exact mode reduces c against the
        denominator and skips the multiplication when its numerator is 1."""
        if not self.exact:
            return _Shared(self.num * c, 1)
        q = Fraction(c) / self.den
        num = self.num if q.numerator == 1 else self.num * q.numerator
        return _Shared(num, q.denominator)

    def divide(self, t: np.ndarray) -> "_Shared":
        """This tensor over the tensor t (broadcast); exact mode multiplies by
        1/t, read off t's numerators and denominators as q/p over the LCM of
        the numerators p, so no ``Fraction`` is built."""
        if not self.exact:
            return _Shared(self.num / t, 1)
        flat = t.reshape(-1).tolist()
        den = math.lcm(*(v.numerator for v in flat))
        inverse = _object_array([v.denominator * (den // v.numerator) for v in flat], t.shape)
        return _Shared(self.num * inverse, self.den * den)

    def aligned(self, other: "_Shared") -> tuple[np.ndarray, np.ndarray, int]:
        """The numerators of this tensor and ``other`` over the LCM of their
        denominators, and that LCM (float: both are 1, nothing is scaled)."""
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        left = self.num if fa == 1 else self.num * fa
        return left, (other.num if fb == 1 else other.num * fb), den

    def equals(self, other: "_Shared") -> bool:
        """Entrywise equality of two tensors of one shape, without converting
        out: exact mode compares numerators over one denominator, float mode
        allows tolerance(magnitude(a, b)) as ``arrays_equal`` does."""
        left, right, _ = self.aligned(other)
        return arrays_equal(left, right, self.exact)

    def is_zero(self) -> bool:
        """Every entry is 0: exact numerators are, float entries lie within
        tolerance(their magnitude), as ``equals`` against zeros decides."""
        if self.exact:
            return not self.num.any()
        return is_zero(self.num, False, magnitude(self.num))

    def values(self) -> np.ndarray:
        """The immutable tensor out: ``Fraction`` num / den, or the floats.

        A broadcast view (an axis of stride 0, as an average spread along a
        player's axis) converts only its distinct entries, then is copied out
        to the full shape."""
        num = self.num
        distinct = num[tuple(
            slice(0, 1) if stride == 0 else slice(None) for stride in num.strides
        )]
        out = distinct
        if self.exact:
            den = self.den
            flat = [Fraction(v, den) for v in distinct.reshape(-1).tolist()]
            out = _object_array(flat, distinct.shape)
        if distinct.shape != num.shape:
            out = np.broadcast_to(out, num.shape).copy()
        return freeze(out)


def _add(a: _Shared, b: _Shared) -> _Shared:
    """a + b over the LCM of the two denominators (float: both are 1)."""
    left, right, den = a.aligned(b)
    return _Shared(left + right, den)


def _sub(a: _Shared, b: _Shared) -> _Shared:
    """a - b over the LCM of the two denominators (float: both are 1)."""
    left, right, den = a.aligned(b)
    return _Shared(left - right, den)


def quotient(num, den, exact: bool):
    """num / den as one scalar: a ``Fraction`` in exact mode; float mode's
    shared denominators are 1, so the float is returned as it is."""
    return Fraction(num, den) if exact else num / den


def _object_array(items: list, shape) -> np.ndarray:
    arr = np.empty(len(items), dtype=object)
    arr[:] = items
    return arr.reshape(shape)


def axis_view(x: np.ndarray, axis: int) -> np.ndarray:
    """x as a (pre, m, post) array: the axes before ``axis`` flattened, then
    ``axis``, then the axes after it flattened; a view when x's memory
    allows, so per-axis kernels slice it instead of moving axes."""
    shape = x.shape
    return x.reshape(math.prod(shape[:axis]), shape[axis], math.prod(shape[axis + 1:]))


def insert_axis(x: np.ndarray, axis: int) -> np.ndarray:
    """x with an axis of length 1 inserted at ``axis``: the view
    ``np.expand_dims`` returns, at the cost of a reshape."""
    return x.reshape(x.shape[:axis] + (1,) + x.shape[axis:])


def axis_contract(values: np.ndarray, weights, axis: int) -> np.ndarray:
    """sum_k weights[k] * values[..., k, ...] along ``axis``, with that axis removed.

    ``weights`` is any 1-D sequence as long as that axis.  Terms are added in
    index order, so float rounding is the same for every caller.
    """
    view = axis_view(values, axis)
    acc = None
    for k, w in enumerate(np.asarray(weights).tolist()):
        term = view[:, k] * w
        acc = term if acc is None else acc + term
    return acc.reshape(values.shape[:axis] + values.shape[axis + 1:])


def freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def array_is_exact(arr: np.ndarray) -> bool:
    return arr.dtype == object


def tolerance(scale) -> float:
    """Float-mode tolerance: FLOAT_ZERO_TOL relative to ``scale``, the
    magnitude of the data compared, and never tighter than FLOAT_ZERO_TOL."""
    return FLOAT_ZERO_TOL * (scale if 1.0 < scale < math.inf else 1.0)


def magnitude(*arrays) -> float:
    """Largest absolute entry over ``arrays`` (arrays or scalars)."""
    return max(float(np.max(np.abs(a))) for a in arrays)


def is_zero(values, exact: bool = True, scale=1.0) -> bool:
    """True iff every entry of ``values`` is 0; float mode allows
    tolerance(scale), where ``scale`` bounds the terms summed into values."""
    if exact:
        return not np.any(values != 0)
    return bool(np.all(np.abs(values) <= tolerance(scale)))


def unequal_mask(a: np.ndarray, b: np.ndarray, exact: bool = True) -> np.ndarray:
    """Elementwise a != b as a bool array; float mode allows
    tolerance(magnitude(a, b))."""
    if exact:
        return np.asarray(a != b, dtype=bool)
    return ~(np.abs(a - b) <= tolerance(magnitude(a, b)))  # nan counts as unequal


def arrays_equal(a: np.ndarray, b: np.ndarray, exact: bool = True) -> bool:
    return a.shape == b.shape and not unequal_mask(a, b, exact).any()
