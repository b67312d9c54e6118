"""Scalar handling.

The default scalar is an exact rational (``fractions.Fraction``), which keeps
every operation in the library bit-exact.  A floating-point mode exists for
oracle cross-checks and large fuzz runs; it is selected per object at
construction time and detected from the numpy dtype (``object`` = exact,
``float64`` = float).

``_Shared`` holds a tensor as numerators over one shared denominator, Python
ints in exact mode and the floats themselves over 1 in float mode.  The
``decompose`` pipeline runs on it in both modes, and its methods hold that
pipeline's scalar-mode branches; only the Poisson solve core keeps a body per
mode (``operators._solve``).
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
        flat = [v if isinstance(v, Fraction) else Fraction(v) for v in flat]
        arr = _object_array(flat, size)
    else:
        arr = np.asarray([float(v) for v in flat], dtype=np.float64)
        if not np.isfinite(arr).all():
            raise ValidationError("float scalars must be finite (no nan or inf)")
    arr = arr.reshape(shape)
    arr.flags.writeable = False
    return arr


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
        1/t as numerators over the LCM of t's numerators."""
        if not self.exact:
            return _Shared(self.num / t, 1)
        inverse = _Shared.of(1 / t)
        return _Shared(self.num * inverse.num, self.den * inverse.den)

    def values(self) -> np.ndarray:
        """The immutable tensor out: ``Fraction`` num / den, or the floats."""
        if not self.exact:
            return freeze(self.num)
        den = self.den
        flat = [Fraction(v, den) for v in self.num.reshape(-1).tolist()]
        return freeze(_object_array(flat, self.num.shape))


def _object_array(items: list, shape) -> np.ndarray:
    arr = np.empty(len(items), dtype=object)
    arr[:] = items
    return arr.reshape(shape)


def axis_contract(values: np.ndarray, weights, axis: int) -> np.ndarray:
    """sum_k weights[k] * values[..., k, ...] along ``axis``, with that axis removed.

    ``weights`` is any 1-D sequence as long as that axis.  Terms are added in
    index order, so float rounding is the same for every caller.
    """
    acc = None
    for k, w in enumerate(np.asarray(weights).tolist()):
        term = np.take(values, k, axis=axis) * w
        acc = term if acc is None else acc + term
    return acc


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
