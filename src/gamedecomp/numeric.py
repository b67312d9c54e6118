"""Scalar handling.

The default scalar is an exact rational (``fractions.Fraction``), which keeps
every operation in the library bit-exact.  A floating-point mode exists for
oracle cross-checks and large fuzz runs; it is selected per object at
construction time and detected from the numpy dtype (``object`` = exact,
``float64`` = float).
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

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
        arr = np.empty(size, dtype=object)
        arr[:] = [v if isinstance(v, Fraction) else Fraction(v) for v in flat]
    else:
        arr = np.asarray([float(v) for v in flat], dtype=np.float64)
        if not np.isfinite(arr).all():
            raise ValidationError("float scalars must be finite (no nan or inf)")
    arr = arr.reshape(shape)
    arr.flags.writeable = False
    return arr


def zeros_array(shape, exact: bool = True) -> np.ndarray:
    return scalar_array([Fraction(0)] * int(np.prod(shape)), shape, exact)


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
