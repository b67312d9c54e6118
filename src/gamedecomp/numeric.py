"""Scalar handling.

The default scalar is an exact rational (``fractions.Fraction``), which keeps
every operation in the library bit-exact.  A floating-point mode exists for
oracle cross-checks and large fuzz runs; it is selected per object at
construction time and detected from the numpy dtype (``object`` = exact,
``float64`` = float).

Every literal, in a document, a CLI flag or a string entry of
``_Shared.of``, is read by one rule, ``parse_scalar``: an integer or ``p/q``
literal from its integer digits, as ``Fraction(int(p), int(q))`` in exact
mode, the value ``Fraction(text)`` gives, and as ``int(p) / int(q)`` in
float mode, which Python rounds correctly, so no ``Fraction`` is built and
the float is the one ``float(Fraction(text))`` gives.  Float mode also
reads a decimal or exponent literal (``_DECIMAL_RE``: digits, one point,
an exponent; no underscores) as ``float(text)``.

``_Shared`` holds a tensor as numerators over one shared denominator, Python
ints in exact mode and the floats themselves over 1 in float mode.
``_Shared.of`` is the one way in: it turns outside values, a tensor or flat
or nested data, into that form entry by entry through one rule (``_entry``):
ints and ``Fraction``s in either mode, floats in float mode only, strings
through ``parse_scalar``; a tensor of any dtype but object and float64 is
refused.  Every value type in ``games`` stores its tensors in this form,
the ``decompose`` pipeline, the parameter transforms and the equilibrium
checks run on it in both modes, and its methods hold their scalar-mode
branches; only the Poisson solve core (``operators._solve``) and
``contract`` (behind ``axis_contract``) keep a body per mode.
``_Shared.texts`` writes a tensor's entries in the text ``format_scalar``
gives one scalar, so output builds no ``Fraction``.

Float arithmetic that leaves the float range is refused by one guard,
``_float_range``, which decorates the library's public float functions and
the value-type operators ``+``, ``-`` and ``scaled``.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import GameDecompError, ParseError, ValidationError

FLOAT_ZERO_TOL = 1e-9

_SCALAR_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
_DECIMAL_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def parse_scalar(text: str, exact: bool = True):
    """Parse one literal, the one rule for documents, CLI flags and string
    entries.

    An integer or ``p/q`` literal (``_SCALAR_RE``) is read from its integer
    digits by ``_rational``.  Exact mode returns ``Fraction(p, q)``, the
    value ``Fraction(text)`` gives, without its general string parser.
    Float mode returns ``p / q``, or ``float(p)`` without q: int true
    division is correctly rounded, so the bits are those of
    ``float(Fraction(text))`` and ``-0`` reads as ``0.0``.  Float mode also
    reads a decimal or exponent literal (``_DECIMAL_RE``) as
    ``float(text)`` when it is finite; ``float``'s other forms, ``inf``,
    ``nan`` and digits grouped by ``_``, are refused, as in exact mode.
    Anything else, a zero denominator, a numeral over
    ``sys.get_int_max_str_digits()`` and (float mode) a value past the
    float range raise a ``ParseError``."""
    text = text.strip()
    if exact:
        if not _SCALAR_RE.match(text):
            raise ParseError(f"not an integer or p/q rational: {text!r}")
        try:
            return Fraction(*_rational(text))
        except ZeroDivisionError:
            raise ParseError(f"zero denominator: {text!r}") from None
        except ValueError:  # an integer part over sys.get_int_max_str_digits()
            raise ParseError(
                f"number too long: {len(text)} characters, over the limit of "
                f"{sys.get_int_max_str_digits()} digits per integer"
            ) from None
    if _SCALAR_RE.match(text):
        try:
            p, q = _rational(text)
            return float(p) if q is None else p / q
        except (ValueError, OverflowError, ZeroDivisionError):
            pass
    elif _DECIMAL_RE.match(text):
        value = float(text)
        if math.isfinite(value):
            return value
    raise ParseError(f"not a finite number: {text!r}")


def _rational(text: str) -> tuple[int, int | None]:
    """p and q of a literal ``_SCALAR_RE`` matched, read by ``int`` as
    ``Fraction(text)`` reads them, q ``None`` where the literal has none:
    a numeral over the digit limit raises ValueError here, before q = 0
    raises ZeroDivisionError in the caller's division."""
    p, _, q = text.partition("/")
    return int(p), int(q) if q else None


def format_scalar(value) -> str:
    """The canonical text of one scalar: ``str`` of an exact value, ``repr``
    of a float.  A tensor's entries get the same text from ``_Shared.texts``."""
    if isinstance(value, (Fraction, int)):
        with _printable():
            return str(value)
    return repr(float(value))


def _float_range(what: str):
    """Raise one ValidationError, pointing to exact mode, where float
    arithmetic overflows or makes an invalid value (inf - inf, 0 * inf),
    instead of a numpy warning and an inf or nan result.

    The one place float overflow is caught: it decorates each public
    function that computes on float tensors and on the value-type
    operators ``+``, ``-`` and ``scaled``, so a caller sees no warning;
    where guarded calls nest, the innermost ``what`` is reported.  ``==``
    needs no guard: float ``_Shared.equals`` compares halves.  A plain
    wrapper: a guarded call builds no generator context manager."""

    def guard(fn):
        @functools.wraps(fn)
        def guarded(*args, **kwargs):
            try:
                with np.errstate(over="raise", invalid="raise"):
                    return fn(*args, **kwargs)
            except FloatingPointError:
                raise ValidationError(f"{what} leaves the float range; use exact mode") from None

        return guarded

    return guard


@contextmanager
def _printable():
    """Raise a GameDecompError where an integer in the block is over
    sys.get_int_max_str_digits() and ``str`` refuses it."""
    try:
        yield
    except ValueError:
        raise GameDecompError(
            "result too long to print: an integer in it has over "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None


def _entry(value, exact: bool):
    """One outside value as an entry of the scalar mode: the one rule behind
    ``_Shared.of``.

    An ``int`` (numpy's too) or a ``Fraction`` is exact; float mode rounds
    it to the nearest float, and one past the float range to ``inf``, which
    the object check then refuses.  A float is a float-mode entry only: it is
    already rounded, so taking its binary value silently would mix the
    scalar modes.  A ``str`` is read by ``parse_scalar``, as documents and
    CLI flags are.  Anything else is refused."""
    if isinstance(value, str):
        return parse_scalar(value, exact)
    if not isinstance(value, (int, np.integer, Fraction, float, np.floating)):
        raise ValidationError(f"not a scalar: {value!r}")
    if not exact:
        return _float(value)
    if isinstance(value, (float, np.floating)):
        raise ValidationError(
            f"float {value!r} given as an exact scalar; pass an int, a Fraction "
            "or a 'p/q' string, or build the value in float mode"
        )
    return value if isinstance(value, Fraction) else int(value)


def _float(value) -> float:
    """``float(value)``, with a value past the float range (an int or a
    ``Fraction``) as ``inf`` of its sign, which the object check refuses."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


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
    def of(cls, data, shape=None, exact=None) -> "_Shared":
        """The one way in: outside values as numerators over one shared
        denominator, exact entries over the LCM of their denominators,
        float entries over 1.

        ``data`` is a tensor whose dtype gives the mode (object: exact,
        float64: float; any other dtype is refused), or, given ``exact``,
        flat or nested data of ``shape``.  Each entry follows ``_entry``.
        Only the shape is checked here; the object check
        (``games._Tensors._check``) refuses float entries out of range."""
        if exact is None:  # a tensor, whose dtype gives the mode
            exact, shape = array_is_exact(data), data.shape
            if not exact and data.dtype != np.float64:
                raise ValidationError(f"dtype {data.dtype} is neither object (exact) nor float64")
        arr = np.asarray(data, dtype=object)
        size = math.prod(shape)
        if arr.shape not in (shape, (size,)):
            raise ValidationError(
                f"shape mismatch: expected {shape} (or flat length {size}), got {arr.shape}"
            )
        kind = Fraction if exact else float
        flat = [v if type(v) is kind else _entry(v, exact) for v in arr.reshape(-1).tolist()]
        if not exact:
            return cls(np.array(flat, dtype=np.float64).reshape(shape), 1)
        den = math.lcm(*(v.denominator for v in flat))
        return cls(_object_array([v.numerator * (den // v.denominator) for v in flat], shape), den)

    @property
    def exact(self) -> bool:
        return array_is_exact(self.num)

    def over(self, num: np.ndarray, den) -> "_Shared":
        """num / den in this tensor's mode: exact keeps the denominator,
        float divides now."""
        return _Shared(num, den) if self.exact else _Shared(num / den, 1)

    def scale(self, c) -> "_Shared":
        """This tensor times the scalar c; exact mode reduces c against the
        denominator with one gcd, as ``Fraction(c) / den`` would, and skips
        the multiplication when the reduced numerator is 1; float mode
        multiplies by ``_float(c)``, so a ``Fraction`` c keeps it float and
        one past the float range is ``inf``, which the object check
        refuses."""
        if not self.exact:
            return _Shared(self.num * _float(c), 1)
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        g = math.gcd(c.numerator, self.den)
        p = c.numerator // g
        return _Shared(self.num if p == 1 else self.num * p, c.denominator * (self.den // g))

    def divisor(self) -> "_Shared":
        """What ``divide`` takes to divide by this tensor, which has no entry
        0: exact mode 1/t = t.den / t.num, put over the LCM of t's numerators
        and reduced against t.den, so no ``Fraction`` is built; float mode t
        itself, since x / t rounds once where x * (1/t) rounds twice."""
        if not self.exact:
            return self
        den = math.lcm(*self.num.reshape(-1).tolist())
        cancel = math.gcd(den, self.den)
        inverse, k = den // self.num, self.den // cancel
        return _Shared(inverse if k == 1 else inverse * k, den // cancel)

    def divide(self, divisor: "_Shared") -> "_Shared":
        """This tensor over a tensor t (broadcast), given ``t.divisor()``:
        exact mode multiplies by 1/t, float mode divides by t."""
        if not self.exact:
            return _Shared(self.num / divisor.num, 1)
        return _Shared(self.num * divisor.num, self.den * divisor.den)

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
        allows tolerance(magnitude(a, b)) as ``unequal_mask`` does, on
        halves: |a/2 - b/2| <= tolerance/2 decides as |a - b| <= tolerance
        wherever a - b is finite, and answers where it is not (1e308 against
        -1e308) without leaving the float range."""
        left, right, _ = self.aligned(other)
        if left.shape != right.shape:
            return False
        if self.exact:
            return not (left != right).any()
        tol = tolerance(magnitude(left, right))
        return bool(np.all(np.abs(left / 2 - right / 2) <= tol / 2))

    def is_zero(self) -> bool:
        """Every entry is 0: exact numerators are, float entries lie within
        tolerance(their magnitude), as ``equals`` against zeros decides."""
        if self.exact:
            return not self.num.any()
        return is_zero(self.num, False, magnitude(self.num))

    def values(self) -> np.ndarray:
        """The immutable tensor out: ``Fraction`` num / den, or a frozen view
        of the floats."""
        if not self.exact:
            return freeze(self.num.view())
        den = self.den
        flat = [Fraction(v, den) for v in self.num.reshape(-1).tolist()]
        return freeze(_object_array(flat, self.num.shape))

    def texts(self) -> list[str]:
        """The canonical text of every entry, in row-major order: what
        ``format_scalar`` prints for the entry of ``values()``, built
        without it.

        Float mode takes ``repr`` of each float.  Exact mode writes num / den
        reduced with one gcd per entry against den, as ``p/q``, or as ``p``
        where the reduced denominator is 1 (so 0 is ``0``): the text of the
        reduced ``Fraction``, and none is built.  An integer too long for
        ``str`` raises what ``format_scalar`` raises."""
        flat = self.num.reshape(-1).tolist()
        if not self.exact:
            return list(map(repr, flat))
        den, out = self.den, []
        with _printable():
            for v in flat:
                g = math.gcd(v, den)
                out.append(str(v // g) if g == den else f"{v // g}/{den // g}")
        return out


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
    """sum_k weights[k] * values[..., k, ...] along ``axis``, with that axis
    removed; ``weights`` is any 1-D sequence as long as that axis (see
    contract)."""
    out = contract(axis_view(values, axis), np.asarray(weights, dtype=values.dtype))
    return out.reshape(values.shape[:axis] + values.shape[axis + 1:])


def contract(view: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k weights[k] * view[:, k] of a (pre, m, post) view (axis_view),
    as a (pre, post) array; ``weights`` has the view's dtype.  Exact mode is
    one object-dtype matmul.  Float mode adds the terms in index order, so
    its rounding is the same for every caller."""
    if array_is_exact(view):
        return weights @ view
    acc = None
    for k, w in enumerate(weights.tolist()):
        term = view[:, k] * w
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
