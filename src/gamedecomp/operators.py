"""Projection, divergence, and Laplacian operators on the game graph.

``decompose`` runs them as one pipeline with a single round of own-axis
averages of g: Lambda g, then Pi g = g - Lambda g, whose rescaled sum is the
deviation divergence h (_divergence), then the Poisson solve L phi = h.

The Laplacian here is L = sum_i mu^i(S^i) (I - Lambda^i), a sum of commuting
projections: Lambda^i replaces each entry by the mu^i-weighted average along
tensor axis i.  Along each axis the basis {1, e_k/mu^i_k - e_0/mu^i_0 : k >= 1},
for any reference strategy 0, turns every Lambda^i into diag(1, 0, ..., 0) at
once, so L is diagonal in the tensor-product basis and the minimal-norm
Poisson solve is a per-axis change of basis, one division, and the change
back.

Every stage is written once, on ``numeric._Shared`` tensors: numerators over
one shared denominator, Python ints in exact mode and float64 over 1 in float
mode.  The stage kernels (_average, _deviation, _sub, _divergence) never
branch on the scalar mode; the few ``_Shared`` methods that do keep exact
mode free of divisions: an average keeps the sum A = sum_k m_k x_k and puts
W = sum_k m_k into the denominator, where mu^i is scaled to integers m^i by
the LCM of its denominators, and division by gamma^i is multiplication by
the numerators of 1/gamma^i.  Denominators are scalars, so each exact kernel
costs O(|S|) Python-int operations per axis, and the one gcd per entry is
paid when a result is read out as ``Fraction`` values.

The kernels read mu and gamma through their plans (``games._MeasurePlan``,
``games._CoMeasurePlan``), derived on first use and cached on the immutable
parameter object, so a decomposition that reuses a mu or a gamma pays none of
this parameter work again: per axis the numerators m^i, W, L_i, m_0, the total
mu^i(S^i) and the (pre, m, post) view dims; the eigenvalue factor of the
exact solve with its denominator growth; each gamma^i over the full profile
space and the integer inverse that dividing by it multiplies with.  A plan
lives on its parameter object only, and goes with it.

Only the Poisson solve core stays per mode (_solve): exact mode multiplies
through on integers (_solve_ints), float mode divides in the basis above with
the heaviest strategy of each axis as reference, which keeps float rounding
independent of the spread of the weights.  ``lambda_project``,
``deviation_divergence`` and ``solve_poisson`` are thin wrappers over the
same kernels.  The kernels hold no float-range check of their own: the
projections, ``deviation_divergence`` and ``solve_poisson`` carry
``numeric._float_range``, as ``decompose`` does.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce

import numpy as np

from .errors import SolveError
from .numeric import _Shared, _float_range, _sub, axis_contract, contract, is_zero, magnitude
from .games import (
    CoMeasureVector, Game, MeasureVector, ScalarField, _Axis, _CoMeasurePlan, _MeasurePlan,
    require_operands,
)


@_float_range("the Lambda projection")
def lambda_project(g: Game, mu: MeasureVector) -> Game:
    """Own-coordinate weighted average per player; the nonstrategic part."""
    require_operands(g, mu)
    return Game._with_shared(g.space, (
        _spread(_average(x, axis), g.space.sizes) for x, axis in zip(g._shared, mu._plan.axes)
    ))


@_float_range("the Pi projection")
def pi_project(g: Game, mu: MeasureVector) -> Game:
    """g minus its own-coordinate average; the mu-normalized part."""
    return g - lambda_project(g, mu)


@_float_range("the deviation divergence under these weights")
def deviation_divergence(
    g: Game, mu: MeasureVector, gamma: CoMeasureVector
) -> ScalarField:
    """h(s) = sum_i gamma^i(s^{-i}) sum_{t^i} mu^i(t^i) (g^i(s) - g^i(t^i, s^{-i})).

    Square-root free; equals delta* D(g) under the adopted sign convention,
    and vanishes exactly on (mu, gamma)-harmonic games.
    """
    require_operands(g, mu, gamma)
    return ScalarField._with_shared(g.space, (_deviation_divergence(g, mu._plan, gamma._plan),))


def _deviation_divergence(g: Game, plan: _MeasurePlan, gamma: _CoMeasurePlan) -> _Shared:
    """deviation_divergence's h in shared form, from the parameters' plans."""
    normalized = [_deviation(x, axis)[1] for x, axis in zip(g._shared, plan.axes)]
    return _divergence(normalized, plan, gamma)


def _average(x: _Shared, axis: _Axis) -> _Shared:
    """Lambda^i x along the plan's ``axis``, which is kept with length 1.

    With m = the weights' numerators and W = sum_k m_k, A = sum_k m_k x_k
    gives Lambda^i x = A / (W den); weights over any denominator give the same.
    """
    total = contract(x.num.reshape(axis.dims), axis.m).reshape(axis.kept)
    return x.over(total, x.den * axis.weight_sum)


def _deviation(x: _Shared, axis: _Axis) -> tuple[_Shared, _Shared]:
    """Lambda^i x (``axis`` of length 1) and Pi^i x = x - Lambda^i x."""
    avg = _average(x, axis)
    return avg, _sub(x, avg)


def _spread(avg: _Shared, shape) -> _Shared:
    """An average spread back along its length-1 axis to ``shape``: a
    broadcast view of its numerators, with no copy, which
    ``_Shared.values`` converts at its distinct entries only."""
    return _Shared(np.broadcast_to(avg.num, shape), avg.den)


def _divergence(
    normalized: list[_Shared], plan: _MeasurePlan, gamma: _CoMeasurePlan
) -> _Shared:
    """The deviation divergence from Pi g, one player per entry of ``normalized``:
    h = sum_i gamma^i mu^i(S^i) (Pi g)^i, since
    sum_{t^i} mu^i(t^i) (g^i(s) - g^i(t^i, s^{-i})) = mu^i(S^i) (Pi g)^i(s).

    mu^i(S^i), reduced against the denominator of (Pi g)^i, and gamma^i fold
    into one factor over S^{-i}, and the terms are summed over the LCM of
    their denominators, so exact mode multiplies each entry once.
    """
    terms = []
    for part, axis, factor in zip(normalized, plan.axes, gamma.expanded):
        scaled = part.scale(axis.total)
        terms.append((scaled.num, factor.num, scaled.den * factor.den))
    den = math.lcm(*(d for _, _, d in terms))
    acc = None
    for num, factor, d in terms:
        term = num * (factor if d == den else factor * (den // d))
        acc = term if acc is None else acc + term
    return _Shared(acc, den)


@_float_range("the Poisson solve under these weights")
def solve_poisson(h: ScalarField, mu: MeasureVector) -> ScalarField:
    """Minimal-norm solution of L phi = h with sum_s mu(s) phi(s) = 0.

    Expands h along every axis i in the basis {1, e_k/mu^i_k - e_0/mu^i_0}:
    coefficient 0 is the mu^i-weighted mean m, coefficient k >= 1 is
    mu^i_k (x_k - m).  L is diagonal there, with eigenvalue
    sum_{i: k_i != 0} mu^i(S^i) at coefficient index (k_1, ..., k_n); each
    coefficient is divided by it, and the all-zero-index coefficient (the
    mu-mean, spanning Ker L) is set to 0, which is the mu-mean-zero pin.  The
    inverse transform then gives phi.  Both scalar modes cost O(|S| n)
    scalar operations and O(|S|) memory; see _solve.
    """
    require_operands(h, mu)
    return ScalarField._with_shared(h.space, (_solve(h._shared[0], mu._plan),))


def _solve(h: _Shared, plan: _MeasurePlan) -> _Shared:
    """The Poisson solve core, the one stage with a body per scalar mode.

    Exact input goes to _solve_ints, which multiplies through on integers.
    Float input is solved in solve_poisson's basis with each axis's heaviest
    strategy as reference (_to_axis_basis), dividing as it goes.  The two
    stay apart: the integer form would change float phi's rounding, and the
    float basis would cost exact mode a big-int division per slice.  Each
    float axis step multiplies by that axis's weights, so weights huge on
    every axis can take the coefficients out of the float range; the
    caller's guard (solve_poisson's or decompose's) refuses that.
    """
    if plan.exact:
        return _solve_ints(h, plan)
    weights = [axis.m for axis in plan.axes]
    _check_consistent(h.num, weights)
    coeffs, eigen = h.num, 0
    for i, axis in enumerate(plan.axes):
        coeffs = _to_axis_basis(coeffs, axis.m, i)
        per_axis = np.full(len(axis.m), axis.weight_sum)
        per_axis[0] = 0
        eigen = eigen + per_axis.reshape([-1 if j == i else 1 for j in range(coeffs.ndim)])
    origin = (0,) * coeffs.ndim
    coeffs[origin] = 0.0  # the pin
    eigen[origin] = 1
    phi = coeffs / eigen
    for i in reversed(range(len(weights))):
        phi = _from_axis_basis(phi, weights[i], i)
    return _Shared(phi, 1)


def _check_consistent(h: np.ndarray, weights: list[np.ndarray]) -> None:
    """Float L phi = h is solvable iff sum_s mu(s) h(s) = 0.

    Exact mode reads the same sum off the origin coefficient in _solve_ints.
    The sum is taken with each mu^i divided by its largest entry: a positive
    rescaling changes neither its sign nor whether it is zero, and it keeps
    mu(s) h(s) in the float range when the weights are huge.  The tolerance
    is FLOAT_ZERO_TOL relative to the size of the summed terms,
    sum_s mu(s) |h(s)|, and never less than relative to max(1, max |h|): the
    h of a harmonic game is pure rounding noise, which that floor absorbs.
    """
    terms = reduce(np.multiply.outer, [w / w.max() for w in weights]) * h
    residual = terms.sum()
    if not is_zero(residual, False, max(magnitude(h), float(np.abs(terms).sum()))):
        raise SolveError(
            "inconsistent right-hand side: sum_s mu(s) h(s) = "
            f"{residual} (each mu^i over its largest entry)"
        )


def _to_axis_basis(x: np.ndarray, weights: np.ndarray, axis: int) -> np.ndarray:
    """Coefficients along ``axis``: the weighted mean m, then w_k (x_k - m).

    The axis is first rolled so the heaviest strategy is the reference e_0,
    and the coefficients stay in that order until _from_axis_basis rolls
    back.  The inverse divides by w_0, so float rounding then grows with the
    number of strategies, not with the spread of the weights.
    """
    shift = -int(np.argmax(weights))
    x = np.moveaxis(np.roll(x, shift, axis), axis, 0)
    weights = np.roll(weights, shift)
    mean = axis_contract(x, weights, 0) / weights.sum()
    w = weights[1:].reshape((-1,) + (1,) * (x.ndim - 1))
    out = np.concatenate([mean[np.newaxis], (x[1:] - mean) * w])
    return np.moveaxis(out, 0, axis)


def _from_axis_basis(c: np.ndarray, weights: np.ndarray, axis: int) -> np.ndarray:
    """Inverse of _to_axis_basis: x_0 = c_0 - sum_k c_k / w_0, x_k = c_0 + c_k / w_k."""
    shift = -int(np.argmax(weights))
    c = np.moveaxis(c, axis, 0)
    weights = np.roll(weights, shift)
    w = weights[1:].reshape((-1,) + (1,) * (c.ndim - 1))
    first = c[0] - c[1:].sum(axis=0) / weights[0]
    out = np.concatenate([first[np.newaxis], c[0] + c[1:] / w])
    return np.roll(np.moveaxis(out, 0, axis), -shift, axis)


# -- the exact solve core: integers, multiplying through -----------------------


def _solve_ints(h: _Shared, plan: _MeasurePlan) -> _Shared:
    """solve_poisson on integers, multiplying through instead of dividing.

    The plan holds each mu^i as m^i over L_i.  The forward step along each
    axis (_to_axis_ints) keeps the basis of solve_poisson with every
    coefficient scaled by a constant, which L's diagonal form ignores.  After
    all axes the origin coefficient is (prod_i L_i) den sum_s mu(s) h(s),
    which must be 0.  The eigenvalue division is one integer factor per
    coefficient (the plan's ``inverse_eigen``), and each inverse step
    (_from_axis_ints) multiplies the denominator by m_0 W, which the plan's
    growth already includes.  The steps keep each axis's (pre, m, post)
    view, and the result is reshaped to the space once.
    """
    coeffs = h.num
    for axis in plan.axes:
        coeffs = _to_axis_ints(coeffs, axis)
    if coeffs.item(0) != 0:  # the origin coefficient
        den = h.den * math.prod(axis.den for axis in plan.axes)
        residual = Fraction(coeffs.item(0), den)
        raise SolveError(f"inconsistent right-hand side: sum_s mu(s) h(s) = {residual}")
    factor, growth = plan.inverse_eigen
    phi = coeffs.reshape(plan.shape) * factor
    for axis in reversed(plan.axes):
        phi = _from_axis_ints(phi, axis)
    return _Shared(phi.reshape(plan.shape), h.den * growth)


def _to_axis_ints(x: np.ndarray, axis: _Axis) -> np.ndarray:
    """y_0 = S = sum_k m_k x_k and y_k = W x_k - S for k >= 1, along ``axis``,
    as a (pre, m, post) array.

    These are _to_axis_basis's coefficients times W and W / w_k.  The
    reference is strategy 0: exact results do not depend on it.
    """
    view = x.reshape(axis.dims)
    total = (axis.m @ view)[:, np.newaxis]
    return np.concatenate([total, view[:, 1:] * axis.weight_sum - total], axis=1)


def _from_axis_ints(y: np.ndarray, axis: _Axis) -> np.ndarray:
    """Inverse of _to_axis_ints times m_0 W, as a (pre, m, post) array:
    x_k = m_0 y_0 + m_0 y_k and x_0 = m_0 y_0 - sum_{k>=1} m_k y_k, built in
    place on m_0 y."""
    view = y.reshape(axis.dims)
    out = view * axis.first
    out[:, 1:] += out[:, :1]
    out[:, :1] -= (axis.rest @ view[:, 1:])[:, np.newaxis]
    return out
