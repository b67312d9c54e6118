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

Exact mode runs that pipeline on integers (the ``_*_ints`` kernels): every
tensor is a ``numeric._Shared``, Python-int numerators over one shared
denominator, and each mu^i is scaled to integers m^i by the LCM of its
denominators, with W_i = sum_k m^i_k.  No stage divides a tensor: averages
keep the sum A = sum_k m_k x_k and put W into the denominator, the Poisson
solve multiplies through (see _solve_ints), and division by gamma^i is
multiplication by the numerators of 1/gamma^i over the LCM of gamma^i's
numerators.  Denominators are scalars, so each kernel costs O(|S|) Python-int
operations per axis, and the one gcd per entry is paid when the caller turns
the result back into ``Fraction`` values.  ``lambda_project``, ``pi_project``
and ``deviation_divergence`` stay generic, on ``Fraction`` or ``float64``
arrays; ``solve_poisson`` runs _solve_ints in exact mode, and its float
branch is the only one that divides.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import SolveError
from .numeric import _Shared, axis_contract, freeze, is_zero, magnitude
from .games import Game, MeasureVector, CoMeasureVector, ScalarField, require_same_mode
from .spaces import require_same_space


def _axis_average(values: np.ndarray, weights: np.ndarray, axis: int) -> np.ndarray:
    """Weighted average along one axis, broadcast back to the full shape."""
    avg = axis_contract(values, weights, axis) / weights.sum()
    return np.broadcast_to(np.expand_dims(avg, axis), values.shape)


def lambda_project(g: Game, mu: MeasureVector) -> Game:
    """Own-coordinate weighted average per player; the nonstrategic part."""
    require_same_space(g, mu)
    payoffs = tuple(
        freeze(_axis_average(g.payoffs[i], mu.weights[i], i).copy())
        for i in g.space.players
    )
    return Game(g.space, payoffs)


def pi_project(g: Game, mu: MeasureVector) -> Game:
    """g minus its own-coordinate average; the mu-normalized part."""
    return g - lambda_project(g, mu)


def deviation_divergence(
    g: Game, mu: MeasureVector, gamma: CoMeasureVector
) -> ScalarField:
    """h(s) = sum_i gamma^i(s^{-i}) sum_{t^i} mu^i(t^i) (g^i(s) - g^i(t^i, s^{-i})).

    Square-root free; equals delta* D(g) under the adopted sign convention,
    and vanishes exactly on (mu, gamma)-harmonic games.
    """
    require_same_space(g, mu, gamma)
    return _divergence(pi_project(g, mu), mu, gamma)


def _divergence(
    normalized: Game, mu: MeasureVector, gamma: CoMeasureVector
) -> ScalarField:
    """The deviation divergence from Pi g: h = sum_i gamma^i mu^i(S^i) (Pi g)^i,
    since sum_{t^i} mu^i(t^i) (g^i(s) - g^i(t^i, s^{-i})) = mu^i(S^i) (Pi g)^i(s)."""
    acc = None
    for i in normalized.space.players:
        term = gamma.expanded(i) * (normalized.payoffs[i] * mu.total(i))
        acc = term if acc is None else acc + term
    return ScalarField(normalized.space, freeze(acc))


def _check_consistent(h: ScalarField, mu: MeasureVector):
    """L phi = h is solvable iff sum_s mu(s) h(s) = 0.

    Float solve_poisson checks here; exact mode reads the same sum off the
    origin coefficient in _solve_ints.

    Float mode allows FLOAT_ZERO_TOL relative to the size of the summed terms,
    sum_s mu(s) |h(s)|, and never less than relative to max(1, max |h|): the
    h of a harmonic game is pure rounding noise, which that floor absorbs.
    """
    terms = mu.product_array() * h.values
    residual = terms.sum()
    scale = 1.0 if h.exact else max(magnitude(h.values), float(np.abs(terms).sum()))
    if not is_zero(residual, h.exact, scale):
        raise SolveError(
            f"inconsistent right-hand side: sum_s mu(s) h(s) = {residual}"
        )


def solve_poisson(h: ScalarField, mu: MeasureVector) -> ScalarField:
    """Minimal-norm solution of L phi = h with sum_s mu(s) phi(s) = 0.

    Expands h along every axis i in the basis {1, e_k/mu^i_k - e_0/mu^i_0},
    with the heaviest strategy of the axis as reference 0: coefficient 0 is
    the mu^i-weighted mean m, coefficient k >= 1 is mu^i_k (x_k - m).  L is
    diagonal there, with eigenvalue sum_{i: k_i != 0} mu^i(S^i) at
    coefficient index (k_1, ..., k_n); each coefficient is divided by it, and
    the all-zero-index coefficient (the mu-mean, spanning Ker L) is set to 0,
    which is the mu-mean-zero pin.  The inverse transform then gives phi.
    Exact mode runs the same solve on integers (_solve_ints).  Both cost
    O(|S| n) scalar operations and O(|S|) memory.
    """
    require_same_space(h, mu)
    require_same_mode(h, mu)
    if h.exact:
        weights = [_Shared.of(w) for w in mu.weights]
        phi = _solve_ints(_Shared.of(h.values), weights)
        return ScalarField(h.space, phi.fractions())
    _check_consistent(h, mu)
    space = h.space
    n = space.n_players
    coeffs = h.values
    eigen = 0
    for i in space.players:
        coeffs = _to_axis_basis(coeffs, mu.weights[i], i)
        axis_shape = [1] * n
        axis_shape[i] = space.sizes[i]
        per_axis = [0] + [mu.total(i)] * (space.sizes[i] - 1)
        eigen = eigen + np.array(per_axis).reshape(axis_shape)
    origin = (0,) * n
    coeffs[origin] = 0.0  # the pin
    eigen[origin] = 1
    phi = coeffs / eigen
    for i in reversed(space.players):
        phi = _from_axis_basis(phi, mu.weights[i], i)
    return ScalarField(space, freeze(phi))


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


# -- exact kernels: integer numerators over one shared denominator --------------


def _project_ints(x: _Shared, weights: _Shared, axis: int) -> tuple[_Shared, _Shared]:
    """Lambda^i x and Pi^i x = x - Lambda^i x along ``axis``.

    With m = weights.num and W = sum_k m_k, A = sum_k m_k x_k gives
    Lambda^i x = A / (W den), with the axis removed, and
    Pi^i x = (W x - A) / (W den).
    """
    total = weights.num.sum()
    avg = axis_contract(x.num, weights.num, axis)
    den = x.den * total
    return _Shared(avg, den), _Shared(x.num * total - np.expand_dims(avg, axis), den)


def _divergence_ints(
    normalized: list[_Shared], mu: MeasureVector, gamma: CoMeasureVector
) -> _Shared:
    """_divergence from Pi g, one player per entry of ``normalized``.

    Each player's scalar mu^i(S^i) / den_i folds into gamma^i's numerators,
    a tensor over S^{-i}; the terms are then summed over the LCM of their
    denominators.
    """
    factors = []
    for i, part in enumerate(normalized):
        shared = _Shared.of(gamma.tensors[i])
        scale = Fraction(mu.total(i), part.den)
        factors.append(_Shared(shared.num * scale.numerator, shared.den * scale.denominator))
    den = math.lcm(*(f.den for f in factors))
    acc = None
    for i, (part, f) in enumerate(zip(normalized, factors)):
        term = part.num * np.expand_dims(f.num * (den // f.den), i)
        acc = term if acc is None else acc + term
    return _Shared(acc, den)


def _solve_ints(h: _Shared, weights: list[_Shared]) -> _Shared:
    """solve_poisson on integers, multiplying through instead of dividing.

    ``weights`` holds each mu^i as m^i over L_i.  The forward step along
    each axis (_to_axis_ints) keeps the basis of solve_poisson with every
    coefficient scaled by a constant, which L's diagonal form ignores.  After
    all axes the origin coefficient is (prod_i L_i) den sum_s mu(s) h(s),
    which must be 0.  The eigenvalue division is one integer factor per
    coefficient (_inverse_eigen_ints), and each inverse step
    (_from_axis_ints) multiplies the denominator by m_0 W.
    """
    coeffs = h.num
    for i, w in enumerate(weights):
        coeffs = _to_axis_ints(coeffs, w, i)
    origin = (0,) * coeffs.ndim
    if coeffs[origin] != 0:
        residual = Fraction(coeffs[origin], h.den * math.prod(w.den for w in weights))
        raise SolveError(f"inconsistent right-hand side: sum_s mu(s) h(s) = {residual}")
    factor, growth = _inverse_eigen_ints(weights, coeffs.shape)
    phi, den = coeffs * factor, h.den * growth
    for i in reversed(range(len(weights))):
        phi = _from_axis_ints(phi, weights[i], i)
        den *= weights[i].num[0] * weights[i].num.sum()
    return _Shared(phi, den)


def _to_axis_ints(x: np.ndarray, weights: _Shared, axis: int) -> np.ndarray:
    """y_0 = S = sum_k m_k x_k and y_k = W x_k - S for k >= 1, along ``axis``.

    These are _to_axis_basis's coefficients times W and W / w_k.  The
    reference is strategy 0: exact results do not depend on it.
    """
    x = np.moveaxis(x, axis, 0)
    total = axis_contract(x, weights.num, 0)
    out = np.concatenate([total[np.newaxis], x[1:] * weights.num.sum() - total])
    return np.moveaxis(out, 0, axis)


def _from_axis_ints(y: np.ndarray, weights: _Shared, axis: int) -> np.ndarray:
    """Inverse of _to_axis_ints times m_0 W: x_0 = m_0 y_0 - sum_{k>=1} m_k y_k
    and x_k = m_0 (y_0 + y_k)."""
    y = np.moveaxis(y, axis, 0)
    m0 = weights.num[0]
    first = y[0] * m0 - axis_contract(y[1:], weights.num[1:], 0)
    out = np.concatenate([first[np.newaxis], (y[1:] + y[0]) * m0])
    return np.moveaxis(out, 0, axis)


def _inverse_eigen_ints(weights: list[_Shared], shape) -> tuple[np.ndarray, int]:
    """Division by the eigenvalues as (integer factor tensor, denominator growth).

    With L the LCM of the L_i, the eigenvalue at index k is e(k) / L, where
    e(k) = sum_{i: k_i != 0} W_i L / L_i.  Dividing by it multiplies by
    L E / e(k) over E, the LCM of all e(k).  e depends only on which k_i are
    nonzero, so its 2^n values are built once and indexed out to ``shape``;
    the origin's factor is 0, the mean-zero pin.
    """
    n = len(weights)
    lcm = math.lcm(*(w.den for w in weights))
    eigen = np.zeros((2,) * n, dtype=object)
    for i, w in enumerate(weights):
        step = np.array([0, w.num.sum() * (lcm // w.den)], dtype=object)
        eigen = eigen + step.reshape([2 if j == i else 1 for j in range(n)])
    origin = (0,) * n
    eigen[origin] = 1
    common = math.lcm(*eigen.reshape(-1).tolist())
    cancel = math.gcd(lcm, common)
    factor = (common // eigen) * (lcm // cancel)
    factor[origin] = 0
    return factor[np.ix_(*[[0] + [1] * (m - 1) for m in shape])], common // cancel


def _sub_ints(a: _Shared, b: _Shared) -> _Shared:
    """a - b over the LCM of the two denominators."""
    den = math.lcm(a.den, b.den)
    fa, fb = den // a.den, den // b.den
    left = a.num if fa == 1 else a.num * fa
    return _Shared(left - (b.num if fb == 1 else b.num * fb), den)
