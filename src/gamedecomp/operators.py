"""Projection, divergence, and Laplacian operators on the game graph.

The Laplacian here is L = sum_i mu^i(S^i) (I - Lambda^i), a sum of commuting
projections: Lambda^i replaces each entry by the mu^i-weighted average along
tensor axis i.  Along each axis the basis {1, e_k/mu^i_k - e_0/mu^i_0 : k >= 1},
for any reference strategy 0, turns every Lambda^i into diag(1, 0, ..., 0) at
once, so L is diagonal in the tensor-product basis and the minimal-norm
Poisson solve is a per-axis change of basis, one division, and the change
back.  Exact (``Fraction``) and float arrays run the same code.
"""

from __future__ import annotations

import numpy as np

from .errors import SolveError
from .numeric import axis_contract, freeze, is_zero, magnitude
from .games import Game, MeasureVector, CoMeasureVector, ScalarField
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
    space = require_same_space(g, mu, gamma)
    acc = None
    for i in space.players:
        total = mu.total(i)
        avg = _axis_average(g.payoffs[i], mu.weights[i], i)
        term = gamma.expanded(i) * ((g.payoffs[i] - avg) * total)
        acc = term if acc is None else acc + term
    return ScalarField(space, freeze(acc))


def laplacian_apply(phi: ScalarField, mu: MeasureVector) -> ScalarField:
    """(L phi)(s) = sum_i mu^i(S^i) (phi(s) - weighted own-axis average)."""
    require_same_space(phi, mu)
    acc = None
    for i in phi.space.players:
        avg = _axis_average(phi.values, mu.weights[i], i)
        term = (phi.values - avg) * mu.total(i)
        acc = term if acc is None else acc + term
    return ScalarField(phi.space, freeze(acc))


def _check_consistent(h: ScalarField, mu: MeasureVector):
    """L phi = h is solvable iff sum_s mu(s) h(s) = 0.

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
    Both scalar modes share this path; it costs O(|S| n) scalar operations
    and O(|S|) memory.
    """
    require_same_space(h, mu)
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
    coeffs[origin] = coeffs[origin] - coeffs[origin]  # the pin: a zero of h's scalar type
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
