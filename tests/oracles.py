"""Independent oracles used to cross-check the library's solvers.

- The least-squares oracle materializes the gradient operator over the flow
  space C1 as a dense matrix in orthonormal coordinates for the weighted inner
  products, so numpy's Euclidean pseudo-inverse computes exactly the
  minimal-norm phi the library derives through the Laplacian.
- The Laplacian oracle applies L = sum_i mu^i(S^i) (I - Lambda^i) directly,
  to check the solver's output against the equation it solves.
- The dense oracle builds the |S| x |S| Laplacian with exact entries and
  solves the mean-pinned system by fraction-free Bareiss elimination.
- The flow oracle embeds a game as antisymmetric edge values, weighted by
  W^i = 1/sqrt(mu^{-i}), and takes their divergence edge by edge.
- The decomposition oracle decides gamma-potential membership the long way:
  a full decomposition under uniform mu, then a zero test on the harmonic part.
- The weighted-sum oracle computes the (mu,gamma) game inner product and the
  smallest norm weight profile by profile in plain Fractions.
- The integration oracle integrates the gamma-rescaled payoff differences in
  the payoffs' own scalars: Fraction arithmetic in exact mode, where the
  library integrates integer numerators, and the same float expressions in
  float mode.
- The equilibrium oracle computes expected payoffs, the best-response
  epsilon and the pure regret profile by profile in plain Fractions.

The oracles index profiles, enumerate the game-graph edges and form the
opponent products mu^{-i} with their own helpers below, so they share no
indexing code with the library they check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from gamedecomp import Game, MeasureVector, CoMeasureVector, ScalarField, decompose
from gamedecomp.errors import SolveError, ValidationError
from gamedecomp.games import require_operands
from gamedecomp.numeric import is_zero, unequal_mask


def profiles(space):
    """Every profile as a tuple, in row-major order, player 1 varying slowest."""
    return itertools.product(*(range(m) for m in space.sizes))


def profile_index(space, profile) -> int:
    """Row-major index of a profile, player 1 varying slowest."""
    index = 0
    for k, m in zip(profile, space.sizes):
        index = index * m + k
    return index


def edges(space):
    """Yield (player, s, t) once per unordered comparable pair: s and t differ
    only in player i's coordinate, and s precedes t in row-major order."""
    for i, m in enumerate(space.sizes):
        for s in profiles(space):
            for b in range(s[i] + 1, m):
                yield i, s, s[:i] + (b,) + s[i + 1:]


def opp_product(mu: MeasureVector, player: int) -> np.ndarray:
    """mu^{-i}(s^{-i}) = prod_{j != i} mu^j(s^j) as a tensor over S^{-i}."""
    return reduce(np.multiply.outer, [w for j, w in enumerate(mu.weights) if j != player])


def orthonormal_delta_matrix(space, mu):
    """Matrix of delta: C0 -> C1 in orthonormal coordinates, rows = edges.

    C0 coordinate of h at profile r is sqrt(mu(r)) h(r); C1 coordinate of X at
    edge (s, t) is sqrt(mu(s) mu(t)) X(s, t).
    """
    mu_flat = [float(x) for x in mu.product_array().reshape(-1).tolist()]
    opp_mu = [opp_product(mu, i) for i in space.players]
    pairs = list(edges(space))
    matrix = np.zeros((len(pairs), space.num_profiles))
    for row, (i, s, t) in enumerate(pairs):
        w = 1.0 / math.sqrt(float(opp_mu[i][s[:i] + s[i + 1:]]))
        si, ti = profile_index(space, s), profile_index(space, t)
        matrix[row, ti] = w * math.sqrt(mu_flat[si])
        matrix[row, si] = -w * math.sqrt(mu_flat[ti])
    return matrix, pairs


def embedded_flow_coordinates(game, mu, gamma, pairs):
    """C1 coordinates of D(g) on the given edge list."""
    mu_flat = [float(x) for x in mu.product_array().reshape(-1).tolist()]
    opp_mu = [opp_product(mu, i) for i in game.space.players]
    out = np.zeros(len(pairs))
    for row, (i, s, t) in enumerate(pairs):
        opp = s[:i] + s[i + 1:]
        w = 1.0 / math.sqrt(float(opp_mu[i][opp]))
        value = (
            w
            * float(gamma.tensors[i][opp])
            * (float(game.payoffs[i][t]) - float(game.payoffs[i][s]))
        )
        si, ti = profile_index(game.space, s), profile_index(game.space, t)
        out[row] = math.sqrt(mu_flat[si] * mu_flat[ti]) * value
    return out


def least_squares_phi(game, mu, gamma) -> np.ndarray:
    """Min-norm least squares solution of delta phi = D(g), flat float array."""
    space = game.space
    matrix, pairs = orthonormal_delta_matrix(space, mu)
    rhs = embedded_flow_coordinates(game, mu, gamma, pairs)
    solution, *_ = np.linalg.lstsq(matrix, rhs, rcond=None)
    mu_flat = np.array([float(x) for x in mu.product_array().reshape(-1).tolist()])
    return solution / np.sqrt(mu_flat)


def laplacian_apply(phi: ScalarField, mu: MeasureVector) -> ScalarField:
    """(L phi)(s) = sum_i mu^i(S^i) (phi(s) - weighted own-axis average)."""
    require_operands(phi, mu)
    values = phi.values
    acc = None
    for i, w in enumerate(mu.weights):
        shape = [1] * values.ndim
        shape[i] = -1
        total = w.sum()
        avg = (values * w.reshape(shape)).sum(axis=i, keepdims=True) / total
        term = (values - avg) * total
        acc = term if acc is None else acc + term
    return ScalarField.from_values(phi.space, acc.reshape(-1).tolist(), exact=phi.exact)


def laplacian_matrix(mu: MeasureVector) -> list[list[Fraction]]:
    """Dense |S| x |S| matrix of L in the standard basis (exact entries)."""
    space = mu.space
    size = space.num_profiles
    mat = [[Fraction(0)] * size for _ in range(size)]
    for i in space.players:
        total = mu.total(i)
        w = mu.weights[i].tolist()
        for s in profiles(space):
            si = profile_index(space, s)
            mat[si][si] += total
            for k in range(space.sizes[i]):
                mat[si][profile_index(space, s[:i] + (k,) + s[i + 1:])] -= w[k]
    return mat


def solve_poisson_dense(h: ScalarField, mu: MeasureVector) -> ScalarField:
    """Same solution as solve_poisson via fraction-free Gaussian elimination.

    Solves (L + 1 mu^T) phi = h, which is nonsingular because Ker L is the
    constants and Im L is their <.,.>_0-orthogonal complement; the rank-one
    term pins sum_s mu(s) phi(s) = 0.  Exists as an independent oracle.
    """
    require_operands(h, mu)
    space = h.space
    size = space.num_profiles
    mu_flat = [Fraction(w) for w in mu.product_array().reshape(-1).tolist()]
    rhs = [Fraction(v) for v in h.values.reshape(-1).tolist()]
    residual = sum((w * v for w, v in zip(mu_flat, rhs)), Fraction(0))
    if residual != 0:
        raise SolveError(f"inconsistent right-hand side: sum_s mu(s) h(s) = {residual}")
    mat = laplacian_matrix(mu)
    for r in range(size):
        for c in range(size):
            mat[r][c] += mu_flat[c]
    solution = _bareiss_solve(mat, rhs)
    return ScalarField.from_values(space, solution, exact=True)


def _bareiss_solve(mat: list[list[Fraction]], rhs: list) -> list[Fraction]:
    """Fraction-free Bareiss elimination for a nonsingular rational system."""
    size = len(mat)
    aug = []
    for row, b in zip(mat, rhs):
        entries = [Fraction(x) for x in row] + [Fraction(b)]
        scale = math.lcm(*(e.denominator for e in entries))
        aug.append([int(e * scale) for e in entries])

    prev_pivot = 1
    for col in range(size):
        pivot_row = next(
            (r for r in range(col, size) if aug[r][col] != 0), None
        )
        if pivot_row is None:
            raise SolveError("singular system in dense Poisson solve")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        for r in range(col + 1, size):
            factor = aug[r][col]
            for c in range(col, size + 1):
                aug[r][c] = (pivot * aug[r][c] - factor * aug[col][c]) // prev_pivot
        prev_pivot = pivot

    solution = [Fraction(0)] * size
    for r in range(size - 1, -1, -1):
        acc = Fraction(aug[r][size])
        for c in range(r + 1, size):
            acc -= aug[r][c] * solution[c]
        solution[r] = acc / aug[r][r]
    return solution


def rational_sqrt(value: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class Flow:
    """Antisymmetric edge values on the comparable-profile graph.

    One value per unordered comparable pair, keyed by the profile pair (s, t)
    with s before t in row-major order; the reverse value is implied negative.

    ``weighting`` records how the W^i = 1/sqrt(mu^{-i}) edge factor was
    absorbed: "sqrt" means values carry W^i itself (possible exactly only when
    every mu^{-i} is a perfect rational square; always used in float mode),
    "squared" means values carry W^i**2 instead.
    """

    space: object
    values: dict
    weighting: str
    exact: bool = True

    def value(self, s: tuple[int, ...], t: tuple[int, ...]):
        if (s, t) in self.values:
            return self.values[s, t]
        if (t, s) in self.values:
            return -self.values[t, s]
        return Fraction(0) if self.exact else 0.0

    def is_zero(self) -> bool:
        return all(is_zero(v, self.exact) for v in self.values.values())


def _edge_weight_sqrt(mu_opp_value, exact: bool):
    """W^i(s,t) = 1/sqrt(mu^{-i}(s^{-i})), or None when irrational in exact mode."""
    if exact:
        root = rational_sqrt(mu_opp_value)
        if root is None:
            return None
        return 1 / root
    return 1.0 / math.sqrt(mu_opp_value)


def build_flow(g: Game, gamma: CoMeasureVector, mu: MeasureVector) -> Flow:
    """Embed a game as the flow D(g) = sum_i delta^i(gamma^i g^i)."""
    space = require_operands(g, gamma, mu)
    exact = g.exact

    opp_mu = [opp_product(mu, i) for i in space.players]
    weighting = "sqrt"
    if exact and any(
        rational_sqrt(v) is None for t in opp_mu for v in t.reshape(-1).tolist()
    ):
        weighting = "squared"

    values = {}
    for i, s, t in edges(space):
        opp = s[:i] + s[i + 1:]
        if weighting == "sqrt":
            w = _edge_weight_sqrt(opp_mu[i][opp], exact)
        else:
            w = 1 / opp_mu[i][opp]
        values[s, t] = w * gamma.tensors[i][opp] * (g.payoffs[i][t] - g.payoffs[i][s])
    return Flow(space, values, weighting, exact)


def flow_divergence(flow: Flow, mu: MeasureVector) -> ScalarField:
    """delta* X, with delta^{i*}X(s) = -sum_t mu(t) W^i(s,t) X(s,t)."""
    space = flow.space
    if mu.space != space:
        raise ValidationError("flow and measure live on different spaces")
    prod = mu.product_array()
    opp_mu = [opp_product(mu, i) for i in space.players]
    out = ScalarField.zeros(space, flow.exact).values.copy()
    for (s, t), value in flow.values.items():
        i = next(j for j in space.players if s[j] != t[j])
        if flow.weighting == "sqrt":
            w = _edge_weight_sqrt(opp_mu[i][s[:i] + s[i + 1:]], flow.exact)
            if w is None:
                raise SolveError("sqrt-weighted flow on a non-square measure")
        else:
            # values already carry W^2; mu(t) * W * (W * raw) = mu(t) * value
            w = Fraction(1) if flow.exact else 1.0
        out[s] = out[s] - prod[t] * w * value
        out[t] = out[t] + prod[s] * w * value
    return ScalarField(space, out)


def is_gamma_potential_by_decomposition(g: Game, gamma: CoMeasureVector) -> bool:
    """gamma-potential iff the harmonic part vanishes; the class does not depend on mu."""
    mu = MeasureVector.uniform(g.space, exact=g.exact)
    return decompose(g, mu, gamma).harmonic.is_zero()


def weighted_sum(a: Game, b: Game, mu: MeasureVector, gamma: CoMeasureVector) -> Fraction:
    """<a, b>_{mu,gamma} summed one profile at a time in plain Fractions:
    sum_i sum_s mu^i(S^i) mu(s) gamma^i(s^{-i})^2 a^i(s) b^i(s).

    Float entries are read as the exact rationals they hold, so the result
    is the exact value of the sum on the given data.
    """
    return sum(
        (
            norm_weight(mu, gamma, i, s) * Fraction(a.payoffs[i][s]) * Fraction(b.payoffs[i][s])
            for i in a.space.players
            for s in a.space.profiles()
        ),
        Fraction(0),
    )


def min_norm_weight(mu: MeasureVector, gamma: CoMeasureVector) -> Fraction:
    """min over players i and profiles s of mu^i(S^i) mu(s) gamma^i(s^{-i})^2."""
    return min(
        norm_weight(mu, gamma, i, s) for i in mu.space.players for s in mu.space.profiles()
    )


def norm_weight(mu: MeasureVector, gamma: CoMeasureVector, i: int, s) -> Fraction:
    """mu^i(S^i) mu(s) gamma^i(s^{-i})^2 at one player and profile, exactly."""
    total = sum((Fraction(w) for w in mu.weights[i].tolist()), Fraction(0))
    prod = math.prod(Fraction(mu.weights[j][k]) for j, k in enumerate(s))
    opp = tuple(k for j, k in enumerate(s) if j != i)
    return total * prod * Fraction(gamma.tensors[i][opp]) ** 2


def integrate_by_fractions(g: Game, gamma: CoMeasureVector):
    """(psi, first bad edge or None) as decomposition._integrate defines
    them, computed on the payoff tensors themselves.

    D_i = gamma^i (g^i - g^i(0_i, .)); psi sums each D_i with the axes before
    i pinned at 0; the checks psi == psi(0_i, .) + D_i run from the second
    player on, and the first failure, lowest player then row-major, names
    the edge (source, target).
    """
    diffs, psi = [], None
    for i, payoff in enumerate(g.payoffs):
        d = np.expand_dims(gamma.tensors[i], i) * (payoff - np.take(payoff, [0], axis=i))
        diffs.append(d)
        pinned = d[(slice(0, 1),) * i]
        psi = pinned if psi is None else psi + pinned
    for i in g.space.players[1:]:
        mismatch = unequal_mask(psi, np.take(psi, [0], axis=i) + diffs[i], g.exact)
        if mismatch.any():
            flat = int(np.argmax(mismatch))
            target = tuple(int(k) for k in np.unravel_index(flat, g.space.sizes))
            return psi, (target[:i] + (0,) + target[i + 1:], target)
    return psi, None


def expected_payoff_by_profiles(g: Game, x, player: int) -> Fraction:
    """sum_s prod_j x^j(s^j) g^player(s), one profile at a time in plain Fractions."""
    return sum(
        (
            math.prod(Fraction(x.probs[j][k]) for j, k in enumerate(s))
            * Fraction(g.payoffs[player][s])
            for s in profiles(g.space)
        ),
        Fraction(0),
    )


def best_response_epsilon_by_profiles(g: Game, x) -> Fraction:
    """max over players i and pure strategies t of u^i(t, x^{-i}) - u^i(x),
    floored at 0, with every expectation summed profile by profile."""
    worst = Fraction(0)
    for i, m in enumerate(g.space.sizes):
        current = expected_payoff_by_profiles(g, x, i)
        for t in range(m):
            deviation = sum(
                (
                    math.prod(Fraction(x.probs[j][k]) for j, k in enumerate(s) if j != i)
                    * Fraction(g.payoffs[i][s])
                    for s in profiles(g.space)
                    if s[i] == t
                ),
                Fraction(0),
            )
            worst = max(worst, deviation - current)
    return worst


def pure_regret_by_profiles(g: Game) -> dict:
    """{s: max_i (max_t g^i(t, s^{-i}) - g^i(s))} in plain Fractions."""
    regret = {}
    for s in profiles(g.space):
        gains = []
        for i, m in enumerate(g.space.sizes):
            here = Fraction(g.payoffs[i][s])
            best = max(Fraction(g.payoffs[i][s[:i] + (t,) + s[i + 1:]]) for t in range(m))
            gains.append(best - here)
        regret[s] = max(gains)
    return regret
