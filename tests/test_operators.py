import random
from fractions import Fraction

import numpy as np
import pytest

from gamedecomp import (
    CoMeasureVector,
    Game,
    MeasureVector,
    ScalarField,
    SolveError,
    StrategySpace,
    ValidationError,
    decompose,
    deviation_divergence,
    inner_product_c0,
    inner_product_game,
    lambda_project,
    pi_project,
    solve_poisson,
)
from gamedecomp import decomposition
from gamedecomp.decomposition import is_mu_normalized, is_nonstrategic
from gamedecomp.laws import random_game, random_gamma, random_mu, random_space
from oracles import (
    build_flow,
    flow_divergence,
    laplacian_apply,
    least_squares_phi,
    solve_poisson_dense,
)

SPACE = StrategySpace((("s", "t"), ("s", "t")))
MP = Game.from_payoffs(SPACE, [[1, -1, -1, 1], [-1, 1, 1, -1]])
MU = MeasureVector.uniform(SPACE)
GAMMA = CoMeasureVector.uniform(SPACE)


def constant_game(space, value):
    payoffs = [[value] * space.num_profiles for _ in space.players]
    return Game.from_payoffs(space, payoffs)


# -- projections ------------------------------------------------------------------


@pytest.mark.parametrize(
    "operator",
    [
        lambda g, mu, gamma: lambda_project(g, mu),
        lambda g, mu, gamma: deviation_divergence(g, mu, gamma),
    ],
    ids=["lambda_project", "deviation_divergence"],
)
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_operators_refuse_a_measure_summing_to_zero(operator, exact):
    """mu^1 = (1, -1) sums to 0, which the own-axis average divides by."""
    g = Game.from_payoffs(SPACE, [MP.flat(i) for i in SPACE.players], exact)
    gamma = CoMeasureVector.uniform(SPACE, exact=exact)
    with pytest.raises(ValidationError, match=r"^nonpositive measure: mu\^1\(t\) = -1"):
        operator(g, MeasureVector.from_weights(SPACE, [[1, -1], [1, 1]], exact), gamma)


def test_lambda_project_examples():
    const = constant_game(SPACE, 5)
    assert lambda_project(const, MU) == const
    assert lambda_project(MP, MU).is_zero()

    space3 = StrategySpace((("s", "t0", "t1"), ("s", "t")))
    dup = Game.from_payoffs(space3, [[1, -1, -1, 1, -1, 1], [-1, 1, 1, -1, 1, -1]])
    ns = lambda_project(dup, MeasureVector.uniform(space3))
    assert ns.flat(0) == [Fraction(-1, 3), Fraction(1, 3)] * 3


def test_pi_project_examples():
    const = constant_game(SPACE, 3)
    assert pi_project(const, MU).is_zero()
    assert pi_project(MP, MU) == MP  # already normalized

    space3 = StrategySpace((("s", "t0", "t1"), ("s", "t")))
    dup = Game.from_payoffs(space3, [[1, -1, -1, 1, -1, 1], [-1, 1, 1, -1, 1, -1]])
    normalized = pi_project(dup, MeasureVector.uniform(space3))
    assert normalized.payoffs[0][(0, 0)] == Fraction(4, 3)


def test_projection_algebra():
    rng = random.Random(3)
    for _ in range(20):
        space = random_space(rng, (2, 3), (2, 4))
        g = random_game(rng, space)
        g2 = random_game(rng, space)
        mu, gamma = random_mu(rng, space), random_gamma(rng, space)
        lam = lambda_project(g, mu)
        pi = pi_project(g, mu)
        assert lambda_project(lam, mu) == lam
        assert pi_project(pi, mu) == pi
        assert lam + pi == g
        assert is_nonstrategic(lam)
        assert is_mu_normalized(pi, mu)
        assert inner_product_game(lam, pi_project(g2, mu), mu, gamma) == 0


# -- flows -------------------------------------------------------------------------


def test_flow_examples():
    flow = build_flow(MP, GAMMA, MU)
    assert flow.weighting == "sqrt"
    assert flow.value((0, 0), (1, 0)) == -2
    assert flow.value((1, 0), (0, 0)) == 2

    assert build_flow(constant_game(SPACE, 7), GAMMA, MU).is_zero()
    ns = Game.from_payoffs(SPACE, [[3, 5, 3, 5], [2, 2, 4, 4]])
    assert is_nonstrategic(ns)
    assert build_flow(ns, GAMMA, MU).is_zero()


def test_flow_divergence_zero_on_harmonic():
    flow = build_flow(MP, GAMMA, MU)
    assert flow_divergence(flow, MU) == ScalarField.zeros(SPACE)


def test_flow_divergence_matches_deviation_divergence_sqrt_mode():
    # perfect-square opponent measures keep the sqrt weighting exact
    rng = random.Random(9)
    space = StrategySpace((("a", "b"), ("a", "b", "c")))
    mu = MeasureVector.from_weights(space, [[1, 4], [Fraction(1, 4), 1, 9]])
    for _ in range(10):
        g = random_game(rng, space)
        gamma = random_gamma(rng, space)
        flow = build_flow(g, gamma, mu)
        assert flow.weighting == "sqrt"
        assert flow_divergence(flow, mu) == deviation_divergence(g, mu, gamma)


def test_flow_divergence_matches_in_squared_mode():
    rng = random.Random(10)
    for _ in range(10):
        space = random_space(rng, (2, 3), (2, 3))
        g = random_game(rng, space)
        mu, gamma = random_mu(rng, space), random_gamma(rng, space)
        flow = build_flow(g, gamma, mu)
        assert flow_divergence(flow, mu) == deviation_divergence(g, mu, gamma)


# -- divergence and Laplacian --------------------------------------------------------


def test_deviation_divergence_examples():
    assert deviation_divergence(MP, MU, GAMMA) == ScalarField.zeros(SPACE)

    coordination = Game.from_payoffs(SPACE, [[1, 0, 0, 1], [1, 0, 0, 1]])
    h = deviation_divergence(coordination, MU, GAMMA)
    assert h.value((0, 0)) == 2

    space3 = StrategySpace((("s", "t"), ("s", "t"), ("s", "t")))
    g = Game.from_payoffs(
        space3,
        [
            [-1, -1, 2, 2, 1, 1, -2, -2],
            [1, 1, -1, -1, -1, -1, 1, 1],
            [0] * 8,
        ],
    )
    mu = MeasureVector.uniform(space3, Fraction(1, 2))
    gamma = CoMeasureVector.from_tensors(
        space3,
        [[1, 1, Fraction(1, 2), Fraction(1, 2)], [1, 1, 1, 1],
         [1, Fraction(1, 3), 1, Fraction(1, 3)]],
    )
    assert deviation_divergence(g, mu, gamma) == ScalarField.zeros(space3)


def test_laplacian_examples():
    const = ScalarField.from_values(SPACE, [3, 3, 3, 3])
    assert laplacian_apply(const, MU) == ScalarField.zeros(SPACE)

    indicator = ScalarField.from_values(SPACE, [1, 0, 0, 0])
    assert laplacian_apply(indicator, MU).value((0, 0)) == 2

    rng = random.Random(4)
    for _ in range(10):
        space = random_space(rng, (2, 3), (2, 3))
        mu = random_mu(rng, space)
        phi = ScalarField.from_values(
            space, [rng.randint(-9, 9) for _ in range(space.num_profiles)]
        )
        psi = ScalarField.from_values(
            space, [rng.randint(-9, 9) for _ in range(space.num_profiles)]
        )
        lhs = inner_product_c0(laplacian_apply(phi, mu), psi, mu)
        rhs = inner_product_c0(phi, laplacian_apply(psi, mu), mu)
        assert lhs == rhs


# -- Poisson solve ---------------------------------------------------------------------


def test_solve_poisson_basics():
    zero = ScalarField.zeros(SPACE)
    assert solve_poisson(zero, MU) == zero

    rng = random.Random(6)
    shapes = [((2, 3), (2, 4))] * 15 + [((6, 6), (2, 2)), ((4, 4), (3, 3))]
    for players, strategies in shapes:
        space = random_space(rng, players, strategies)
        g = random_game(rng, space)
        mu, gamma = random_mu(rng, space), random_gamma(rng, space)
        h = deviation_divergence(g, mu, gamma)
        phi = solve_poisson(h, mu)
        assert laplacian_apply(phi, mu) == h
        assert (mu.product_array() * phi.values).sum() == 0


def test_solve_poisson_roundtrip_on_mean_zero_fields():
    rng = random.Random(8)
    for _ in range(10):
        space = random_space(rng, (2, 3), (2, 3))
        mu = random_mu(rng, space)
        raw = [Fraction(rng.randint(-9, 9)) for _ in range(space.num_profiles)]
        prod = mu.product_array().reshape(-1).tolist()
        mean = sum(w * v for w, v in zip(prod, raw)) / sum(prod)
        phi = ScalarField.from_values(space, [v - mean for v in raw])
        image = laplacian_apply(phi, mu)
        assert solve_poisson(image, mu) == phi
        if any(v != raw[0] for v in raw):  # kernel of L is exactly the constants
            assert image != ScalarField.zeros(space)


def counting_ints():
    """A Fraction subclass whose numerator reads as a counting int.

    Exact mode converts each tensor to integer numerators once, so tensors
    built from these fractions carry the counting int into every kernel: it
    counts its + - * // and unary -, and keeps results counted.  Python tries
    a subclass's reflected method first, so mixed operations with plain ints
    are counted too; the Fraction constructor reads ``numerator`` as a plain
    int, so converting results back is not.  Returns the class and a
    function reading the count.
    """
    count = [0]

    def counted(name):
        base = getattr(int, name)

        def op(self, *other):
            count[0] += 1
            result = base(self, *other)
            return Counted(result) if type(result) is int else result

        return op

    names = [
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__floordiv__", "__rfloordiv__", "__neg__",
    ]
    Counted = type("Counted", (int,), {name: counted(name) for name in names})
    Tracked = type(
        "Tracked", (Fraction,), {"numerator": property(lambda f: Counted(f._numerator))}
    )
    return Tracked, lambda: count[0]


def test_exact_solve_poisson_operation_count():
    # the per-axis integer solve takes 2048 big-int operations on 2^6 and
    # 2106 on 3^4; an inclusion-exclusion solve over all player subsets
    # takes about 82k Fraction operations on 2^6 and 13k on 3^4, over the
    # caps of 6144 and 7776
    rng = random.Random(15)
    for players, strategies in [((6, 6), (2, 2)), ((4, 4), (3, 3))]:
        space = random_space(rng, players, strategies)
        g = random_game(rng, space)
        mu, gamma = random_mu(rng, space), random_gamma(rng, space)
        h = deviation_divergence(g, mu, gamma)
        Tracked, count = counting_ints()
        counted_h = ScalarField.from_values(space, [Tracked(v) for v in h.flat()])
        phi = solve_poisson(counted_h, mu)
        assert phi == solve_poisson(h, mu)
        assert 0 < count() <= 8 * space.num_profiles * sum(space.sizes)


def test_exact_decompose_operation_count():
    # one round of own-axis sums of g, and one of phi for the potential
    # part, takes 6528 big-int operations on 2^6 and 5940 on 3^4 (8.5 and
    # 6.1 per profile and strategy); averaging g, f = phi / gamma and g - f
    # separately took 8192 Fraction operations on 2^6, over the cap of 6912
    rng = random.Random(16)
    for players, strategies in [((6, 6), (2, 2)), ((4, 4), (3, 3))]:
        space = random_space(rng, players, strategies)
        g = random_game(rng, space)
        mu, gamma = random_mu(rng, space), random_gamma(rng, space)
        Tracked, count = counting_ints()
        counted_g = Game.from_payoffs(
            space, [[Tracked(v) for v in g.flat(i)] for i in space.players]
        )
        parts = decompose(counted_g, mu, gamma)
        plain = decompose(g, mu, gamma)
        assert parts.components() == plain.components() and parts.phi == plain.phi
        assert 0 < count() <= 9 * space.num_profiles * sum(space.sizes)


@pytest.mark.parametrize(
    "sizes", [(3, 3, 3), (8, 8, 8), (2,) * 6, (2,) * 8, (3,) * 6, (2,) * 10]
)
def test_exact_phi_shared_bit_length(monkeypatch, sizes):
    # one shared denominator per tensor, with no gcd pass between stages,
    # must not make phi's numerators much longer than its reduced entries
    # (seed 17: 45 against 32 bits on (3,3,3), 204 against 192 on 2^8)
    solved = []
    original = decomposition._solve

    def recording(h, weights):
        solved.append(original(h, weights))
        return solved[-1]

    monkeypatch.setattr(decomposition, "_solve", recording)
    rng = random.Random(17)
    space = StrategySpace(tuple(tuple(str(k) for k in range(m)) for m in sizes))
    g = random_game(rng, space)
    phi = decompose(g, random_mu(rng, space), random_gamma(rng, space)).phi
    (shared,) = solved
    shared_bits = max(
        max(abs(v).bit_length() for v in shared.num.reshape(-1).tolist()),
        shared.den.bit_length(),
    )
    reduced_bits = max(
        max(abs(v.numerator).bit_length(), v.denominator.bit_length())
        for v in phi.flat()
    )
    assert shared_bits <= 2 * reduced_bits + 32


def test_solve_poisson_rejects_inconsistent_rhs():
    bad = ScalarField.from_values(SPACE, [1, 0, 0, 0])
    with pytest.raises(SolveError, match="inconsistent right-hand side"):
        solve_poisson(bad, MU)


def test_dense_solver_agrees_with_spectral():
    rng = random.Random(12)
    for _ in range(8):
        space = random_space(rng, (2, 3), (2, 3))
        g = random_game(rng, space)
        mu, gamma = random_mu(rng, space), random_gamma(rng, space)
        h = deviation_divergence(g, mu, gamma)
        assert solve_poisson_dense(h, mu) == solve_poisson(h, mu)


def test_solve_poisson_matches_float_least_squares_oracle():
    rng = random.Random(13)
    for _ in range(25):
        space = random_space(rng, (2, 3), (2, 4))
        g = random_game(rng, space)
        mu, gamma = random_mu(rng, space), random_gamma(rng, space)
        phi = solve_poisson(deviation_divergence(g, mu, gamma), mu)
        expected = least_squares_phi(g, mu, gamma)
        actual = np.array([float(v) for v in phi.flat()])
        assert np.max(np.abs(actual - expected)) <= 1e-9
