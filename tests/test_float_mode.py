import random
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gamedecomp import (
    CoMeasureVector,
    Game,
    MeasureVector,
    MixedProfile,
    ScalarField,
    StrategySpace,
    ValidationError,
    best_response_epsilon,
    decompose,
    expected_payoff,
    harmonic_equilibrium,
    is_gamma_potential,
    is_harmonic,
    is_mu_normalized,
    is_nonstrategic,
)
from gamedecomp.decomposition import extract_potential
from gamedecomp.equilibrium import pure_equilibrium_from_potential
from gamedecomp.games import inner_product_c0
from gamedecomp.operators import deviation_divergence, solve_poisson
from gamedecomp.cli import main
from gamedecomp.transforms import (
    DuplicationSpec, co_measure_inverse, co_measure_quotient, extend_duplicate,
)
from gamedecomp.laws import (
    random_game,
    random_gamma,
    random_mu,
    random_product_gamma,
    random_space,
)
from conftest import FIXTURES


def to_float(game, mu, gamma):
    space = game.space
    g = Game.from_payoffs(space, [game.flat(i) for i in space.players], exact=False)
    m = MeasureVector.from_weights(
        space, [w.tolist() for w in mu.weights], exact=False
    )
    c = CoMeasureVector.from_tensors(
        space, [t.reshape(-1).tolist() for t in gamma.tensors], exact=False
    )
    return g, m, c


def test_float_decompose_tracks_exact():
    rng = random.Random(55)
    shapes = [((2, 3), (2, 4))] * 10 + [((8, 8), (2, 2)), ((5, 5), (3, 3))]
    for players, strategies in shapes:
        space = random_space(rng, players, strategies)
        g = random_game(rng, space)
        mu, gamma = random_mu(rng, space), random_gamma(rng, space)
        exact_parts = decompose(g, mu, gamma)
        gf, mf, cf = to_float(g, mu, gamma)
        float_parts = decompose(gf, mf, cf)
        want_phi = np.array([float(v) for v in exact_parts.phi.flat()])
        tol = 1e-9 * max(1.0, float(np.max(np.abs(want_phi))))
        assert np.max(np.abs(want_phi - np.array(float_parts.phi.flat()))) <= tol
        for a, b in zip(exact_parts.components(), float_parts.components()):
            for i in space.players:
                want = np.array([float(v) for v in a.flat(i)])
                got = np.array(b.flat(i))
                assert np.max(np.abs(want - got)) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(2, 4), min_size=2, max_size=4), st.integers(0, 2**32 - 1))
def test_float_decompose_agrees_with_exact_property(sizes, seed):
    # exact and float mode run different kernels; phi and every component
    # must agree within the relative tolerance of the test above
    rng = random.Random(seed)
    space = StrategySpace(tuple(tuple("abcd"[:m]) for m in sizes))
    g = random_game(rng, space)
    mu, gamma = random_mu(rng, space), random_gamma(rng, space)
    exact_parts = decompose(g, mu, gamma)
    float_parts = decompose(*to_float(g, mu, gamma))
    pairs = [(exact_parts.phi.flat(), float_parts.phi.flat())] + [
        (a.flat(i), b.flat(i))
        for a, b in zip(exact_parts.components(), float_parts.components())
        for i in space.players
    ]
    for want, got in pairs:
        want = np.array([float(v) for v in want])
        tol = 1e-9 * max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(want - np.array(got))) <= tol


def test_float_poisson_accuracy_under_skewed_mu():
    # weights 10^4 apart on one axis: the float solve keeps its accuracy only
    # if each axis's basis is built around the heaviest strategy
    rng = random.Random(57)
    values = [Fraction(1, 100), Fraction(1), Fraction(100)]
    for _ in range(10):
        space = random_space(rng, (3, 3), (3, 3))
        g, gamma = random_game(rng, space), random_gamma(rng, space)
        mu = MeasureVector.from_weights(
            space, [[rng.choice(values) for _ in range(m)] for m in space.sizes]
        )
        exact_phi = solve_poisson(deviation_divergence(g, mu, gamma), mu)
        gf, mf, cf = to_float(g, mu, gamma)
        float_phi = solve_poisson(deviation_divergence(gf, mf, cf), mf)
        want = np.array([float(v) for v in exact_phi.flat()])
        got = np.array(float_phi.flat())
        assert np.max(np.abs(got - want)) <= 1e-11 * max(1.0, float(np.max(np.abs(want))))


def test_float_decompose_under_wide_mu_weights():
    # weights 10^6 apart: mu(s) reaches 10^9, so the consistency residual is
    # a sum of terms far larger than max|h|; the tolerance must follow them
    rng = random.Random(2)
    values = [Fraction(1, 1000), Fraction(1), Fraction(1000)]
    space = StrategySpace((("a", "b", "c"),) * 3)
    for _ in range(10):
        g, gamma = random_game(rng, space), random_gamma(rng, space)
        mu = MeasureVector.from_weights(
            space, [[rng.choice(values) for _ in range(m)] for m in space.sizes]
        )
        exact_parts = decompose(g, mu, gamma)
        float_parts = decompose(*to_float(g, mu, gamma))
        want_phi = np.array([float(v) for v in exact_parts.phi.flat()])
        tol = 1e-9 * max(1.0, float(np.max(np.abs(want_phi))))
        assert np.max(np.abs(want_phi - np.array(float_parts.phi.flat()))) <= tol
        for a, b in zip(exact_parts.components(), float_parts.components()):
            for i in space.players:
                want = np.array([float(v) for v in a.flat(i)])
                assert np.max(np.abs(want - np.array(b.flat(i)))) <= tol


def test_scalar_modes_never_mix():
    rng = random.Random(58)
    space = random_space(rng, (2, 2), (2, 3))
    g = random_game(rng, space)
    mu, gamma = random_mu(rng, space), random_gamma(rng, space)
    gf, mf, cf = to_float(g, mu, gamma)
    with pytest.raises(ValidationError, match="mix exact and float"):
        g + gf
    with pytest.raises(ValidationError, match="mix exact and float"):
        gf - g
    with pytest.raises(ValidationError, match="mix exact and float"):
        g == gf
    phi = ScalarField.zeros(space)
    with pytest.raises(ValidationError, match="mix exact and float"):
        phi + ScalarField.zeros(space, exact=False)
    with pytest.raises(ValidationError, match="mix exact and float"):
        phi == ScalarField.zeros(space, exact=False)
    for kind in (MeasureVector, CoMeasureVector, MixedProfile):
        with pytest.raises(ValidationError, match="mix exact and float"):
            kind.uniform(space) == kind.uniform(space, exact=False)
    with pytest.raises(ValidationError, match="mix exact and float"):
        mu == mf
    with pytest.raises(ValidationError, match="mix exact and float"):
        decompose(gf, mu, gamma)
    with pytest.raises(ValidationError, match="mix exact and float"):
        decompose(g, mu, cf)
    h = deviation_divergence(g, mu, gamma)
    with pytest.raises(ValidationError, match="mix exact and float"):
        solve_poisson(h, mf)
    with pytest.raises(ValidationError, match="mix exact and float"):
        is_mu_normalized(g, mf)
    xf = MixedProfile.uniform(space, exact=False)
    with pytest.raises(ValidationError, match="mix exact and float"):
        best_response_epsilon(g, xf)
    with pytest.raises(ValidationError, match="mix exact and float"):
        expected_payoff(g, xf, 0)
    with pytest.raises(ValidationError, match="mix exact and float"):
        inner_product_c0(h, h, mf)


def test_one_object_refuses_mixed_scalar_modes():
    # an object's tensors, and gamma's generator, share one scalar mode: a
    # game of one Fraction and one float tensor was taken as exact, and
    # decompose then died with a TypeError from Fraction arithmetic
    space = StrategySpace((("s", "t"), ("s", "t")))
    cells, pair, half = [1, 2, 3, 4], [1, 2], [Fraction(1, 2)] * 2
    exact_game = Game.from_payoffs(space, [cells, cells]).payoffs[0]
    float_game = Game.from_payoffs(space, [cells, cells], exact=False).payoffs[0]
    exact_pair = MeasureVector.from_weights(space, [pair, pair]).weights[0]
    float_pair = MeasureVector.from_weights(space, [pair, pair], exact=False).weights[0]
    exact_half = MixedProfile.from_probs(space, [half, half]).probs[0]
    float_half = MixedProfile.from_probs(space, [half, half], exact=False).probs[0]
    builds = [
        lambda: Game(space, (exact_game, float_game)),
        lambda: MeasureVector(space, (float_pair, exact_pair)),
        lambda: CoMeasureVector(space, (exact_pair, float_pair)),
        lambda: CoMeasureVector(space, (exact_pair, exact_pair), (float_pair, float_pair)),
        lambda: CoMeasureVector(space, (float_pair, float_pair), (float_pair, exact_pair)),
        lambda: MixedProfile(space, (exact_half, float_half)),
    ]
    for build in builds:
        with pytest.raises(ValidationError, match="^operands mix exact and float scalars$"):
            build()
    # a float parameter scaled by a Fraction stays float
    halved = MeasureVector.uniform(space, exact=False).scaled(Fraction(1, 2))
    thirds = CoMeasureVector.uniform(space, exact=False).scaled(Fraction(1, 3))
    assert not halved.exact and not thirds.exact
    assert halved.weights[0].dtype == thirds.tensors[0].dtype == np.float64
    assert halved.weights[0].tolist() == [0.5, 0.5]


def test_float_solver_and_predicates():
    rng = random.Random(56)
    space = random_space(rng, (2, 2), (2, 3))
    g = random_game(rng, space)
    mu, gamma = random_mu(rng, space), random_gamma(rng, space)
    gf, mf, cf = to_float(g, mu, gamma)
    h = deviation_divergence(gf, mf, cf)
    phi = solve_poisson(h, mf)
    assert not phi.exact
    harmonic = decompose(gf, mf, cf).harmonic
    assert is_harmonic(harmonic, mf, cf)  # tolerance-based zero test


def test_cli_float_flag(capsys):
    code = main(["--float", "classify", str(FIXTURES / "mp.game")])
    out = capsys.readouterr().out
    assert code == 0
    assert "(mu,gamma)-harmonic (HG): yes" in out


def test_epsilon_bound_is_squared_in_both_modes():
    from gamedecomp import parse_game
    from gamedecomp.decomposition import epsilon_bound

    text = (FIXTURES / "mp.game").read_text()
    exact_doc = parse_game(text)
    float_doc = parse_game(text, exact=False)
    bound_sq = epsilon_bound(exact_doc.game, exact_doc.mu, exact_doc.gamma)
    float_bound_sq = epsilon_bound(float_doc.game, float_doc.mu, float_doc.gamma)
    assert bound_sq == 32  # exact mode: squared, rational
    assert abs(float_bound_sq - float(bound_sq)) <= 1e-12  # float mode: squared too


@pytest.mark.parametrize("command", ["decompose", "classify"])
@pytest.mark.parametrize(
    "old, new",
    [
        ("payoffs 2: -1 1 1 -1", "payoffs 2: -1 1 1 -1\nmu 1: nan 1"),
        ("payoffs 1: 1 -1 -1 1", "payoffs 1: 1 -1 inf 1"),
    ],
)
def test_cli_float_rejects_non_finite(tmp_path, capsys, command, old, new):
    text = (FIXTURES / "mp.game").read_text()
    assert old in text
    path = tmp_path / "bad.game"
    path.write_text(text.replace(old, new))
    code = main(["--float", command, str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def _scaled(game, factor, bump=0.0):
    """factor * game, with ``bump`` added to player 1's payoff at profile 1...1."""
    payoffs = [p * factor for p in game.payoffs]
    payoffs[0][(1,) * game.space.n_players] += bump
    return Game(game.space, tuple(payoffs))


def test_float_predicates_scale_with_the_data():
    # components of float decompositions carry rounding relative to their
    # size; at 1e6 an absolute 1e-9 tolerance rejected every one of them
    rng = random.Random(59)
    space = StrategySpace((("a", "b", "c"),) * 3)
    for _ in range(20):
        g, mu = random_game(rng, space), random_mu(rng, space)
        gamma = random_product_gamma(rng, space)
        gf, mf, cf = to_float(g, mu, gamma)
        cf = CoMeasureVector.from_generator(
            space, [[float(v) for v in c.tolist()] for c in gamma.generator], exact=False
        )
        parts = decompose(gf, mf, cf)
        factor = 1e6
        for bump in (0.0, 1e-3 * factor):
            ns, pot, har = (_scaled(c, factor, bump) for c in parts.components())
            want = bump == 0.0
            assert is_nonstrategic(ns) == want
            assert is_mu_normalized(pot, mf) == want
            assert is_mu_normalized(har, mf) == want
            assert is_gamma_potential(pot, cf) == want
            assert is_harmonic(har, mf, cf) == want
        harmonic_equilibrium(_scaled(parts.harmonic, factor), mf, cf)


@pytest.mark.parametrize("command", ["decompose", "classify"])
@pytest.mark.parametrize("mu", ["1e300,1e300;1,1", "1e300,1e300;1e300,1e300", "1e308,1e308;1,1"])
def test_cli_float_rejects_weights_out_of_range(capsys, command, mu):
    # mu(s) h(s) and the norm weights mu^i(S^i) mu(s) gamma^i^2 overflow;
    # pytest turns a numpy RuntimeWarning into an error, so none may appear
    code = main(["--float", command, str(FIXTURES / "mp.game"), "--mu", mu])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def _game_doc(path, row1, row2):
    path.write_text(
        "gamedoc 1\nplayers 2\nstrategies 1: s t\nstrategies 2: s t\n"
        f"payoffs 1: {row1}\npayoffs 2: {row2}\n"
    )
    return path


@pytest.mark.parametrize(
    "case",
    ["scale", "translate", "decompose", "classify", "closest-potential",
     "decompose-1e200", "closest-potential-1e200", "check-eq"],
)
def test_cli_float_rejects_results_out_of_range(tmp_path, capsys, case):
    # each wrote an inf that parse_game refuses, or warned before its error;
    # at +-1e200 the decomposition itself is in range, but its norms and d^2
    # are not; check-eq printed "epsilon: inf" and exited 0
    g = _game_doc(tmp_path / "g.game", "10 1 2 3", "1 2 3 4")
    big = "1e308 1e308 1e308 1e308"
    ns = _game_doc(tmp_path / "ns.game", big, big)
    signed = _game_doc(tmp_path / "big.game", "1e308 -1e308 -1e308 1e308",
                       "-1e308 1e308 1e308 -1e308")
    pennies = _game_doc(tmp_path / "pennies.game", "1e200 -1e200 -1e200 1e200",
                        "-1e200 1e200 1e200 -1e200")
    eq = _game_doc(tmp_path / "eq.game", "1.5e308 1.5e308 -1.5e308 -1.5e308", "0 0 0 0")
    with eq.open("a") as f:
        f.write("profile q: 0 1 | 1 0\n")
    argv = {
        "scale": ["transform", g, "--op", "scale", "--beta", "1e308,1e308;1e308,1e308"],
        "translate": ["transform", ns, "--op", "translate", "--ns", ns],
        "decompose-1e200": ["decompose", pennies],
        "closest-potential-1e200": ["closest-potential", pennies],
        "check-eq": ["check-eq", eq, "--profile", "q"],
    }.get(case, [case, signed])
    code = main(["--float", *map(str, argv)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert lines[0].endswith("; use exact mode")


def test_float_objects_refuse_entries_out_of_range():
    space = StrategySpace((("a", "b"),) * 2)
    with pytest.raises(
        ValidationError,
        match=r"^a payoff tensor entry leaves the float range \(inf\); use exact mode$",
    ):
        Game(space, [np.array([[1.0, np.inf], [1.0, 1.0]])] * 2)
    # a sum out of range is refused by the float-range guard, before it is stored
    g = Game.from_payoffs(space, [[1e308] * 4] * 2, exact=False)
    with pytest.raises(ValidationError, match=r"^the sum leaves the float range; use exact mode$"):
        g + g
    with pytest.raises(
        ValidationError,
        match=r"^a generator entry leaves the float range \(nan\); use exact mode$",
    ):
        CoMeasureVector(space, [np.ones(2)] * 2, [np.array([np.nan, 1.0]), np.ones(2)])


def test_float_scaled_takes_any_factor_float_takes():
    """A float-mode factor is ``float(c)``, so a ``Decimal`` scales as its
    float does, and an int past the float range is refused as out of range."""
    space = StrategySpace((("a", "b"),) * 2)
    mu = MeasureVector.from_weights(space, [[1, 2], [3, 4]], exact=False)
    assert mu.scaled(Decimal("2.5")) == mu.scaled(2.5)
    gamma = CoMeasureVector.uniform(space, exact=False)
    assert gamma.scaled(Decimal("0.5")) == gamma.scaled(0.5)
    with pytest.raises(ValidationError, match=r"leaves the float range \(inf\); use exact mode$"):
        mu.scaled(10**400)


def test_float_solve_under_one_huge_weight_per_axis():
    # mu(s) reaches 10^600, but the solve's basis takes each axis's heaviest
    # strategy as reference and stays in range; the consistency sum must too,
    # so it runs on each mu^i over its largest entry (unscaled it was
    # inf * 0 = nan, with a RuntimeWarning that pytest turns into an error)
    space = StrategySpace((("a", "b"),) * 2)
    h = [0, 1, -1, 0]
    mu = MeasureVector.from_weights(space, [[1e300, 1], [1e300, 1]], exact=False)
    got = solve_poisson(ScalarField.from_values(space, h, exact=False), mu).flat()
    exact_mu = MeasureVector.from_weights(space, [[10**300, 1], [10**300, 1]])
    want = [float(v) for v in solve_poisson(ScalarField.from_values(space, h), exact_mu).flat()]
    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-9 * max(abs(v) for v in want)


def test_float_solve_under_huge_weights_on_every_axis_points_to_exact_mode():
    # each axis step multiplies the coefficients by that axis's weights, so
    # with every strategy of every axis at 1e200 they leave the float range
    # (phi itself is about 1e-200); unguarded this returned [inf, nan, -inf, nan]
    space = StrategySpace((("a", "b"),) * 2)
    mu = MeasureVector.from_weights(space, [[1e200, 1e200], [1e200, 1e200]], exact=False)
    h = ScalarField.from_values(space, [0, 1, -1, 0], exact=False)
    with pytest.raises(ValidationError, match="float range.*use exact mode"):
        solve_poisson(h, mu)


def test_float_divergence_out_of_range_points_to_exact_mode():
    space = StrategySpace((("a", "b"),) * 2)
    mu = MeasureVector.from_weights(space, [[1e300, 1e300], [1, 1]], exact=False)
    gamma = CoMeasureVector.uniform(space, exact=False)
    g = Game.from_payoffs(space, [[0, 0, 1e10, -1e10], [0, 0, 0, 0]], exact=False)
    with pytest.raises(ValidationError, match="float range.*use exact mode"):
        deviation_divergence(g, mu, gamma)


@pytest.mark.parametrize(
    "predicate",
    [
        lambda g, mu, gamma: is_nonstrategic(g),
        lambda g, mu, gamma: is_mu_normalized(g, mu),
        lambda g, mu, gamma: is_gamma_potential(g, gamma),
    ],
    ids=["nonstrategic", "mu-normalized", "gamma-potential"],
)
def test_float_predicates_out_of_range_point_to_exact_mode(predicate):
    # matching pennies at +-1e308: differences and the mu-normalized test's
    # tolerance scale overflow; unguarded they warned six times, and the
    # mu-normalized test answered from an inf scale (pytest turns a
    # RuntimeWarning into an error, so none may appear)
    space = StrategySpace((("a", "b"),) * 2)
    big = 1e308
    g = Game.from_payoffs(space, [[big, -big, -big, big], [-big, big, big, -big]], exact=False)
    mu = MeasureVector.uniform(space, exact=False)
    gamma = CoMeasureVector.uniform(space, exact=False)
    with pytest.raises(ValidationError, match=r"^the .* test leaves the float range; use exact mode$"):
        predicate(g, mu, gamma)


_PENNIES = ([1, -1, -1, 1], [-1, 1, 1, -1])
_FLOAT_KERNEL_CASES = {
    # matching pennies at +-1e308: the divergence and the differences overflow
    "decompose": (lambda g, mu, gamma: decompose(g, mu, gamma), _PENNIES, "decomposition"),
    "extract_potential": (
        lambda g, mu, gamma: extract_potential(g, gamma), _PENNIES, "gamma-potential test",
    ),
    "pure_equilibrium_from_potential": (
        lambda g, mu, gamma: pure_equilibrium_from_potential(g, gamma), _PENNIES,
        "gamma-potential test",
    ),
    # a potential game whose potential sums out of range on the way to mean zero
    "extract_potential-mean": (
        lambda g, mu, gamma: extract_potential(g, gamma), ([0, 1, 1, 1.5],) * 2,
        "mean-zero potential",
    ),
    # player 1 gains 1.5e308 - (-1.5e308): as Python floats the gains
    # overflowed to inf silently, and epsilon came back inf with no error
    "best_response_epsilon": (
        lambda g, mu, gamma: best_response_epsilon(
            g, MixedProfile.from_probs(g.space, [[0, 1], [1, 0]], exact=False)
        ),
        ([1.5, 1.5, -1.5, -1.5], [0, 0, 0, 0]), "best-response epsilon",
    ),
}


@pytest.mark.parametrize(
    "run, rows, what", _FLOAT_KERNEL_CASES.values(), ids=_FLOAT_KERNEL_CASES.keys()
)
def test_float_kernels_out_of_range_point_to_exact_mode(run, rows, what):
    # outside the CLI's errstate these computed from inf and nan: decompose
    # warned three times and raised a SolveError on sum_s mu(s) h(s) = nan,
    # extract_potential warned and answered "not gamma-potential"
    space = StrategySpace((("a", "b"),) * 2)
    g = Game.from_payoffs(space, [[1e308 * v for v in row] for row in rows], exact=False)
    mu = MeasureVector.uniform(space, exact=False)
    gamma = CoMeasureVector.uniform(space, exact=False)
    with warnings.catch_warnings(record=True) as caught, pytest.raises(
        ValidationError, match=rf"^the {what} leaves the float range; use exact mode$"
    ):
        warnings.simplefilter("always")
        run(g, mu, gamma)
    assert caught == []


def test_float_parameter_update_that_underflows_is_refused():
    # a float update rounds: lam * mu^1(s) underflows to 0.0 here, so float
    # objects built from checked inputs still run the full check
    space = StrategySpace((("s", "t"),) * 2)
    g = Game.zeros(space, exact=False)
    mu = MeasureVector.from_weights(space, [[5e-324, 1.0], [1.0, 1.0]], exact=False)
    gamma = CoMeasureVector.uniform(space, exact=False)
    with pytest.raises(ValidationError, match=r"^nonpositive measure: mu\^1\(x\) = 0\.0$"):
        extend_duplicate(g, mu, gamma, DuplicationSpec(0, "s", "x", Fraction(1, 4)))


def test_float_co_measure_quotient_underflow_points_to_exact_mode():
    # both operands are positive; the quotient 1e-300 / 1e300 underflows to
    # 0.0, which was refused as a nonpositive co-measure
    space = StrategySpace((("a", "b"),) * 2)
    gamma = CoMeasureVector.from_tensors(space, [[1e-300, 1e-300], [1, 1]], exact=False)
    beta = CoMeasureVector.from_tensors(space, [[1e300, 1e300], [1, 1]], exact=False)
    with pytest.raises(
        ValidationError,
        match=r"^a co-measure tensor entry leaves the float range "
        r"\(1e-300 / 1e\+300 underflows to 0\.0\); use exact mode$",
    ):
        co_measure_quotient(gamma, beta)
    gen_gamma = CoMeasureVector.from_generator(space, [[1, 1], [1e-300, 1e-300]], exact=False)
    gen_beta = CoMeasureVector.from_generator(space, [[1, 1], [1e300, 1e300]], exact=False)
    with pytest.raises(ValidationError, match=r"^a co-measure tensor entry .* underflows"):
        co_measure_quotient(gen_gamma, gen_beta)  # its generator's quotient underflows too
    exact = CoMeasureVector.from_tensors(space, [[10**300, 10**300], [1, 1]])
    assert co_measure_quotient(co_measure_inverse(exact), exact).tensors[0][0] == Fraction(1, 10**600)

SPACE_2X2 = StrategySpace((("a", "b"), ("a", "b")))
FLOAT_INTO_EXACT = {
    "Game.from_payoffs": lambda v: Game.from_payoffs(SPACE_2X2, [[v, 0, 0, 0], [0, 0, 0, 0]]),
    "ScalarField.from_values": lambda v: ScalarField.from_values(SPACE_2X2, [v, 0, 0, 0]),
    "MeasureVector.from_weights": lambda v: MeasureVector.from_weights(SPACE_2X2, [[v, 1], [1, 1]]),
    "CoMeasureVector.from_tensors":
        lambda v: CoMeasureVector.from_tensors(SPACE_2X2, [[v, 1], [1, 1]]),
    "CoMeasureVector.from_generator":
        lambda v: CoMeasureVector.from_generator(SPACE_2X2, [[v, 1], [1, 1]]),
    "MixedProfile.from_probs": lambda v: MixedProfile.from_probs(SPACE_2X2, [[v, 1 - v], [1, 0]]),
    "MixedProfile.from_positive_weights":
        lambda v: MixedProfile.from_positive_weights(SPACE_2X2, [[v, 1], [1, 1]]),
}


@pytest.mark.parametrize("build", FLOAT_INTO_EXACT.values(), ids=FLOAT_INTO_EXACT.keys())
@pytest.mark.parametrize(
    "value", [0.5, np.float64(0.5), np.float32(0.5)], ids=["float", "float64", "float32"]
)
def test_exact_constructors_refuse_floats(build, value):
    # 0.1 would otherwise be stored as 3602879701896397/36028797018963968
    with pytest.raises(ValidationError, match="float"):
        build(value)
    build(Fraction(1, 2))  # the same value, given exactly
