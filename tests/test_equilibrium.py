import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from gamedecomp import (
    CoMeasureVector,
    Game,
    MeasureVector,
    MixedProfile,
    PreconditionError,
    StrategySpace,
    ValidationError,
    best_response_epsilon,
    decompose,
    expected_payoff,
    harmonic_equilibrium,
    map_equilibrium_under_scaling,
    pure_equilibrium_from_potential,
    scale,
)
from gamedecomp import games
from gamedecomp.decomposition import closest_potential, epsilon_bound
from gamedecomp.laws import (
    random_game,
    random_gamma,
    random_mu,
    random_product_gamma,
    random_space,
)
from gamedecomp.equilibrium import pure_regret
from conftest import load_fixture
from oracles import (
    best_response_epsilon_by_profiles,
    expected_payoff_by_profiles,
    pure_regret_by_profiles,
)


def test_expected_payoff_examples(matching_pennies):
    doc = matching_pennies
    uniform = doc.profiles["uniform"]
    assert expected_payoff(doc.game, uniform, 0) == 0
    assert expected_payoff(doc.game, uniform, 1) == 0

    pure = MixedProfile.pure(doc.space, (0, 0))
    assert expected_payoff(doc.game, pure, 0) == 1

    constant = Game.from_payoffs(doc.space, [[7] * 4, [7] * 4])
    assert expected_payoff(constant, uniform, 0) == 7
    assert expected_payoff(constant, pure, 1) == 7


def test_best_response_epsilon_examples(matching_pennies, mp_duplicated):
    doc = matching_pennies
    assert best_response_epsilon(doc.game, doc.profiles["uniform"]) == 0
    assert best_response_epsilon(doc.game, doc.profiles["pure-ss"]) == 2

    # continuum point (1/2, x/2, (1-x)/2) at x = 1/3 in the duplicated game
    dup = mp_duplicated
    assert best_response_epsilon(dup.game, dup.profiles["continuum-x-1-3"]) == 0
    assert best_response_epsilon(dup.game, dup.profiles["uniform-split"]) == 0


def test_harmonic_equilibrium_uniform_case(matching_pennies):
    doc = matching_pennies
    profile = harmonic_equilibrium(doc.game, doc.mu, doc.gamma)
    assert profile == doc.profiles["uniform"]

    with pytest.raises(PreconditionError, match="not harmonic"):
        coordination = Game.from_payoffs(doc.space, [[1, 0, 0, 1], [1, 0, 0, 1]])
        harmonic_equilibrium(coordination, doc.mu, doc.gamma)


def test_harmonic_equilibrium_multi_reduced():
    doc = load_fixture("multi.game")
    from gamedecomp import reduce_duplicate

    reduced, mu_r, gamma_r = reduce_duplicate(doc.game, doc.mu, doc.gamma, 0, "s0", "s1")
    profile = harmonic_equilibrium(reduced, mu_r, gamma_r)
    assert profile.probs[0].tolist() == [F(2, 3), F(1, 3)]
    assert profile.probs[1].tolist() == [F(1, 3), F(1, 3), F(1, 3)]
    assert best_response_epsilon(reduced, profile) == 0


def test_harmonic_equilibrium_requires_product_gamma():
    doc = load_fixture("incompatible1.game")
    # gamma varies with the opponents and no generator is stored
    with pytest.raises(PreconditionError, match="not product"):
        harmonic_equilibrium(doc.game, doc.mu, doc.gamma)
    # Thm variant: normalized mu is an equilibrium of the gamma-scaled game
    profile = MixedProfile.from_positive_weights(
        doc.space, [w.tolist() for w in doc.mu.weights]
    )
    assert best_response_epsilon(scale(doc.game, doc.gamma), profile) == 0


def test_from_positive_weights_divides_in_the_scalar_mode():
    space = StrategySpace((("a", "b", "c"), ("a", "b", "c")))
    exact = MixedProfile.from_positive_weights(space, [[1, 1, 1], [1, 2, 3]])
    assert exact.probs[0].tolist() == [F(1, 3)] * 3
    assert exact.probs[1].tolist() == [F(1, 6), F(1, 3), F(1, 2)]
    inexact = MixedProfile.from_positive_weights(space, [[1, 1, 1], [1, 2, 3]], exact=False)
    assert inexact.probs[1].tolist() == [1 / 6, 2 / 6, 3 / 6]


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize(
    "weights, message",
    [
        # (1/4, 3/4) was returned for player 1
        ([[-1, -3], [1, 1]], r"player 1: w\(a\) = -1"),
        # a raw ZeroDivisionError in both modes
        ([[1, 1], [0, 0]], r"player 2: w\(a\) = 0"),
        ([[2, 1], [1, 0]], r"player 2: w\(b\) = 0"),
    ],
    ids=["negative", "all-zero", "zero"],
)
def test_from_positive_weights_refuses_a_nonpositive_weight(weights, message, exact):
    space = StrategySpace((("a", "b"), ("a", "b")))
    with pytest.raises(ValidationError, match=rf"^nonpositive weight for {message}(\.0)?$"):
        MixedProfile.from_positive_weights(space, weights, exact=exact)


def test_map_equilibrium_depend_example(depend):
    parts = decompose(depend.game, depend.mu, depend.gamma)
    beta_gen = [[1, 3], [2, 1]]
    beta = CoMeasureVector.from_generator(depend.space, beta_gen)

    pot_eq = MixedProfile.from_probs(depend.space, [[F(2, 3), F(1, 3)], [F(1, 3), F(2, 3)]])
    assert best_response_epsilon(parts.potential, pot_eq) == 0
    mapped = map_equilibrium_under_scaling(pot_eq, beta_gen)
    assert mapped.probs[0].tolist() == [F(6, 7), F(1, 7)]
    assert mapped.probs[1].tolist() == [F(1, 5), F(4, 5)]
    assert best_response_epsilon(scale(parts.potential, beta), mapped) == 0

    har_eq = MixedProfile.uniform(depend.space)
    assert best_response_epsilon(parts.harmonic, har_eq) == 0
    mapped = map_equilibrium_under_scaling(har_eq, beta_gen)
    assert mapped.probs[0].tolist() == [F(3, 4), F(1, 4)]
    assert mapped.probs[1].tolist() == [F(1, 3), F(2, 3)]
    assert best_response_epsilon(scale(parts.harmonic, beta), mapped) == 0


@pytest.mark.parametrize("player", [-1, 2])
def test_expected_payoff_refuses_a_player_the_space_lacks(depend, player):
    # -1 used to answer 1/24, where the last player's payoff is 1/6
    x = MixedProfile.from_probs(depend.space, [[F(1, 3), F(2, 3)], [F(1, 4), F(3, 4)]])
    assert expected_payoff(depend.game, x, 1) == F(1, 6)
    with pytest.raises(
        ValidationError, match=rf"^no player {player + 1}: the game has 2 players$"
    ):
        expected_payoff(depend.game, x, player)


@pytest.mark.parametrize(
    "generator, message",
    [
        ([[1, 0], [1, 1]], "^nonpositive co-measure"),
        ([[1, 1]], r"^need one generator vector per player \(2\), got 1$"),
        ([[1, 1, 1], [1, 1]], "^shape mismatch"),
        ([[1.0, 2.0], [1.0, 1.0]], "float"),
    ],
)
def test_map_equilibrium_refuses_an_invalid_generator(depend, generator, message):
    with pytest.raises(ValidationError, match=message):
        map_equilibrium_under_scaling(MixedProfile.uniform(depend.space), generator)


def test_map_equilibrium_refuses_a_negative_generator_on_three_players():
    # the products of these entries are all positive, so the co-measure
    # tensor check alone let the negative b through
    space = StrategySpace((("a", "b"),) * 3)
    with pytest.raises(
        ValidationError, match=r"^nonpositive co-measure generator: c\^1\(a\) = -1/2$"
    ):
        map_equilibrium_under_scaling(
            MixedProfile.uniform(space), [[F(-1, 2), -2], [-1, -1], [-3, -1]]
        )


def test_map_equilibrium_builds_only_the_profile(monkeypatch):
    # b is checked as a generator, without its product co-measure: on 2^12
    # that co-measure was 24,576 tensor entries, built and dropped per call
    space = StrategySpace((("a", "b"),) * 12)
    x = MixedProfile.uniform(space)
    count = [0]
    store = games._Tensors._store

    def counting_store(self, space, shared):
        count[0] += 1
        store(self, space, shared)

    monkeypatch.setattr(games._Tensors, "_store", counting_store)
    mapped = map_equilibrium_under_scaling(x, [[1, 3]] * 12)
    assert count[0] == 1
    assert mapped.probs[0].tolist() == [F(3, 4), F(1, 4)]


def test_map_equilibrium_roundtrip():
    rng = random.Random(41)
    for _ in range(20):
        space = random_space(rng, (2, 3), (2, 4))
        gen = [
            [rng.choice([F(1, 3), F(1, 2), F(1), F(2), F(3)]) for _ in range(m)]
            for m in space.sizes
        ]
        raw = [[F(rng.randint(1, 5)) for _ in range(m)] for m in space.sizes]
        profile = MixedProfile.from_positive_weights(space, raw)
        there = map_equilibrium_under_scaling(profile, gen)
        back = map_equilibrium_under_scaling(there, [[1 / c for c in row] for row in gen])
        assert back == profile

    identity = map_equilibrium_under_scaling(profile, [[1] * m for m in space.sizes])
    assert identity == profile


def test_pure_equilibria_from_potential(matching_pennies, depend):
    space = matching_pennies.space
    uniform = matching_pennies.gamma

    coordination = Game.from_payoffs(space, [[1, 0, 0, 1], [1, 0, 0, 1]])
    assert pure_equilibrium_from_potential(coordination, uniform) == [(0, 0), (1, 1)]

    nonstrategic = Game.from_payoffs(space, [[1, 2, 1, 2], [5, 5, 3, 3]])
    assert pure_equilibrium_from_potential(nonstrategic, uniform) == [
        (0, 0), (0, 1), (1, 0), (1, 1)
    ]

    parts = decompose(depend.game, depend.mu, depend.gamma)
    argmaxes = pure_equilibrium_from_potential(parts.potential, depend.gamma)
    assert argmaxes == [(0, 0), (1, 1)]
    for profile in argmaxes:
        assert best_response_epsilon(parts.potential, MixedProfile.pure(space, profile)) == 0

    with pytest.raises(PreconditionError, match="not gamma-potential"):
        pure_equilibrium_from_potential(matching_pennies.game, uniform)


def test_harmonic_theorems_random():
    rng = random.Random(42)
    for _ in range(50):
        space = random_space(rng, (2, 3), (2, 4))
        g = random_game(rng, space)
        mu = random_mu(rng, space)

        gamma = random_gamma(rng, space)
        harmonic = decompose(g, mu, gamma).harmonic
        normalized_mu = MixedProfile.from_positive_weights(
            space, [w.tolist() for w in mu.weights]
        )
        assert best_response_epsilon(scale(harmonic, gamma), normalized_mu) == 0

        gamma_p = random_product_gamma(rng, space)
        harmonic_p = decompose(g, mu, gamma_p).harmonic
        profile = harmonic_equilibrium(harmonic_p, mu, gamma_p)
        assert best_response_epsilon(harmonic_p, profile) == 0


def test_epsilon_bound_end_to_end_random():
    rng = random.Random(43)
    for _ in range(50):
        space = random_space(rng, (2, 3), (2, 4))
        g = random_game(rng, space)
        mu, gamma = random_mu(rng, space), random_gamma(rng, space)
        closest, _ = closest_potential(g, mu, gamma)
        bound_sq = epsilon_bound(g, mu, gamma)
        for profile in space.profiles():
            candidate = MixedProfile.pure(space, profile)
            if best_response_epsilon(closest, candidate) == 0:
                eps = best_response_epsilon(g, candidate)
                assert eps * eps <= bound_sq


def test_pure_regret_matches_best_response_epsilon():
    # the vectorised regret against the per-profile reference loop, in both
    # scalar modes; small integer payoffs give ties, the fractions do not
    rng = random.Random(44)
    spaces = [random_space(rng, (2, 3), (2, 4)) for _ in range(16)]
    spaces += [StrategySpace((("a", "b", "c", "d"),) * 3), StrategySpace((("a", "b"),) * 5)]
    for space in spaces:
        for exact in (True, False):
            payoffs = [
                [F(rng.randint(-9, 9), rng.choice([1, 1, 2, 3])) for _ in range(space.num_profiles)]
                for _ in space.players
            ]
            g = Game.from_payoffs(space, payoffs, exact=exact)
            regret = pure_regret(g)
            assert regret.shape == space.sizes
            for profile in space.profiles():
                candidate = MixedProfile.pure(space, profile, exact=exact)
                assert regret[profile] == best_response_epsilon(g, candidate)


@st.composite
def exact_games_and_profiles(draw):
    """A random exact game whose payoffs mix denominators, and a mixed
    profile whose rows are nonnegative integer weights over their sum: the
    denominators differ within and across players, and zero entries occur."""
    sizes = draw(st.lists(st.integers(2, 3), min_size=2, max_size=3))
    space = StrategySpace(tuple(tuple("abc"[:m]) for m in sizes))
    entries = st.builds(F, st.integers(-9, 9), st.sampled_from([1, 2, 3, 5]))
    payoffs = draw(st.lists(
        st.lists(entries, min_size=space.num_profiles, max_size=space.num_profiles),
        min_size=len(sizes), max_size=len(sizes),
    ))
    probs = []
    for m in sizes:
        weights = draw(st.lists(st.integers(0, 6), min_size=m, max_size=m).filter(any))
        probs.append([F(w, sum(weights)) for w in weights])
    return Game.from_payoffs(space, payoffs), MixedProfile.from_probs(space, probs)


@settings(max_examples=60, deadline=None)
@given(exact_games_and_profiles())
def test_equilibrium_checks_match_the_fraction_oracle(case):
    g, x = case
    eps = best_response_epsilon(g, x)
    assert isinstance(eps, F)
    assert eps == best_response_epsilon_by_profiles(g, x)
    for i in g.space.players:
        payoff = expected_payoff(g, x, i)
        assert isinstance(payoff, F)
        assert payoff == expected_payoff_by_profiles(g, x, i)
    regret = pure_regret(g)
    assert regret.shape == g.space.sizes
    assert {s: regret[s] for s in g.space.profiles()} == pure_regret_by_profiles(g)
