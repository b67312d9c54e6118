import hashlib
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gamedecomp import (
    CoMeasureVector,
    Game,
    MeasureVector,
    PreconditionError,
    ScalarField,
    StrategySpace,
    ValidationError,
    decompose,
    extract_potential,
    is_gamma_potential,
    is_harmonic,
    is_mu_normalized,
    is_nonstrategic,
)
from gamedecomp import PermutationSpec, permute, scale, translate_nonstrategic
from gamedecomp.decomposition import _integrate, closest_potential, epsilon_bound
from gamedecomp.games import game_norm_sq, inner_product_game
from gamedecomp.numeric import _Shared
from gamedecomp.operators import deviation_divergence, lambda_project, solve_poisson
from gamedecomp.laws import (
    random_game,
    random_gamma,
    random_mu,
    random_nonstrategic,
    random_product_gamma,
    random_space,
)
from conftest import load_fixture
from oracles import (
    integrate_by_fractions,
    is_gamma_potential_by_decomposition,
    laplacian_apply,
    solve_poisson_dense,
)


def cells(game, player):
    return game.flat(player)


# -- published decomposition tables -----------------------------------------------


def test_matching_pennies_is_purely_harmonic(matching_pennies):
    doc = matching_pennies
    parts = decompose(doc.game, doc.mu, doc.gamma)
    assert parts.nonstrategic.is_zero()
    assert parts.potential.is_zero()
    assert parts.harmonic == doc.game


def test_duplicated_matching_pennies_tables(mp_duplicated):
    doc = mp_duplicated
    parts = decompose(doc.game, doc.mu, doc.gamma)
    assert cells(parts.potential, 0) == [
        F(4, 15), F(-4, 15), F(-2, 15), F(2, 15), F(-2, 15), F(2, 15)
    ]
    assert cells(parts.potential, 1) == [
        F(3, 5), F(-3, 5), F(1, 5), F(-1, 5), F(1, 5), F(-1, 5)
    ]
    assert cells(parts.harmonic, 0) == [
        F(16, 15), F(-16, 15), F(-8, 15), F(8, 15), F(-8, 15), F(8, 15)
    ]
    assert cells(parts.harmonic, 1) == [
        F(-8, 5), F(8, 5), F(4, 5), F(-4, 5), F(4, 5), F(-4, 5)
    ]
    assert cells(parts.nonstrategic, 0) == [F(-1, 3), F(1, 3)] * 3
    assert cells(parts.nonstrategic, 1) == [F(0)] * 6


def test_doubled_matching_pennies_tables():
    doc = load_fixture("mp-doubled.game")
    parts = decompose(doc.game, doc.mu, doc.gamma)
    assert cells(parts.potential, 0) == [F(1, 2), F(-1, 2), F(-1, 2), F(1, 2)]
    assert cells(parts.potential, 1) == [F(1, 2), F(-1, 2), F(-1, 2), F(1, 2)]
    assert cells(parts.harmonic, 0) == [F(3, 2), F(-3, 2), F(-3, 2), F(3, 2)]
    assert cells(parts.harmonic, 1) == [F(-3, 2), F(3, 2), F(3, 2), F(-3, 2)]
    assert parts.nonstrategic.is_zero()


def test_column_scaled_matching_pennies_tables():
    doc = load_fixture("mp-col-scaled.game")
    parts = decompose(doc.game, doc.mu, doc.gamma)
    assert cells(parts.potential, 0) == [F(3, 4), F(1, 4), F(-3, 4), F(-1, 4)]
    assert cells(parts.potential, 1) == [F(1, 4), F(-1, 4), F(-1, 4), F(1, 4)]
    assert cells(parts.harmonic, 0) == [F(5, 4), F(-5, 4), F(-5, 4), F(5, 4)]
    assert cells(parts.harmonic, 1) == [F(-5, 4), F(5, 4), F(5, 4), F(-5, 4)]
    assert parts.nonstrategic.is_zero()


def test_depend_tables(depend):
    doc = depend
    assert is_mu_normalized(doc.game, doc.mu)
    parts = decompose(doc.game, doc.mu, doc.gamma)
    assert cells(parts.potential, 0) == [F(2), F(-1), F(-2), F(1)]
    assert cells(parts.potential, 1) == [F(1), F(-1), F(-2), F(2)]
    assert cells(parts.harmonic, 0) == [F(2), F(-2), F(-2), F(2)]
    assert cells(parts.harmonic, 1) == [F(-2), F(2), F(2), F(-2)]
    assert parts.nonstrategic.is_zero()


def test_noncontinuity_fixture_at_eps_one_tenth():
    doc = load_fixture("noncontinuous.game")
    parts = decompose(doc.game, doc.mu, doc.gamma)
    eps = F(1, 10)
    normalized = parts.potential + parts.harmonic
    assert cells(normalized, 0) == [
        (4 - eps) / 3, -(4 - eps) / 3,
        -(2 + eps) / 3, (2 + eps) / 3,
        -2 * (1 - eps) / 3, 2 * (1 - eps) / 3,
    ]
    assert cells(normalized, 1) == [
        F(-1), F(1), F(1), F(-1), 1 - eps, -(1 - eps)
    ]
    assert cells(parts.nonstrategic, 0) == [-(1 - eps) / 3, (1 - eps) / 3] * 3
    assert cells(parts.nonstrategic, 1) == [F(0)] * 6


# -- predicates ---------------------------------------------------------------------


def test_is_nonstrategic(matching_pennies):
    space = matching_pennies.space
    constant = Game.from_payoffs(space, [[7] * 4, [7] * 4])
    assert is_nonstrategic(constant)
    assert not is_nonstrategic(matching_pennies.game)

    doc = load_fixture("mp-dup.game")
    parts = decompose(doc.game, doc.mu, doc.gamma)
    assert is_nonstrategic(parts.nonstrategic)


def test_is_mu_normalized(depend):
    assert is_mu_normalized(depend.game, depend.mu)
    space = depend.space
    assert is_mu_normalized(Game.zeros(space), depend.mu)
    constant = Game.from_payoffs(space, [[3] * 4, [3] * 4])
    assert not is_mu_normalized(constant, depend.mu)


def test_is_gamma_potential(matching_pennies, depend):
    space = matching_pennies.space
    uniform = matching_pennies.gamma
    nonstrategic = Game.from_payoffs(space, [[1, 2, 1, 2], [5, 5, 3, 3]])
    assert is_gamma_potential(nonstrategic, uniform)
    assert not is_gamma_potential(matching_pennies.game, uniform)

    # scaled potential component of Example depend under gamma/beta
    parts = decompose(depend.game, depend.mu, depend.gamma)
    beta = CoMeasureVector.from_generator(space, [[1, 3], [2, 1]])
    from gamedecomp import co_measure_quotient, scale

    scaled = scale(parts.potential, beta)
    ones = CoMeasureVector.from_generator(space, [[1, 1], [1, 1]])
    tilde = co_measure_quotient(ones, beta)
    assert tilde.generator[0].tolist() == [F(1), F(1, 3)]
    assert tilde.generator[1].tolist() == [F(1, 2), F(1)]
    assert is_gamma_potential(scaled, tilde)
    assert is_harmonic(scale(parts.harmonic, beta), depend.mu, tilde)


def test_is_gamma_potential_matches_decomposition_oracle():
    rng = random.Random(31)
    members = 0
    for trial in range(240):
        space = random_space(rng, (2, 3), (2, 3))
        g = random_game(rng, space)
        mu, gamma = random_mu(rng, space), random_gamma(rng, space)
        if trial % 2 == 0:
            g = decompose(g, mu, gamma).potential + random_nonstrategic(rng, space)
        expected = is_gamma_potential_by_decomposition(g, gamma)
        assert is_gamma_potential(g, gamma) == expected
        members += expected
    assert members >= 120


def test_predicates_validate_gamma(matching_pennies):
    from gamedecomp import harmonic_equilibrium

    doc = matching_pennies

    def zero():
        return CoMeasureVector.from_tensors(doc.space, [[0, 0], [0, 0]])

    with pytest.raises(ValidationError, match="nonpositive co-measure"):
        is_gamma_potential(doc.game, zero())
    with pytest.raises(ValidationError, match="nonpositive co-measure"):
        is_harmonic(doc.game, doc.mu, zero())
    with pytest.raises(ValidationError, match="nonpositive co-measure"):
        harmonic_equilibrium(doc.game, doc.mu, zero())


def test_is_harmonic_examples():
    multi = load_fixture("multi.game")
    assert is_harmonic(multi.game, multi.mu, multi.gamma)

    redscale = load_fixture("redscale.game")
    assert is_harmonic(redscale.game, redscale.mu, redscale.gamma)

    incompatible = load_fixture("incompatible1.game")
    assert is_harmonic(incompatible.game, incompatible.mu, incompatible.gamma)

    space = StrategySpace((("s", "t"), ("s", "t")))
    constant = Game.from_payoffs(space, [[4] * 4, [4] * 4])
    uniform_mu = MeasureVector.uniform(space)
    uniform_gamma = CoMeasureVector.uniform(space)
    assert is_harmonic(constant, uniform_mu, uniform_gamma)
    assert is_nonstrategic(constant)


# -- potential extraction --------------------------------------------------------------


def test_extract_potential(depend):
    space = depend.space
    uniform = depend.gamma
    nonstrategic = Game.from_payoffs(space, [[1, 2, 1, 2], [5, 5, 3, 3]])
    assert extract_potential(nonstrategic, uniform) == ScalarField.zeros(space)

    parts = decompose(depend.game, depend.mu, depend.gamma)
    psi = extract_potential(parts.potential, uniform)
    assert psi.values[1, 0] - psi.values[0, 0] == -4

    with pytest.raises(PreconditionError, match="not gamma-potential"):
        extract_potential(load_fixture("mp.game").game, uniform)


def test_extract_potential_matches_phi_up_to_constant():
    rng = random.Random(21)
    for _ in range(15):
        space = random_space(rng, (2, 3), (2, 3))
        g = random_game(rng, space)
        mu, gamma = random_mu(rng, space), random_gamma(rng, space)
        parts = decompose(g, mu, gamma)
        psi = extract_potential(parts.potential, gamma)
        diff = {
            psi.values[p] - parts.phi.values[p] for p in space.profiles()
        }
        assert len(diff) == 1


@pytest.mark.parametrize("sizes", [(3, 3, 3, 3), (2, 2, 2, 2, 2)])
def test_extract_potential_matches_phi_on_deep_spaces(sizes):
    rng = random.Random(22)
    space = StrategySpace(tuple(tuple("abc"[:m]) for m in sizes))
    g = random_game(rng, space)
    mu, gamma = random_mu(rng, space), random_gamma(rng, space)
    parts = decompose(g, mu, gamma)
    psi = extract_potential(parts.potential, gamma)
    assert sum(psi.flat()) == 0  # uniform-mean-zero normalisation
    offset = psi.flat()[0] - parts.phi.flat()[0]
    assert all(a - b == offset for a, b in zip(psi.flat(), parts.phi.flat()))
    assert is_gamma_potential(parts.potential, gamma)
    assert not parts.harmonic.is_zero()
    assert not is_gamma_potential(g, gamma)


# -- closest potential game and the bound ------------------------------------------------


def _in_float(space, g, gamma):
    """g and gamma with their exact entries rounded to floats."""
    return (
        Game.from_payoffs(space, [g.flat(i) for i in space.players], exact=False),
        CoMeasureVector.from_tensors(
            space, [t.reshape(-1).tolist() for t in gamma.tensors], exact=False
        ),
    )


def _same(got, want, exact) -> bool:
    """Equal entries in exact mode, equal bits in float mode."""
    return got.tolist() == want.tolist() if exact else got.tobytes() == want.tobytes()


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_integrate_matches_fraction_oracle(exact):
    # exact mode integrates integer numerators over one LCM; float mode must
    # keep the oracle's expressions, so psi agrees to the bit
    rng = random.Random(43)
    failures = 0
    for trial in range(80):
        space = random_space(rng, (2, 4), (2, 3))
        g, mu, gamma = random_game(rng, space), random_mu(rng, space), random_gamma(rng, space)
        if trial % 4 == 0:
            g = decompose(g, mu, gamma).potential + random_nonstrategic(rng, space)
        if not exact:
            g, gamma = _in_float(space, g, gamma)
        psi, bad = _integrate(g, gamma)
        want, want_bad = integrate_by_fractions(g, gamma)
        assert _same(psi.values(), want, exact)
        assert bad == want_bad
        if bad is None:
            centred = want - want.sum() / space.num_profiles
            assert _same(extract_potential(g, gamma).values, centred, exact)
            continue
        failures += 1
        source, target = (space.profile_labels(s) for s in bad)
        with pytest.raises(PreconditionError) as info:
            extract_potential(g, gamma)
        assert str(info.value).endswith(f"{source} -> {target}")
    assert failures >= 40


def _equals_converted(game) -> bool:
    return all(x.equals(_Shared.of(p)) for x, p in zip(game._shared, game.payoffs))


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(2, 3), min_size=2, max_size=3),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_games_keep_a_current_shared_form(sizes, seed, exact):
    # the parts and the closest potential game are built in shared form and
    # keep it; a game computed from them converts its own payoffs
    rng = random.Random(seed)
    space = StrategySpace(tuple(tuple("abc"[:m]) for m in sizes))
    g, mu, gamma = random_game(rng, space), random_mu(rng, space), random_gamma(rng, space)
    beta = random_product_gamma(rng, space)
    if not exact:
        g, gamma = _in_float(space, g, gamma)
        mu = MeasureVector.from_weights(space, [w.tolist() for w in mu.weights], exact=False)
        beta = CoMeasureVector.from_generator(
            space, [c.tolist() for c in beta.generator], exact=False
        )
    parts = decompose(g, mu, gamma)
    closest, _ = parts.closest_potential()
    for game in (*parts.components(), closest):
        assert "_shared" in vars(game)
        assert _equals_converted(game)
    sigma = tuple(reversed(range(space.sizes[0])))
    derived = [
        parts.potential + parts.harmonic,
        parts.harmonic - parts.nonstrategic,
        permute(parts.harmonic, PermutationSpec(0, sigma)),
        scale(parts.potential, beta),
        translate_nonstrategic(parts.potential, parts.nonstrategic),
    ]
    for game in derived:
        assert _equals_converted(game)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(2, 3), min_size=2, max_size=3),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_game_storage_keeps_its_public_behaviour(sizes, seed, exact):
    # Game(space, payoffs), Game.from_payoffs and Game.payoffs read as the
    # eagerly converted tensors did, games stay frozen, the class constructor
    # neither keeps nor freezes the arrays it is given, and == and +/- do not
    # depend on the denominator a game's shared form is stored over
    rng = random.Random(seed)
    space = StrategySpace(tuple(tuple("abc"[:m]) for m in sizes))
    cells_ = [
        [F(rng.randint(-9, 9), rng.choice([1, 2, 3])) for _ in range(space.num_profiles)]
        for _ in space.players
    ]
    if not exact:
        cells_ = [[float(v) for v in row] for row in cells_]

    def reads(game):
        for row, p in zip(cells_, game.payoffs, strict=True):
            assert p.shape == space.sizes and not p.flags.writeable
            assert p.reshape(-1).tolist() == row
            assert all(type(v) is (F if exact else float) for v in p.reshape(-1).tolist())

    g = Game.from_payoffs(space, cells_, exact)
    reads(g)
    assert g.exact is exact
    given_payoffs = tuple(p.copy() for p in g.payoffs)
    built = Game(space, given_payoffs)
    for p in given_payoffs:  # a later write to the given arrays changes nothing
        assert p.flags.writeable
        p[(0,) * p.ndim] += 1
    reads(built)
    assert built == g

    assert (g - g).is_zero() and (g + g).is_zero() == g.is_zero()
    if exact:
        shared = [_Shared.of(p) for p in g.payoffs]
        halves = Game._with_shared(space, [_Shared(x.num, 2 * x.den) for x in shared])
        quarters = Game._with_shared(space, [_Shared(2 * x.num, 4 * x.den) for x in shared])
        eager = tuple(_Shared(x.num, 2 * x.den).values() for x in shared)
        for lazy in (halves, quarters):
            assert all(not p.flags.writeable for p in lazy.payoffs)
            assert [p.tolist() for p in lazy.payoffs] == [p.tolist() for p in eager]
        assert halves == quarters and quarters == halves
        assert (halves == g) == g.is_zero()
        assert halves + quarters == g and g - quarters == halves
    with pytest.raises(AttributeError):
        g.payoffs = given_payoffs
    with pytest.raises(AttributeError):
        g.space = space


def test_class_constructors_read_entries_back_in_the_scalar_type():
    # the class constructors kept the given tensor as the view, so a string
    # or numpy int entry read back as given while the game equalled its
    # from_payoffs twin
    space = StrategySpace((("a", "b"), ("c", "d")))
    t = np.array([["1/2", np.int64(1)], [1, F(3, 4)]], dtype=object)
    rows = [F(1, 2), F(1), F(1), F(3, 4)]
    g, field = Game(space, (t, t)), ScalarField(space, t)
    for view in (*g.payoffs, field.values):
        assert view.reshape(-1).tolist() == rows
        assert all(type(v) is F for v in view.reshape(-1).tolist())
    assert g.flat(0) == rows and field.flat() == rows
    assert t.flags.writeable
    assert g == Game.from_payoffs(space, [rows, rows])
    assert field == ScalarField.from_values(space, rows)
    assert repr(g).startswith("Game(space=") and "Fraction(1, 2)" in repr(g)


def test_closest_potential_examples(matching_pennies):
    doc = matching_pennies
    closest, dist_sq = closest_potential(doc.game, doc.mu, doc.gamma)
    assert closest.is_zero()
    assert dist_sq == 16
    assert epsilon_bound(doc.game, doc.mu, doc.gamma) == 32

    space = doc.space
    coordination = Game.from_payoffs(space, [[1, 0, 0, 1], [1, 0, 0, 1]])
    closest, dist_sq = closest_potential(coordination, doc.mu, doc.gamma)
    assert closest == coordination and dist_sq == 0
    assert epsilon_bound(coordination, doc.mu, doc.gamma) == 0

    dup = load_fixture("mp-dup.game")
    parts = decompose(dup.game, dup.mu, dup.gamma)
    closest, dist_sq = closest_potential(dup.game, dup.mu, dup.gamma)
    assert closest == parts.nonstrategic + parts.potential
    assert dist_sq == game_norm_sq(parts.harmonic, dup.mu, dup.gamma)


def test_epsilon_bound_invariant_under_uniform_gamma_scaling(matching_pennies):
    # components are unchanged under (mu, theta*gamma) and d and gamma rescale
    # together, so the bound on actual payoff gains cannot move
    doc = matching_pennies
    base = epsilon_bound(doc.game, doc.mu, doc.gamma)
    assert epsilon_bound(doc.game, doc.mu, doc.gamma.scaled(F(2))) == base
    assert epsilon_bound(doc.game, doc.mu.scaled(F(3)), doc.gamma) == base


# -- global structure ---------------------------------------------------------------------


def test_decomposition_invariants_on_random_games():
    rng = random.Random(77)
    for _ in range(40):
        space = random_space(rng, (2, 3), (2, 4))
        g = random_game(rng, space)
        mu, gamma = random_mu(rng, space), random_gamma(rng, space)
        parts = decompose(g, mu, gamma)
        assert parts.total() == g
        assert is_nonstrategic(parts.nonstrategic)
        assert is_mu_normalized(parts.potential, mu)
        assert is_mu_normalized(parts.harmonic, mu)
        assert is_harmonic(parts.harmonic, mu, gamma)
        for a in parts.components():
            for b in parts.components():
                if a is not b:
                    assert inner_product_game(a, b, mu, gamma) == 0
        # phi is pinned to mu-mean zero
        assert (mu.product_array() * parts.phi.values).sum() == 0


@pytest.mark.parametrize("sizes", [(3, 3, 3), (2,) * 6, (3,) * 4])
def test_decompose_with_wide_rational_parameters(sizes):
    # mu and gamma with numerators and denominators up to 10^4 make the
    # shared denominators of an exact decompose long.  phi must solve
    # L phi = h with mu-mean zero, which fixes it; on (3,3,3) it must also be
    # the dense oracle's, which takes 5 s on 2^6 and 10 s on 3^4 on a 2-core
    # x86 VM.  The parts must add up to g and be orthogonal.
    rng = random.Random(len(sizes))
    space = StrategySpace(tuple(tuple("abc"[:m]) for m in sizes))

    def wide():
        return F(rng.randint(1, 10**4), rng.randint(1, 10**4))

    g = random_game(rng, space)
    mu = MeasureVector.from_weights(space, [[wide() for _ in range(m)] for m in sizes])
    gamma = CoMeasureVector.from_tensors(
        space,
        [[wide() for _ in range(space.num_opp_profiles(i))] for i in space.players],
    )
    parts = decompose(g, mu, gamma)
    h = deviation_divergence(g, mu, gamma)
    assert laplacian_apply(parts.phi, mu) == h
    assert (mu.product_array() * parts.phi.values).sum() == 0
    if space.num_profiles <= 27:
        assert parts.phi == solve_poisson_dense(h, mu)
    assert parts.total() == g
    a, b, c = parts.components()
    assert parts.inner_product(a, b) == 0
    assert parts.inner_product(a, c) == 0
    assert parts.inner_product(b, c) == 0


def test_class_idempotence():
    rng = random.Random(78)
    for _ in range(10):
        space = random_space(rng, (2, 2), (2, 3))
        g = random_game(rng, space)
        mu, gamma = random_mu(rng, space), random_gamma(rng, space)
        parts = decompose(g, mu, gamma)
        again_pot = decompose(parts.potential, mu, gamma)
        assert again_pot.potential == parts.potential
        assert again_pot.harmonic.is_zero() and again_pot.nonstrategic.is_zero()
        again_har = decompose(parts.harmonic, mu, gamma)
        assert again_har.harmonic == parts.harmonic
        assert again_har.potential.is_zero() and again_har.nonstrategic.is_zero()
        again_ns = decompose(parts.nonstrategic, mu, gamma)
        assert again_ns.nonstrategic == parts.nonstrategic
        assert again_ns.potential.is_zero() and again_ns.harmonic.is_zero()


def test_normalized_harmonic_characterization():
    # mu-normalized harmonic games satisfy sum_i mu^i(S^i) gamma^i g^i = 0 pointwise
    rng = random.Random(79)
    for _ in range(15):
        space = random_space(rng, (2, 3), (2, 3))
        g = random_game(rng, space)
        mu, gamma = random_mu(rng, space), random_gamma(rng, space)
        harmonic = decompose(g, mu, gamma).harmonic
        acc = None
        for i in space.players:
            term = np.expand_dims(gamma.tensors[i], i) * harmonic.payoffs[i] * mu.total(i)
            acc = term if acc is None else acc + term
        assert all(v == 0 for v in acc.reshape(-1).tolist())


# -- golden digest of seeded decompositions ----------------------------------------------

GOLDEN_SHAPES = [(3, 3, 3), (8, 8, 8), (2,) * 6, (2,) * 8, (3,) * 6, (16, 16)]
GOLDEN_DECOMPOSITION_DIGEST = "e7e954fcb1bc9641844c689979740f6cbf2833e3821025b399756272153e0e7f"


def _golden_instance(sizes, seed):
    """A seeded game on ``sizes`` with non-unit mu and gamma, in both scalar modes."""
    rng = random.Random(f"decompose-golden:{sizes}:{seed}")
    space = StrategySpace(tuple(tuple(f"s{k}" for k in range(m)) for m in sizes))
    g, mu, gamma = random_game(rng, space), random_mu(rng, space), random_gamma(rng, space)
    as_float = (
        Game.from_payoffs(space, [g.flat(i) for i in space.players], exact=False),
        MeasureVector.from_weights(space, [w.tolist() for w in mu.weights], exact=False),
        CoMeasureVector.from_tensors(
            space, [t.reshape(-1).tolist() for t in gamma.tensors], exact=False
        ),
    )
    return (g, mu, gamma), as_float


def _arrays_fingerprint(arrays) -> bytes:
    return repr([(a.dtype.str, a.shape, a.tolist()) for a in arrays]).encode()


def test_decompositions_match_golden_digest():
    # Pins exact phi and all three exact components, and the float phi and
    # float nonstrategic part, bit for bit.  Float potential and harmonic are
    # checked against exact mode within tolerance elsewhere (test_float_mode).
    digest = hashlib.sha256()
    for sizes in GOLDEN_SHAPES:
        for seed in range(3):
            exact_args, float_args = _golden_instance(sizes, seed)
            parts = decompose(*exact_args)
            digest.update(_arrays_fingerprint(
                [parts.phi.values, *(p for c in parts.components() for p in c.payoffs)]
            ))
            parts = decompose(*float_args)
            digest.update(_arrays_fingerprint([parts.phi.values, *parts.nonstrategic.payoffs]))
    assert digest.hexdigest() == GOLDEN_DECOMPOSITION_DIGEST


GOLDEN_OPERATOR_DIGEST = "caa3e0188e74f051fa162a502abcc3fe3ff2612a62ca9d193303f66f0d4f04be"


def test_operators_and_float_parts_match_golden_digest():
    # Pins, bit for bit, what the first digest leaves out: the float
    # potential and harmonic parts, and in both scalar modes lambda_project,
    # deviation_divergence and solve_poisson of that divergence.
    digest = hashlib.sha256()
    for sizes in GOLDEN_SHAPES:
        for seed in range(3):
            exact_args, float_args = _golden_instance(sizes, seed)
            for g, mu, gamma in (exact_args, float_args):
                h = deviation_divergence(g, mu, gamma)
                digest.update(_arrays_fingerprint([
                    *lambda_project(g, mu).payoffs, h.values, solve_poisson(h, mu).values
                ]))
            parts = decompose(*float_args)
            digest.update(_arrays_fingerprint([*parts.potential.payoffs, *parts.harmonic.payoffs]))
    assert digest.hexdigest() == GOLDEN_OPERATOR_DIGEST
