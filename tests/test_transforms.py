import hashlib
import itertools
import math
import random
import re
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gamedecomp import (
    CoMeasureVector,
    DuplicationSpec,
    Game,
    GameDocument,
    MeasureVector,
    MixedProfile,
    PermutationSpec,
    PreconditionError,
    RedundancySpec,
    StrategySpace,
    ValidationError,
    co_measure_inverse,
    co_measure_quotient,
    decompose,
    extend_duplicate,
    is_harmonic,
    permute,
    permute_params,
    reduce_duplicate,
    reduce_redundant,
    scale,
    serialize_game,
    translate_nonstrategic,
)
from gamedecomp.laws import (
    PARAM_VALUES,
    SPLIT_VALUES,
    random_game,
    random_gamma,
    random_mu,
    random_nonstrategic,
    random_product_gamma,
    random_space,
)
from gamedecomp.numeric import _Shared, axis_contract
from conftest import load_fixture


# -- permutations ------------------------------------------------------------------


def test_permute_basics(matching_pennies):
    doc = matching_pennies
    identity = PermutationSpec(0, (0, 1))
    assert permute(doc.game, identity) == doc.game

    swap = PermutationSpec(0, (1, 0))
    swapped = permute(doc.game, swap)
    assert swapped.flat(0) == [F(-1), F(1), F(1), F(-1)]
    mu_s, gamma_s = permute_params(doc.mu, doc.gamma, swap)
    assert is_harmonic(swapped, mu_s, gamma_s)
    assert permute(swapped, swap) == doc.game

    with pytest.raises(ValidationError, match="invalid permutation"):
        permute(doc.game, PermutationSpec(0, (0, 0)))


@pytest.mark.parametrize("player", [-1, 2, 5])
def test_transforms_refuse_a_player_the_space_lacks(matching_pennies, player):
    # -1 used to index the last player's axis, and 2 or more raised IndexError
    g, mu, gamma = matching_pennies.game, matching_pennies.mu, matching_pennies.gamma
    calls = [
        lambda: permute(g, PermutationSpec(player, (1, 0))),
        lambda: permute_params(mu, gamma, PermutationSpec(player, (1, 0))),
        lambda: extend_duplicate(g, mu, gamma, DuplicationSpec(player, "s", "s2")),
        lambda: reduce_duplicate(g, mu, gamma, player, "s", "t"),
        lambda: reduce_redundant(g, mu, gamma, RedundancySpec(player, "s", (F(1),))),
    ]
    for call in calls:
        with pytest.raises(
            ValidationError, match=rf"^no player {player + 1}: the game has 2 players$"
        ):
            call()


def test_permute_params_moves_gamma_axis():
    space = StrategySpace((("a", "b", "c"), ("x", "y")))
    gamma = CoMeasureVector.from_tensors(space, [[1, 2], [3, 4, 5]])
    mu = MeasureVector.from_weights(space, [[1, 2, 3], [1, 1]])
    spec = PermutationSpec(0, (2, 0, 1))
    mu_s, gamma_s = permute_params(mu, gamma, spec)
    assert mu_s.weights[0].tolist() == [3, 1, 2]
    assert gamma_s.tensors[0].tolist() == [1, 2]  # player 1's own gamma untouched
    assert gamma_s.tensors[1].tolist() == [5, 3, 4]


# -- pseudo-translations ---------------------------------------------------------------


def test_translate_nonstrategic(matching_pennies):
    doc = matching_pennies
    zero = Game.zeros(doc.space)
    assert translate_nonstrategic(doc.game, zero) == doc.game

    constant_row = Game.from_payoffs(doc.space, [[5, 5, 5, 5], [0, 0, 0, 0]])
    shifted = translate_nonstrategic(doc.game, constant_row)
    parts = decompose(shifted, doc.mu, doc.gamma)
    assert parts.nonstrategic == constant_row
    assert parts.potential.is_zero()
    assert parts.harmonic == doc.game

    with pytest.raises(PreconditionError, match="not nonstrategic"):
        translate_nonstrategic(doc.game, doc.game)


# -- scalings ----------------------------------------------------------------------------


def test_scale_examples(depend):
    doc = depend
    ones = CoMeasureVector.from_generator(doc.space, [[1, 1], [1, 1]])
    assert scale(doc.game, ones) == doc.game
    assert co_measure_quotient(doc.gamma, CoMeasureVector.uniform(doc.space)) == doc.gamma

    beta = CoMeasureVector.from_generator(doc.space, [[1, 3], [2, 1]])
    scaled = scale(doc.game, beta)
    assert scaled.flat(0) == [F(8), F(-3), F(-8), F(3)]
    assert scaled.flat(1) == [F(-1), F(1), F(0), F(0)]

    # scale(g, 1/beta) inverts; iterated scaling multiplies entrywise
    assert scale(scaled, co_measure_inverse(beta)) == doc.game
    twice = scale(scale(doc.game, beta), beta)
    direct = Game.from_payoffs(
        doc.space,
        [
            [b * b * v for b, v in zip([2, 1, 2, 1], doc.game.flat(0))],
            [b * b * v for b, v in zip([1, 1, 3, 3], doc.game.flat(1))],
        ],
    )
    assert twice == direct


@pytest.mark.parametrize("exact", [True, False])
def test_scalings_refuse_nonpositive_beta(depend, exact):
    for generator in ([[1, 2], [3, 0]], [[1, -2], [3, 4]]):
        gamma = CoMeasureVector.uniform(depend.space, exact=exact)
        game = Game.from_payoffs(
            depend.space, [depend.game.flat(i) for i in depend.space.players], exact=exact
        )
        with pytest.raises(ValidationError, match="nonpositive co-measure"):
            scale(game, CoMeasureVector.from_generator(depend.space, generator, exact=exact))
        with pytest.raises(ValidationError, match="nonpositive co-measure"):
            co_measure_quotient(
                gamma, CoMeasureVector.from_generator(depend.space, generator, exact=exact)
            )


def test_column_scaled_mp_is_scaling_of_mp(matching_pennies):
    bar = load_fixture("mp-col-scaled.game")
    beta = CoMeasureVector.from_tensors(matching_pennies.space, [[2, 1], [1, 1]])
    assert scale(matching_pennies.game, beta) == bar.game


# -- duplication --------------------------------------------------------------------------


def test_extend_duplicate_builds_gd(matching_pennies):
    doc = matching_pennies
    spec = DuplicationSpec(0, "t", "t1", lam=F(1, 2))
    extended, mu_e, gamma_e = extend_duplicate(doc.game, doc.mu, doc.gamma, spec)
    gd = load_fixture("mp-dup.game")
    assert extended.space.labels[0] == ("s", "t", "t1")
    assert extended.flat(0) == gd.game.flat(0)
    assert extended.flat(1) == gd.game.flat(1)
    assert mu_e.weights[0].tolist() == [1, F(1, 2), F(1, 2)]
    assert mu_e.weights[1].tolist() == [1, 1]
    # co-measure slices are replicated, not split
    assert gamma_e.tensors[1].tolist() == [1, 1, 1]
    assert is_harmonic(extended, mu_e, gamma_e)

    with pytest.raises(ValidationError, match="label collision"):
        extend_duplicate(doc.game, doc.mu, doc.gamma, DuplicationSpec(0, "t", "s"))
    with pytest.raises(ValidationError, match="split"):
        DuplicationSpec(0, "t", "t1", lam=F(3, 2)).validate()


def test_extension_preserves_harmonicity_random():
    rng = random.Random(31)
    for _ in range(20):
        space = random_space(rng, (2, 3), (2, 3))
        g = random_game(rng, space)
        mu, gamma = random_mu(rng, space), random_gamma(rng, space)
        harmonic = decompose(g, mu, gamma).harmonic
        player = rng.randrange(space.n_players)
        spec = DuplicationSpec(
            player, rng.choice(space.labels[player]), "zz", lam=F(1, 3)
        )
        extended, mu_e, gamma_e = extend_duplicate(harmonic, mu, gamma, spec)
        assert is_harmonic(extended, mu_e, gamma_e)


def test_reduce_duplicate_multi_example():
    doc = load_fixture("multi.game")
    reduced, mu_r, gamma_r = reduce_duplicate(
        doc.game, doc.mu, doc.gamma, 0, "s0", "s1"
    )
    assert reduced.space.labels[0] == ("s1", "t")
    assert reduced.flat(0) == [F(2), F(-1), F(-1), F(-4), F(2), F(2)]
    assert mu_r.weights[0].tolist() == [2, 1]
    assert gamma_r.tensors[1].tolist() == [1, 1]  # restriction keeps the common value
    assert is_harmonic(reduced, mu_r, gamma_r)

    again, mu_rr, gamma_rr = reduce_duplicate(reduced, mu_r, gamma_r, 1, "t0", "t1")
    assert again.flat(0) == [F(2), F(-1), F(-4), F(2)]
    assert mu_rr.weights[1].tolist() == [1, 2]
    assert is_harmonic(again, mu_rr, gamma_rr)


def test_reduce_duplicate_errors(matching_pennies):
    doc = matching_pennies
    with pytest.raises(PreconditionError, match="not a duplicate"):
        reduce_duplicate(doc.game, doc.mu, doc.gamma, 0, "s", "t")

    spec = DuplicationSpec(0, "t", "t1")
    extended, mu_e, gamma_e = extend_duplicate(doc.game, doc.mu, doc.gamma, spec)
    bad_gamma = CoMeasureVector.from_tensors(
        extended.space, [[1, 1], [1, 2, 3]]
    )
    with pytest.raises(PreconditionError, match="not coherent"):
        reduce_duplicate(extended, mu_e, bad_gamma, 0, "t1", "t")


def test_extend_then_reduce_roundtrip():
    rng = random.Random(32)
    for _ in range(15):
        space = random_space(rng, (2, 3), (2, 4))
        g = random_game(rng, space)
        mu, gamma = random_mu(rng, space), random_gamma(rng, space)
        player = rng.randrange(space.n_players)
        spec = DuplicationSpec(
            player, rng.choice(space.labels[player]), "zz", lam=F(2, 3)
        )
        extended, mu_e, gamma_e = extend_duplicate(g, mu, gamma, spec)
        back, mu_b, gamma_b = reduce_duplicate(
            extended, mu_e, gamma_e, player, "zz", spec.source
        )
        assert back == g and mu_b == mu and gamma_b == gamma


# -- redundancy -----------------------------------------------------------------------------


def test_reduce_redundant_point_mass_matches_duplicate(matching_pennies):
    doc = matching_pennies
    spec = DuplicationSpec(0, "t", "t1", lam=F(1, 2))
    extended, mu_e, gamma_e = extend_duplicate(doc.game, doc.mu, doc.gamma, spec)
    # alpha = point mass on the source strategy t
    red = RedundancySpec(0, "t1", (F(0), F(1)))
    via_alpha, mu_a, gamma_a = reduce_redundant(extended, mu_e, gamma_e, red)
    via_dup, mu_d, gamma_d = reduce_duplicate(extended, mu_e, gamma_e, 0, "t1", "t")
    assert via_alpha == via_dup
    assert mu_a == mu_d
    assert gamma_a == gamma_d


def test_redscale_chain():
    doc = load_fixture("redscale.game")
    theta = F(1, 3)
    assert is_harmonic(doc.game, doc.mu, doc.gamma)

    spec = RedundancySpec(0, "r", (theta, 1 - theta))
    reduced, mu_r, gamma_r = reduce_redundant(doc.game, doc.mu, doc.gamma, spec)
    assert reduced.space.labels[0] == ("s", "t")
    assert mu_r.weights[0].tolist() == [1, 1]
    assert is_harmonic(reduced, mu_r, gamma_r)

    beta = CoMeasureVector.from_tensors(
        reduced.space, [[1, 1], [F(1, 2), F(1, 2)]]
    )
    pennies = scale(reduced, beta)
    assert pennies.flat(0) == [F(1), F(-1), F(-1), F(1)]
    assert pennies.flat(1) == [F(-1), F(1), F(1), F(-1)]
    quotient = co_measure_quotient(gamma_r, beta)
    assert all(v == 1 for t in quotient.tensors for v in t.reshape(-1).tolist())
    assert is_harmonic(pennies, mu_r, quotient)


def test_reduce_redundant_errors():
    doc = load_fixture("redscale.game")
    bad_alpha = RedundancySpec(0, "r", (F(1, 2), F(1, 2)))
    with pytest.raises(PreconditionError, match="not alpha-redundant"):
        reduce_redundant(doc.game, doc.mu, doc.gamma, bad_alpha)

    good = RedundancySpec(0, "r", (F(1, 3), F(2, 3)))
    nonuniform = CoMeasureVector.from_tensors(
        doc.space, [[1, 2], [1, 1, 1]]
    )
    with pytest.raises(PreconditionError, match="not uniform"):
        reduce_redundant(doc.game, doc.mu, nonuniform, good)

    with pytest.raises(ValidationError, match="sum to exactly 1"):
        RedundancySpec(0, "r", (F(1, 2), F(1, 3))).validate(doc.space)


# -- error paths, with their order -----------------------------------------------------------


def _raises(error, message, call):
    """call() raises ``error`` with exactly ``message``."""
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        call()


def test_duplicate_pair_errors(matching_pennies):
    g, mu, gamma = matching_pennies.game, matching_pennies.mu, matching_pennies.gamma
    _raises(ValidationError, "s0 and s1 must be different strategies",
            lambda: reduce_duplicate(g, mu, gamma, 0, "s", "s"))
    # s and t duplicate each other for both players, but player 1 keeps one
    # strategy: the duplicate check passes, the smaller space is refused
    dup = Game.from_payoffs(g.space, [[1, 2, 1, 2], [3, 4, 3, 4]])
    _raises(ValidationError, "player 1 needs at least 2 strategies",
            lambda: reduce_duplicate(dup, mu, gamma, 0, "s", "t"))
    # ... before gamma's coherence is checked
    incoherent = CoMeasureVector.from_tensors(g.space, [[1, 1], [1, 2]])
    _raises(ValidationError, "player 1 needs at least 2 strategies",
            lambda: reduce_duplicate(dup, mu, incoherent, 0, "s", "t"))


def test_redundancy_spec_errors(matching_pennies):
    g, mu, gamma = matching_pennies.game, matching_pennies.mu, matching_pennies.gamma
    _raises(ValidationError, "alpha needs 1 entries, got 2",
            lambda: reduce_redundant(g, mu, gamma, RedundancySpec(0, "s", (F(1, 2), F(1, 2)))))
    doc = load_fixture("redscale.game")
    _raises(ValidationError, "alpha entries must be nonnegative",
            lambda: RedundancySpec(0, "r", (F(3, 2), F(-1, 2))).validate(doc.space))
    _raises(ValidationError, "alpha entries must be nonnegative",
            lambda: reduce_redundant(doc.game, doc.mu, doc.gamma,
                                     RedundancySpec(0, "r", (F(3, 2), F(-1, 2)))))
    # a 2-strategy player: mu and gamma pass, the smaller space is refused
    _raises(ValidationError, "player 1 needs at least 2 strategies",
            lambda: reduce_redundant(g, mu, gamma, RedundancySpec(0, "s", (F(1),))))


def test_unknown_strategy_labels(matching_pennies):
    g, mu, gamma = matching_pennies.game, matching_pennies.mu, matching_pennies.gamma
    message = "player 1 has no strategy 'zz'"
    calls = [
        lambda: extend_duplicate(g, mu, gamma, DuplicationSpec(0, "zz", "t1")),
        # the source is looked up before the new label is checked
        lambda: extend_duplicate(g, mu, gamma, DuplicationSpec(0, "zz", "s")),
        lambda: reduce_duplicate(g, mu, gamma, 0, "zz", "s"),
        lambda: reduce_duplicate(g, mu, gamma, 0, "s", "zz"),
        lambda: reduce_redundant(g, mu, gamma, RedundancySpec(0, "zz", (F(1),))),
    ]
    for call in calls:
        _raises(ValidationError, message, call)
    # the split is checked before the source
    _raises(ValidationError, "measure split must lie in (0,1), got 2",
            lambda: extend_duplicate(g, mu, gamma, DuplicationSpec(0, "zz", "t1", lam=F(2))))
    # the label before gamma's uniformity
    doc = load_fixture("redscale.game")
    nonuniform = CoMeasureVector.from_tensors(doc.space, [[1, 2], [1, 1, 1]])
    _raises(ValidationError, "player 1 has no strategy 'zz'",
            lambda: reduce_redundant(doc.game, doc.mu, nonuniform,
                                     RedundancySpec(0, "zz", (F(1, 3), F(2, 3)))))


def test_precondition_order():
    # reduce_duplicate checks the game before gamma; reduce_redundant checks
    # gamma before the game
    doc = load_fixture("multi.game")
    bad_gamma = CoMeasureVector.from_tensors(doc.space, [[1, 1, 1], [1, 2, 3]])
    _raises(PreconditionError, "not a duplicate: payoff of player 1 differs at "
            "opponent subprofile (0,)",
            lambda: reduce_duplicate(doc.game, doc.mu, bad_gamma, 0, "s0", "t"))
    _raises(PreconditionError, "gamma not coherent: gamma^2 differs between 's0' and 's1' slices",
            lambda: reduce_duplicate(doc.game, doc.mu, bad_gamma, 0, "s0", "s1"))
    red = load_fixture("redscale.game")
    nonuniform = CoMeasureVector.from_tensors(red.space, [[1, 2], [1, 1, 1]])
    bad_alpha = RedundancySpec(0, "r", (F(1, 2), F(1, 2)))
    _raises(PreconditionError, "gamma not uniform: gamma^1 varies",
            lambda: reduce_redundant(red.game, red.mu, nonuniform, bad_alpha))
    _raises(PreconditionError, "not alpha-redundant: player 1 payoff at opponent "
            "subprofile (0,) misses the alpha mixture",
            lambda: reduce_redundant(red.game, red.mu, red.gamma, bad_alpha))


def test_transforms_refuse_operands_on_different_spaces(matching_pennies):
    # the operand check comes first, before any check of the spec
    g, mu, gamma = matching_pennies.game, matching_pennies.mu, matching_pennies.gamma
    other = load_fixture("redscale.game")
    bad_sigma = PermutationSpec(0, (0, 0))
    calls = [
        lambda: permute_params(mu, other.gamma, bad_sigma),
        lambda: translate_nonstrategic(g, Game.zeros(other.space)),
        lambda: scale(g, other.gamma),
        lambda: co_measure_quotient(gamma, other.gamma),
        lambda: extend_duplicate(g, other.mu, gamma, DuplicationSpec(0, "zz", "s", lam=F(2))),
        lambda: reduce_duplicate(g, mu, other.gamma, 0, "s", "s"),
        lambda: reduce_redundant(other.game, mu, gamma, RedundancySpec(0, "zz", (F(1, 2),))),
    ]
    for call in calls:
        _raises(ValidationError, "arguments live on different strategy spaces", call)


# -- the two-transformations example ------------------------------------------------------


def test_two_transformations_example(depend):
    doc = load_fixture("two-transformations.game")
    base = decompose(depend.game, depend.mu, depend.gamma)

    beta = CoMeasureVector.from_generator(depend.space, [[1, 3], [2, 1]])
    spec = DuplicationSpec(0, "s", "s0", lam=F(1, 2))

    # scale first, then duplicate; fixture stores the published composite
    scaled_parts = [scale(c, beta) for c in base.components()]
    composite, mu_c, gamma_c = extend_duplicate(
        scale(depend.game, beta),
        depend.mu,
        co_measure_quotient(depend.gamma, beta),
        spec,
    )
    relabel = composite  # fixture labels s0, s1 with s duplicated before itself
    assert relabel.flat(0) == doc.game.flat(0)
    assert relabel.flat(1) == doc.game.flat(1)
    assert mu_c == doc.mu
    assert gamma_c == doc.gamma

    parts = decompose(composite, mu_c, gamma_c)
    for component, scaled in zip(parts.components(), scaled_parts):
        extended, _, _ = extend_duplicate(
            scaled, depend.mu, co_measure_quotient(depend.gamma, beta), spec
        )
        assert component == extended

    # published tables for the transformed potential and harmonic parts
    assert parts.potential.flat(0) == [F(4), F(-1), F(4), F(-1), F(-4), F(1)]
    assert parts.potential.flat(1) == [F(1), F(-1), F(1), F(-1), F(-6), F(6)]
    assert parts.harmonic.flat(0) == [F(4), F(-2), F(4), F(-2), F(-4), F(2)]
    assert parts.harmonic.flat(1) == [F(-2), F(2), F(-2), F(2), F(6), F(-6)]


def test_transforms_refuse_mixed_scalar_modes():
    rng = random.Random(33)
    space = random_space(rng, (2, 2), (3, 3))
    g, mu, gamma = random_game(rng, space), random_mu(rng, space), random_gamma(rng, space)
    gf, mf, cf = _as_mode(g, mu, gamma, exact=False)
    beta = random_gamma(rng, space)
    _, _, beta_f = _as_mode(g, mu, beta, exact=False)
    extended, mu_e, gamma_e = extend_duplicate(g, mu, gamma, DuplicationSpec(0, "a", "x"))
    _, mu_ef, _ = _as_mode(extended, mu_e, gamma_e, exact=False)
    redundant, gamma_u, red = _redundant_instance(rng, g, exact=True)
    _, _, gamma_uf = _as_mode(redundant, mu, gamma_u, exact=False)
    calls = [
        lambda: permute_params(mf, gamma, PermutationSpec(0, (1, 0, 2))),
        lambda: scale(g, beta_f),
        lambda: co_measure_quotient(gamma, beta_f),
        lambda: extend_duplicate(gf, mu, gamma, DuplicationSpec(0, "a", "x")),
        lambda: reduce_duplicate(extended, mu_ef, gamma_e, 0, "x", "a"),
        lambda: reduce_redundant(redundant, mu, gamma_uf, red),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="mix exact and float"):
            call()


# -- golden digest of every transform's output -----------------------------------------------

GOLDEN_COUNT = 3122
GOLDEN_DIGEST = "8a968551d552f0e0821588aa6ec05f48d47b977e67e987ea7e5b3d3c0b6f0c29"


def _as_mode(g, mu, gamma, exact):
    """The same instance in the requested scalar mode; a generator stays a generator."""
    space = g.space
    game = Game.from_payoffs(space, [g.flat(i) for i in space.players], exact=exact)
    weights = MeasureVector.from_weights(space, [w.tolist() for w in mu.weights], exact=exact)
    if gamma.generator is not None:
        co = CoMeasureVector.from_generator(
            space, [c.tolist() for c in gamma.generator], exact=exact
        )
    else:
        co = CoMeasureVector.from_tensors(
            space, [t.reshape(-1).tolist() for t in gamma.tensors], exact=exact
        )
    return game, weights, co


def _redundant_instance(rng, g, exact):
    """g with one strategy overwritten by an alpha-mixture of the others, a
    uniform gamma (with or without a generator), and the matching spec."""
    space = g.space
    player = rng.choice([i for i in space.players if space.sizes[i] >= 3])
    p0 = rng.randrange(space.sizes[player])
    raw = [rng.choice(PARAM_VALUES) for _ in range(space.sizes[player] - 1)]
    alpha = tuple(a / sum(raw, F(0)) for a in raw)
    payoffs = []
    for j in space.players:
        kept = np.delete(g.payoffs[j], p0, axis=player)
        tensor = g.payoffs[j].copy()
        index = [slice(None)] * space.n_players
        index[player] = p0
        tensor[tuple(index)] = axis_contract(kept, alpha, player)
        payoffs.append(tensor.reshape(-1).tolist())
    game = Game.from_payoffs(space, payoffs, exact=exact)
    constants = [rng.choice(PARAM_VALUES) for _ in space.players]
    if rng.random() < 0.5:
        gamma = CoMeasureVector.from_generator(
            space, [[c] * m for c, m in zip(constants, space.sizes)], exact=exact
        )
    else:
        gamma = CoMeasureVector.from_tensors(
            space, [[c] * space.num_opp_profiles(j) for j, c in enumerate(constants)],
            exact=exact,
        )
    return game, gamma, RedundancySpec(player, space.labels[player][p0], alpha)


def _fingerprint(game, mu, gamma) -> bytes:
    arrays = [*game.payoffs, *mu.weights, *gamma.tensors, *(gamma.generator or ())]
    text = serialize_game(GameDocument(game, mu, gamma))
    text += repr([(a.dtype.str, a.shape, a.tolist()) for a in arrays])
    text += repr(gamma.generator is None)
    return text.encode()


def _transform_outputs(seed):
    """Every transform applied to one seeded instance; both scalar modes,
    gamma with a generator on odd seeds."""
    rng = random.Random(f"golden:{seed}")
    exact = seed % 4 < 2
    space = random_space(rng, (2, 3), (2, 3))
    g, mu = random_game(rng, space), random_mu(rng, space)
    gamma = random_product_gamma(rng, space) if seed % 2 else random_gamma(rng, space)
    g, mu, gamma = _as_mode(g, mu, gamma, exact)

    player = rng.randrange(space.n_players)
    sigma = list(range(space.sizes[player]))
    rng.shuffle(sigma)
    perm = PermutationSpec(player, tuple(sigma))
    yield (permute(g, perm), *permute_params(mu, gamma, perm))

    ns, _, _ = _as_mode(random_nonstrategic(rng, space), mu, gamma, exact)
    yield translate_nonstrategic(g, ns), mu, gamma

    maker = random_product_gamma if rng.random() < 0.5 else random_gamma
    _, _, beta = _as_mode(g, mu, maker(rng, space), exact)
    yield scale(g, beta), mu, co_measure_quotient(gamma, beta)
    yield g, mu, co_measure_inverse(beta)

    player = rng.randrange(space.n_players)
    dup = DuplicationSpec(player, rng.choice(space.labels[player]), "x0",
                          lam=rng.choice(SPLIT_VALUES))
    extended = extend_duplicate(g, mu, gamma, dup)
    yield extended
    yield reduce_duplicate(*extended, player, "x0", dup.source)
    yield reduce_duplicate(*extended, player, dup.source, "x0")

    if max(space.sizes) >= 3:
        game_r, gamma_r, red = _redundant_instance(rng, g, exact)
        yield reduce_redundant(game_r, mu, gamma_r, red)


def test_transform_outputs_match_golden_digest():
    # Pins every transform's output, bit for bit, over 400 seeded instances;
    # a refactor of the transforms must leave this digest unchanged.
    digest = hashlib.sha256()
    count = 0
    for seed in range(400):
        for output in _transform_outputs(seed):
            digest.update(_fingerprint(*output))
            count += 1
    assert count == GOLDEN_COUNT
    assert digest.hexdigest() == GOLDEN_DIGEST


SERIALIZED_OUTPUTS_DIGEST = "071b2663c7597f3a3e692370188a767182218ca88a93dbbd7c1b13ac41fa3c59"


def test_transform_outputs_serialize_to_digest():
    # serialize_game alone over the same 400 seeded instances, exact on
    # half the seeds and float on the other half: spread nonstrategic
    # parts, mixed denominators and generators, pinned byte for byte
    digest = hashlib.sha256()
    for seed in range(400):
        for output in _transform_outputs(seed):
            digest.update(serialize_game(GameDocument(*output)).encode() + b"\0")
    assert digest.hexdigest() == SERIALIZED_OUTPUTS_DIGEST


# -- public behaviour of the parameter types ---------------------------------------------


def _opp_rows(space, gen):
    """gamma^i of the product co-measure generated by ``gen``, row-major."""
    return [
        [math.prod(c) for c in itertools.product(*(gen[j] for j in space.players if j != i))]
        for i in space.players
    ]


def _first_opp_index(space, i, j, k):
    """Row-major index in gamma^i of the first entry with player j at k."""
    opp = [m for p, m in enumerate(space.sizes) if p != i]
    axis = space.axis_in_opp(i, j)
    return k * math.prod(opp[axis + 1:])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(2, 3), min_size=2, max_size=3),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_parameter_storage_keeps_its_public_behaviour(sizes, seed, exact):
    # MeasureVector, CoMeasureVector and MixedProfile, from every constructor,
    # read their tensors as the eagerly converted ones, neither keep nor
    # freeze the arrays a class constructor is given, compare by value
    # whatever denominator they are stored over, refuse bad entries with the
    # same texts, and keep or drop a generator as each parameter transform
    # always has
    rng = random.Random(seed)
    space = StrategySpace(tuple(tuple("abc"[:m]) for m in sizes))
    scalar = F if exact else float

    def draw(count):
        return [scalar(F(rng.randint(1, 9), rng.choice([1, 2, 3]))) for _ in range(count)]

    def reads(arrays, rows):
        assert len(arrays) == len(rows)
        for arr, row in zip(arrays, rows):
            assert not arr.flags.writeable
            assert arr.reshape(-1).tolist() == row
            assert all(type(v) is scalar for v in arr.reshape(-1).tolist())

    def overwrite(given):
        """A write to each array given to a class constructor, after which the
        arrays stay writeable; neither the object's view nor == may see it."""
        for arr in given:
            assert arr.flags.writeable
            arr[(0,) * arr.ndim] *= 2

    def over_more(obj):
        """obj stored over twice its denominators (exact mode only)."""
        doubled = [_Shared(2 * x.num, 2 * x.den) for x in obj._shared]
        return type(obj)._with_shared(obj.space, doubled)

    def refuses(build, text):
        with pytest.raises(ValidationError, match=f"^{re.escape(text)}$"):
            build()

    # -- measures
    weights = [draw(m) for m in space.sizes]
    mu = MeasureVector.from_weights(space, weights, exact)
    reads(mu.weights, weights)
    assert mu.exact is exact
    assert [mu.total(i) for i in space.players] == [sum(row) for row in weights]
    given_weights = tuple(w.copy() for w in mu.weights)
    built = MeasureVector(space, given_weights)
    overwrite(given_weights)
    reads(built.weights, weights)
    assert built == mu
    if exact:
        assert over_more(mu) == mu and mu == over_more(mu)
        reads(over_more(mu).weights, weights)
        assert [over_more(mu).total(i) for i in space.players] == [sum(r) for r in weights]
    reads(MeasureVector.uniform(space, 2, exact).weights, [[scalar(2)] * m for m in sizes])
    reads(MeasureVector.uniform(space, exact=exact).weights, [[scalar(1)] * m for m in sizes])
    assert mu.scaled(2).scaled(scalar(F(1, 2))) == mu and mu.scaled(3) != mu

    i, k = rng.randrange(len(sizes)), rng.randrange(min(sizes))
    bad = scalar(rng.choice([F(0), F(-1), F(-1, 2)]))
    rows = [list(row) for row in weights]
    rows[i][k] = bad
    text = f"nonpositive measure: mu^{i + 1}({space.labels[i][k]}) = {bad}"
    refuses(lambda: MeasureVector.from_weights(space, rows, exact), text)
    arrays = tuple(np.array(row, dtype=object if exact else float) for row in rows)
    refuses(lambda: MeasureVector(space, arrays), text)
    refuses(lambda: mu.scaled(0), f"nonpositive measure: mu^1(a) = {scalar(0)}")
    refuses(lambda: mu.scaled(-1), f"nonpositive measure: mu^1(a) = {-weights[0][0]}")

    # -- co-measures
    gen = [draw(m) for m in space.sizes]
    product = CoMeasureVector.from_generator(space, gen, exact)
    reads(product.generator, gen)
    reads(product.tensors, _opp_rows(space, gen))
    given_tensors = tuple(t.copy() for t in product.tensors)
    given_gen = tuple(c.copy() for c in product.generator)
    built = CoMeasureVector(space, given_tensors, given_gen)
    overwrite(given_tensors + given_gen)
    reads(built.tensors, _opp_rows(space, gen))
    reads(built.generator, gen)
    assert built == product
    tensors = [draw(space.num_opp_profiles(j)) for j in space.players]
    gamma = CoMeasureVector.from_tensors(space, tensors, exact)
    reads(gamma.tensors, tensors)
    assert (gamma.generator is None) == any(v != 1 for row in tensors for v in row)
    assert CoMeasureVector(space, gamma.tensors).generator is None
    unit = CoMeasureVector.uniform(space, exact=exact)
    reads(unit.generator, [[scalar(1)] * m for m in sizes])
    reads(unit.tensors, [[scalar(1)] * space.num_opp_profiles(j) for j in space.players])
    assert CoMeasureVector.from_tensors(space, [t.tolist() for t in unit.tensors], exact) == unit
    threes = CoMeasureVector.uniform(space, 3, exact)
    assert threes.generator is None
    reads(threes.tensors, [[scalar(3)] * space.num_opp_profiles(j) for j in space.players])
    assert gamma.scaled(scalar(F(1, 3))).scaled(3) == gamma and gamma.scaled(2) != gamma
    if exact:
        assert over_more(gamma) == gamma and over_more(product) == product
        reads(over_more(gamma).tensors, tensors)

    j = rng.randrange(len(sizes))
    k = rng.randrange(space.num_opp_profiles(j))
    rows = [list(row) for row in tensors]
    rows[j][k] = bad
    text = f"nonpositive co-measure: gamma^{j + 1} entry {k} = {bad}"
    refuses(lambda: CoMeasureVector.from_tensors(space, rows, exact), text)
    refuses(lambda: gamma.scaled(0), f"nonpositive co-measure: gamma^1 entry 0 = {scalar(0)}")
    rows = [list(row) for row in gen]
    rows[j][0] = scalar(0)
    first = 1 if j == 0 else 0
    text = (
        f"nonpositive co-measure: gamma^{first + 1} entry "
        f"{_first_opp_index(space, first, j, 0)} = {scalar(0)}"
    )
    refuses(lambda: CoMeasureVector.from_generator(space, rows, exact), text)

    # -- which parameter transforms keep a generator
    beta = CoMeasureVector.from_generator(space, [draw(m) for m in sizes], exact)
    game = Game.zeros(space, exact)
    p = rng.randrange(len(sizes))
    sigma = list(range(sizes[p]))
    rng.shuffle(sigma)
    dup = DuplicationSpec(p, space.labels[p][0], "x0", lam=F(1, 3))
    for c in (product, gamma):
        has = c.generator is not None
        c_gen = [row.tolist() for row in c.generator] if has else None
        results = {
            "scaled": (c.scaled(2), None),
            "permute_params": (
                permute_params(mu, c, PermutationSpec(p, tuple(sigma)))[1],
                has and [[row[s] for s in sigma] if q == p else row for q, row in enumerate(c_gen)],
            ),
            "extend_duplicate": (
                extend_duplicate(game, mu, c, dup)[2],
                has and [[row[0], *row] if q == p else row for q, row in enumerate(c_gen)],
            ),
            "co_measure_quotient": (
                co_measure_quotient(c, beta),
                has and [
                    [a / b for a, b in zip(ra, rb.tolist())]
                    for ra, rb in zip(c_gen, beta.generator)
                ],
            ),
            "co_measure_inverse": (
                co_measure_inverse(c),
                has and [[1 / a for a in row] for row in c_gen],
            ),
        }
        for name, (result, want) in results.items():
            if not want:
                assert result.generator is None, name
                continue
            reads(result.generator, want)
            assert CoMeasureVector.from_generator(result.space, want, exact) == result, name
    quotient_tensors = co_measure_quotient(gamma, beta).tensors
    reads(quotient_tensors, [
        [a / b for a, b in zip(ta.reshape(-1).tolist(), tb.reshape(-1).tolist())]
        for ta, tb in zip(gamma.tensors, beta.tensors)
    ])
    game_e, mu_e, gamma_e = extend_duplicate(game, mu, product, dup)
    game_r, mu_r, gamma_r = reduce_duplicate(game_e, mu_e, gamma_e, p, "x0", dup.source)
    assert game_r == game and mu_r == mu and gamma_r == product
    assert gamma_r.generator is not None

    # -- mixed profiles
    raw = [[F(rng.randint(1, 9)) for _ in range(m)] for m in sizes]
    probs = [[scalar(w / sum(row)) for w in row] for row in raw]
    x = MixedProfile.from_probs(space, probs, exact)
    reads(x.probs, probs)
    given_probs = tuple(q.copy() for q in x.probs)
    built = MixedProfile(space, given_probs)
    overwrite(given_probs)
    reads(built.probs, probs)
    assert built == x
    if exact:
        assert over_more(x) == x
        reads(over_more(x).probs, probs)
    reads(MixedProfile.uniform(space, exact).probs, [[scalar(F(1, m))] * m for m in sizes])
    pure = tuple(rng.randrange(m) for m in sizes)
    reads(
        MixedProfile.pure(space, pure, exact).probs,
        [[scalar(int(j == k)) for j in range(m)] for k, m in zip(pure, sizes)],
    )
    positive = [[scalar(w) for w in row] for row in raw]
    reads(
        MixedProfile.from_positive_weights(space, positive, exact).probs,
        [[w / sum(row) for w in row] for row in positive],
    )
    rows = [list(row) for row in probs]
    rows[i] = [scalar(F(3, 2)), scalar(F(-1, 2)), *[scalar(0)] * (sizes[i] - 2)]
    refuses(lambda: MixedProfile.from_probs(space, rows, exact),
            f"negative probability for player {i + 1}")
    rows[i] = [2 * v for v in probs[i]]
    refuses(lambda: MixedProfile.from_probs(space, rows, exact),
            f"probabilities of player {i + 1} sum to {sum(rows[i])}, not 1")

    for obj, field in ((mu, "weights"), (gamma, "tensors"), (gamma, "generator"), (x, "probs")):
        with pytest.raises(AttributeError):
            setattr(obj, field, getattr(obj, field))
        with pytest.raises(AttributeError):
            obj.space = space


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_co_measure_refuses_a_generator_that_does_not_generate_its_tensors(
    matching_pennies, exact
):
    # serialize_game wrote the generator, so d^2 was 36 for such an object and
    # 25 for the document parsed back; harmonic_equilibrium read the
    # generator while decompose read the tensors
    space = matching_pennies.space

    def vec(*row):
        values = [F(v) if exact else float(v) for v in row]
        return np.array(values, dtype=object if exact else float)

    with pytest.raises(
        ValidationError,
        match=r"^the generator does not generate gamma\^1: it differs from the product "
        r"of the other players' generator vectors$",
    ):
        CoMeasureVector(space, (vec(1, 3), vec(1, 1)), (vec(2, 1), vec(1, 1)))
    kept = CoMeasureVector(space, (vec(1, 1), vec(2, 1)), (vec(2, 1), vec(1, 1)))
    assert kept == CoMeasureVector.from_generator(space, [[2, 1], [1, 1]], exact)
    assert [c.tolist() for c in kept.generator] == [[2, 1], [1, 1]]
