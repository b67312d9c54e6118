import hashlib
import random
from fractions import Fraction as F

import numpy as np
import pytest

from gamedecomp import (
    CoMeasureVector,
    DuplicationSpec,
    Game,
    GameDocument,
    MeasureVector,
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
from gamedecomp.numeric import axis_contract
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
