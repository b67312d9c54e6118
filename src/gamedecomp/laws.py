"""Seeded randomized verification of the decomposition and commutation laws.

Each law draws its instances from a deterministic per-trial RNG, so a failure
replays exactly from (law, seed, trial).  Payoffs are integers in [-9, 9] and
parameters come from {1/3, 1/2, 1, 2, 3}, which keeps every check rational and
the suites reproducible across runs.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError
from .games import CoMeasureVector, Game, MeasureVector, MixedProfile, shared_payoffs
from .gamedoc import GameDocument, serialize_game
from .decomposition import (
    decompose,
    is_gamma_potential,
    is_harmonic,
    is_mu_normalized,
    is_nonstrategic,
)
from .equilibrium import best_response_epsilon, harmonic_equilibrium, pure_regret
from .numeric import _Shared, _object_array, axis_contract, insert_axis, scalar_array
from .spaces import StrategySpace
from .transforms import (
    DuplicationSpec,
    PermutationSpec,
    RedundancySpec,
    _take_game,
    _take_params,
    co_measure_quotient,
    extend_duplicate,
    permute,
    permute_params,
    reduce_duplicate,
    reduce_redundant,
    scale,
    translate_nonstrategic,
)

PARAM_VALUES = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)]
SPLIT_VALUES = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)]
_LABELS = string.ascii_lowercase


@dataclass
class LawReport:
    law: str
    trials: int
    seed: int
    ok: bool
    failed_trial: int | None = None
    message: str | None = None
    counterexample: str | None = None


def random_space(rng: random.Random, players: tuple[int, int], strategies: tuple[int, int]) -> StrategySpace:
    n = rng.randint(*players)
    sizes = [rng.randint(*strategies) for _ in range(n)]
    return StrategySpace(tuple(tuple(_LABELS[:m]) for m in sizes))


def random_game(rng: random.Random, space: StrategySpace) -> Game:
    """Integer payoffs in [-9, 9], built as numerators over 1."""
    size = space.num_profiles
    return Game._with_shared(space, (
        _Shared(_object_array([rng.randint(-9, 9) for _ in range(size)], space.sizes), 1)
        for _ in space.players
    ))


def random_mu(rng: random.Random, space: StrategySpace) -> MeasureVector:
    return MeasureVector.from_weights(
        space, [[rng.choice(PARAM_VALUES) for _ in range(m)] for m in space.sizes]
    )


def random_gamma(rng: random.Random, space: StrategySpace) -> CoMeasureVector:
    return CoMeasureVector.from_tensors(
        space,
        [
            [rng.choice(PARAM_VALUES) for _ in range(space.num_opp_profiles(i))]
            for i in space.players
        ],
    )


def random_product_gamma(rng: random.Random, space: StrategySpace) -> CoMeasureVector:
    return CoMeasureVector.from_generator(
        space, [[rng.choice(PARAM_VALUES) for _ in range(m)] for m in space.sizes]
    )


def random_nonstrategic(rng: random.Random, space: StrategySpace) -> Game:
    """Integer payoffs in [-9, 9] that ignore the player's own strategy,
    built as a broadcast view of numerators over 1."""
    payoffs = []
    for i in space.players:
        flat = [rng.randint(-9, 9) for _ in range(space.num_opp_profiles(i))]
        opp = insert_axis(_object_array(flat, space.opp_sizes(i)), i)
        payoffs.append(_Shared(np.broadcast_to(opp, space.sizes), 1))
    return Game._with_shared(space, payoffs)


# -- individual law checks -------------------------------------------------------
# Each returns None on success or a violation message.  ``aux`` is a fresh
# Random seeded per trial, so re-running a check replays its extra draws.


def _commutes(source, target, carry, message):
    """None if carry(part of decompose(*source)) == the same part of
    decompose(*target) for every component, else ``message`` formatted with
    the first component's name."""
    names = ("nonstrategic", "potential", "harmonic")
    pairs = zip(decompose(*source).components(), decompose(*target).components())
    for name, (a, b) in zip(names, pairs):
        if carry(a) != b:
            return message.format(name)
    return None


def _check_orthogonality(g, mu, gamma, aux):
    parts = decompose(g, mu, gamma)
    pairs = [
        ("nonstrategic", "potential", parts.nonstrategic, parts.potential),
        ("nonstrategic", "harmonic", parts.nonstrategic, parts.harmonic),
        ("potential", "harmonic", parts.potential, parts.harmonic),
    ]
    for name_a, name_b, a, b in pairs:
        ip = parts.inner_product(a, b)
        if ip != 0:
            return f"<{name_a}, {name_b}>_(mu,gamma) = {ip}, expected 0"
    return None


def _check_reconstruction(g, mu, gamma, aux):
    parts = decompose(g, mu, gamma)
    if not parts.reconstructs(g):
        return "components do not sum back to the game"
    if not is_nonstrategic(parts.nonstrategic):
        return "nonstrategic component fails is_nonstrategic"
    if not is_mu_normalized(parts.potential, mu):
        return "potential component is not mu-normalized"
    if not is_mu_normalized(parts.harmonic, mu):
        return "harmonic component is not mu-normalized"
    if not is_gamma_potential(parts.potential, gamma):
        return "potential component fails is_gamma_potential"
    if not is_harmonic(parts.harmonic, mu, gamma):
        return "harmonic component fails is_harmonic"
    return None


def _check_param_equivalence(g, mu, gamma, aux):
    eta = aux.choice(PARAM_VALUES)
    theta = aux.choice(PARAM_VALUES)
    return _commutes(
        (g, mu, gamma), (g, mu.scaled(eta), gamma.scaled(theta)), lambda c: c,
        "{} component changed under (eta mu, theta gamma)",
    )


def _check_permute(g, mu, gamma, aux):
    player = aux.randrange(g.space.n_players)
    sigma = list(range(g.space.sizes[player]))
    aux.shuffle(sigma)
    spec = PermutationSpec(player, tuple(sigma))
    return _commutes(
        (g, mu, gamma), (permute(g, spec), *permute_params(mu, gamma, spec)),
        lambda c: permute(c, spec),
        "permutation does not commute on the {} component",
    )


def _check_translate(g, mu, gamma, aux):
    ns = random_nonstrategic(aux, g.space)
    base = decompose(g, mu, gamma)
    shifted = decompose(translate_nonstrategic(g, ns), mu, gamma)
    if shifted.nonstrategic != base.nonstrategic + ns:
        return "nonstrategic component did not shift by the translation"
    if shifted.potential != base.potential:
        return "potential component moved under a pseudo-translation"
    if shifted.harmonic != base.harmonic:
        return "harmonic component moved under a pseudo-translation"
    return None


def _check_scale(g, mu, gamma, aux):
    beta = random_gamma(aux, g.space)
    return _commutes(
        (g, mu, gamma), (scale(g, beta), mu, co_measure_quotient(gamma, beta)),
        lambda c: scale(c, beta),
        "scaling does not commute on the {} component",
    )


def _duplication_spec(aux, space) -> DuplicationSpec:
    player = aux.randrange(space.n_players)
    source = aux.choice(space.labels[player])
    return DuplicationSpec(player, source, "x0", lam=aux.choice(SPLIT_VALUES))


def _check_extend(g, mu, gamma, aux):
    spec = _duplication_spec(aux, g.space)
    return _commutes(
        (g, mu, gamma), extend_duplicate(g, mu, gamma, spec),
        lambda c: extend_duplicate(c, mu, gamma, spec)[0],
        "duplication does not commute on the {} component",
    )


def _check_reduce(g, mu, gamma, aux):
    spec = _duplication_spec(aux, g.space)
    extended, mu_e, gamma_e = extend_duplicate(g, mu, gamma, spec)

    def shrink(game):
        return reduce_duplicate(game, mu_e, gamma_e, spec.player, spec.new_label, spec.source)

    reduced, mu_r, gamma_r = shrink(extended)
    if reduced != g or mu_r != mu or gamma_r != gamma:
        return "reduce is not the right-inverse of extend"
    return _commutes(
        (extended, mu_e, gamma_e), (g, mu, gamma), lambda c: shrink(c)[0],
        "reduction does not commute on the {} component",
    )


def _check_redundant(g, mu, gamma, aux):
    space = g.space
    candidates = [i for i in space.players if space.sizes[i] >= 3]
    if not candidates:
        return None  # nothing to remove on a 2x...x2 space
    player = aux.choice(candidates)
    p0 = aux.randrange(space.sizes[player])
    raw = [aux.choice(PARAM_VALUES) for _ in range(space.sizes[player] - 1)]
    total = sum(raw, Fraction(0))
    alpha = tuple(a / total for a in raw)

    # replace the removable slice by the alpha mixture, for all players, on
    # numerators over the denominators of g^j and alpha
    shares = _Shared.of(scalar_array(alpha, (len(alpha),)))
    payoffs = []
    for x in shared_payoffs(g):
        kept = np.delete(x.num, p0, axis=player)
        mix = axis_contract(kept, shares.num, player)
        num = np.insert(kept * shares.den, p0, mix, axis=player)
        payoffs.append(_Shared(num, x.den * shares.den))
    redundant_game = Game._with_shared(space, payoffs)

    # uniform in each player's gamma; constants may differ across players
    gamma_u = CoMeasureVector.from_tensors(
        space,
        [
            [aux.choice(PARAM_VALUES)] * space.num_opp_profiles(j)
            for j in space.players
        ],
    )
    spec = RedundancySpec(player, space.labels[player][p0], alpha)

    return _commutes(
        (redundant_game, mu, gamma_u), reduce_redundant(redundant_game, mu, gamma_u, spec),
        lambda c: reduce_redundant(c, mu, gamma_u, spec)[0],
        "redundancy reduction does not commute on the {} component",
    )


def _check_harmonic_eq(g, mu, gamma, aux):
    harmonic = decompose(g, mu, gamma).harmonic
    profile = MixedProfile.from_positive_weights(
        g.space, [mu.weights[i].tolist() for i in g.space.players]
    )
    eps = best_response_epsilon(scale(harmonic, gamma), profile)
    if eps != 0:
        return f"normalized mu is not an equilibrium of gamma.g_Har (eps = {eps})"

    gamma_p = random_product_gamma(aux, g.space)
    harmonic_p = decompose(g, mu, gamma_p).harmonic
    try:
        harmonic_equilibrium(harmonic_p, mu, gamma_p)
    except Exception as exc:  # noqa: BLE001 - report any failure as a violation
        return f"harmonic_equilibrium rejected a harmonic component: {exc}"
    return None


def _check_epsilon_bound(g, mu, gamma, aux):
    parts = decompose(g, mu, gamma)
    closest, _ = parts.closest_potential()
    bound_sq = parts.epsilon_bound()
    regret = pure_regret(g)
    failing = (pure_regret(closest) == 0) & (regret * regret > bound_sq)
    if not failing.any():
        return None
    profile = g.space.profile(int(np.argmax(failing)))
    eps = regret[profile]
    return (
        f"pure equilibrium {g.space.profile_labels(profile)} of the closest "
        f"potential game has eps^2 = {eps * eps} > B^2 = {bound_sq}"
    )


LAWS = {
    "orthogonality": _check_orthogonality,
    "reconstruction": _check_reconstruction,
    "param-equivalence": _check_param_equivalence,
    "permute": _check_permute,
    "translate": _check_translate,
    "scale": _check_scale,
    "extend": _check_extend,
    "reduce": _check_reduce,
    "redundant": _check_redundant,
    "harmonic-eq": _check_harmonic_eq,
    "epsilon-bound": _check_epsilon_bound,
}


def run_law(
    law: str,
    trials: int,
    seed: int,
    players: tuple[int, int] = (2, 3),
    strategies: tuple[int, int] = (2, 4),
) -> LawReport:
    if trials < 1:
        raise ValidationError(f"trials must be at least 1, got {trials}")
    if players[1] < 2:
        raise ValidationError(f"max player count must be at least 2, got {players[1]}")
    if not 2 <= strategies[1] <= len(_LABELS):
        raise ValidationError(
            f"max strategies per player must be from 2 to {len(_LABELS)} "
            f"(labels a-z), got {strategies[1]}"
        )
    check = LAWS[law]
    for trial in range(trials):
        rng = random.Random(f"{seed}:{trial}")
        space = random_space(rng, players, strategies)
        if law == "redundant" and max(space.sizes) < 3:
            # guarantee a removable strategy
            sizes = list(space.sizes)
            sizes[rng.randrange(len(sizes))] = 3
            space = StrategySpace(tuple(tuple(_LABELS[:m]) for m in sizes))
        g = random_game(rng, space)
        mu = random_mu(rng, space)
        gamma = random_gamma(rng, space)
        aux_seed = f"{seed}:{trial}:aux"
        message = check(g, mu, gamma, random.Random(aux_seed))
        if message is not None:
            minimized = _minimize(check, g, mu, gamma, aux_seed)
            doc = serialize_game(
                GameDocument(*minimized),
                comment=f"counterexample: law={law} seed={seed} trial={trial}",
            )
            return LawReport(
                law, trials, seed, ok=False,
                failed_trial=trial, message=message, counterexample=doc,
            )
    return LawReport(law, trials, seed, ok=True)


def _minimize(check, g, mu, gamma, aux_seed):
    """Shrink a counterexample: greedy payoff zeroing, then strategy deletion."""

    def still_fails(candidate):
        game, mv, cv = candidate
        try:
            return check(game, mv, cv, random.Random(aux_seed)) is not None
        except Exception:  # noqa: BLE001 - shrunk aux draws may go out of range
            return False

    current = (g, mu, gamma)
    changed = True
    while changed:
        changed = False
        game, mv, cv = current
        for j in game.space.players:
            flat = game.flat(j)
            for pos, value in enumerate(flat):
                if value == 0:
                    continue
                new_flat = list(flat)
                new_flat[pos] = Fraction(0)
                payoffs = [game.flat(k) if k != j else new_flat for k in game.space.players]
                candidate = (Game.from_payoffs(game.space, payoffs), mv, cv)
                if still_fails(candidate):
                    current = candidate
                    game, mv, cv = current
                    flat = game.flat(j)
                    changed = True
        for i in game.space.players:
            if game.space.sizes[i] <= 2:
                continue
            for pos in range(game.space.sizes[i]):
                candidate = _delete_strategy(game, mv, cv, i, pos)
                if still_fails(candidate):
                    current = candidate
                    game, mv, cv = current
                    changed = True
                    break
    return current


def _delete_strategy(game, mu, gamma, player, pos):
    space = game.space.delete_strategy(player, pos)
    idx = [k for k in range(game.space.sizes[player]) if k != pos]
    weights = np.take(mu.weights[player], idx)
    return (
        _take_game(game, space, player, idx),
        *_take_params(mu, gamma, space, player, idx, weights),
    )
