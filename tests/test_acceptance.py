"""Acceptance suite: every criterion at its stated tolerance and trial count.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  All game-valued checks are exact rational comparisons; only
criterion 7 (the float least-squares oracle) uses a tolerance, 1e-9.
"""

import random
import time
from fractions import Fraction as F

import numpy as np

from gamedecomp import (
    CoMeasureVector,
    MeasureVector,
    MixedProfile,
    best_response_epsilon,
    co_measure_quotient,
    decompose,
    harmonic_equilibrium,
    is_gamma_potential,
    is_harmonic,
    map_equilibrium_under_scaling,
    reduce_duplicate,
    scale,
)
from gamedecomp.operators import deviation_divergence, solve_poisson
from gamedecomp.laws import (
    random_game,
    random_gamma,
    random_mu,
    random_space,
    run_law,
)
from conftest import load_fixture
from oracles import least_squares_phi

SEED = 20240831


def _report(criterion: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion}: PASS{suffix}")


def test_criterion_1_table_reproduction():
    started = time.perf_counter()

    dup = load_fixture("mp-dup.game")
    parts = decompose(dup.game, dup.mu, dup.gamma)
    assert parts.potential.flat(0)[:2] == [F(4, 15), F(-4, 15)]
    assert parts.potential.flat(1)[:2] == [F(3, 5), F(-3, 5)]
    assert parts.harmonic.flat(0)[:2] == [F(16, 15), F(-16, 15)]
    assert parts.harmonic.flat(1)[:2] == [F(-8, 5), F(8, 5)]
    assert parts.nonstrategic.flat(0) == [F(-1, 3), F(1, 3)] * 3
    assert parts.nonstrategic.flat(1) == [F(0)] * 6
    assert parts.potential.flat(0)[2:] == [F(-2, 15), F(2, 15)] * 2
    assert parts.harmonic.flat(0)[2:] == [F(-8, 15), F(8, 15)] * 2

    doubled = load_fixture("mp-doubled.game")
    parts = decompose(doubled.game, doubled.mu, doubled.gamma)
    assert parts.potential.flat(0) == [F(1, 2), F(-1, 2), F(-1, 2), F(1, 2)]
    assert parts.potential.flat(1) == [F(1, 2), F(-1, 2), F(-1, 2), F(1, 2)]
    assert parts.harmonic.flat(0) == [F(3, 2), F(-3, 2), F(-3, 2), F(3, 2)]
    assert parts.harmonic.flat(1) == [F(-3, 2), F(3, 2), F(3, 2), F(-3, 2)]

    bar = load_fixture("mp-col-scaled.game")
    parts = decompose(bar.game, bar.mu, bar.gamma)
    assert parts.potential.flat(0) == [F(3, 4), F(1, 4), F(-3, 4), F(-1, 4)]
    assert parts.potential.flat(1) == [F(1, 4), F(-1, 4), F(-1, 4), F(1, 4)]
    assert parts.harmonic.flat(0) == [F(5, 4), F(-5, 4), F(-5, 4), F(5, 4)]
    assert parts.harmonic.flat(1) == [F(-5, 4), F(5, 4), F(5, 4), F(-5, 4)]

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report("1 table-reproduction", f"{elapsed * 1000:.0f} ms, exact")


def test_criterion_2_depend_end_to_end():
    doc = load_fixture("depend.game")
    parts = decompose(doc.game, doc.mu, doc.gamma)
    assert parts.potential.flat(0) == [F(2), F(-1), F(-2), F(1)]
    assert parts.potential.flat(1) == [F(1), F(-1), F(-2), F(2)]
    assert parts.harmonic.flat(0) == [F(2), F(-2), F(-2), F(2)]
    assert parts.harmonic.flat(1) == [F(-2), F(2), F(2), F(-2)]
    assert parts.nonstrategic.is_zero()

    beta_gen = [[1, 3], [2, 1]]
    beta = CoMeasureVector.from_generator(doc.space, beta_gen)
    scaled = scale(doc.game, beta)
    assert scaled.flat(0) == [F(8), F(-3), F(-8), F(3)]
    assert scaled.flat(1) == [F(-1), F(1), F(0), F(0)]

    tilde = co_measure_quotient(doc.gamma, beta)
    assert tilde.generator[0].tolist() == [F(1), F(1, 3)]
    assert tilde.generator[1].tolist() == [F(1, 2), F(1)]
    assert is_gamma_potential(scale(parts.potential, beta), tilde)
    assert is_harmonic(scale(parts.harmonic, beta), doc.mu, tilde)

    pot_eq = MixedProfile.from_probs(
        doc.space, [[F(2, 3), F(1, 3)], [F(1, 3), F(2, 3)]]
    )
    assert best_response_epsilon(parts.potential, pot_eq) == 0
    mapped = map_equilibrium_under_scaling(pot_eq, beta_gen)
    assert mapped.probs[0].tolist() == [F(6, 7), F(1, 7)]
    assert mapped.probs[1].tolist() == [F(1, 5), F(4, 5)]
    assert best_response_epsilon(scale(parts.potential, beta), mapped) == 0

    har_eq = MixedProfile.uniform(doc.space)
    assert best_response_epsilon(parts.harmonic, har_eq) == 0
    mapped = map_equilibrium_under_scaling(har_eq, beta_gen)
    assert mapped.probs[0].tolist() == [F(3, 4), F(1, 4)]
    # player 2's mapped vector is (1/3, 2/3): dividing the uniform mix by
    # b^2 = (2, 1) and renormalizing; a direct indifference computation on the
    # scaled harmonic game forces the same x^2, so (2/3, 1/3) cannot verify
    assert mapped.probs[1].tolist() == [F(1, 3), F(2, 3)]
    assert best_response_epsilon(scale(parts.harmonic, beta), mapped) == 0
    _report("2 depend-end-to-end", "exact")


def test_criterion_3_multi_chain():
    doc = load_fixture("multi.game")
    assert is_harmonic(doc.game, doc.mu, doc.gamma)

    reduced, mu_r, gamma_r = reduce_duplicate(doc.game, doc.mu, doc.gamma, 0, "s0", "s1")
    assert reduced.flat(0) == [F(2), F(-1), F(-1), F(-4), F(2), F(2)]
    assert reduced.flat(1) == [F(-2), F(1), F(1), F(4), F(-2), F(-2)]
    assert mu_r.weights[0].tolist() == [2, 1]
    assert is_harmonic(reduced, mu_r, gamma_r)

    final, mu_f, gamma_f = reduce_duplicate(reduced, mu_r, gamma_r, 1, "t0", "t1")
    assert final.flat(0) == [F(2), F(-1), F(-4), F(2)]
    assert mu_f.weights[1].tolist() == [1, 2]
    assert is_harmonic(final, mu_f, gamma_f)

    profile = harmonic_equilibrium(reduced, mu_r, gamma_r)
    assert profile.probs[0].tolist() == [F(2, 3), F(1, 3)]
    assert profile.probs[1].tolist() == [F(1, 3), F(1, 3), F(1, 3)]
    assert best_response_epsilon(reduced, profile) == 0
    _report("3 multi-chain", "exact")


def test_criterion_4_law_suites():
    started = time.perf_counter()
    suites = {
        "reconstruction": 500,  # component identities checked at depth
        "orthogonality": 500,
        "param-equivalence": 100,
        "permute": 100,
        "translate": 100,
        "scale": 100,
        "extend": 100,
        "reduce": 100,
        "redundant": 100,
    }
    for law, trials in suites.items():
        report = run_law(law, trials=trials, seed=SEED)
        assert report.ok, f"{law} failed: {report.message}\n{report.counterexample}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report("4 law-suites", f"9 suites, 1700 trials total, exact, {elapsed:.1f} s")


def test_criterion_5_equilibrium_theorems():
    report = run_law("harmonic-eq", trials=300, seed=SEED)
    assert report.ok, f"harmonic-eq failed: {report.message}"
    _report("5 equilibrium-theorems", "300 instances, eps = 0 exact")


def test_criterion_6_epsilon_bound():
    report = run_law("epsilon-bound", trials=100, seed=SEED)
    assert report.ok, f"epsilon-bound failed: {report.message}"
    _report("6 epsilon-bound", "100 instances, exact rational comparison")


def test_criterion_7_poisson_oracle_agreement():
    rng = random.Random(SEED)
    worst = 0.0
    for _ in range(100):
        space = random_space(rng, (2, 3), (2, 4))
        g = random_game(rng, space)
        mu, gamma = random_mu(rng, space), random_gamma(rng, space)
        phi = solve_poisson(deviation_divergence(g, mu, gamma), mu)
        expected = least_squares_phi(g, mu, gamma)
        actual = np.array([float(v) for v in phi.flat()])
        worst = max(worst, float(np.max(np.abs(actual - expected))))
    assert worst <= 1e-9
    _report("7 poisson-oracle", f"100 instances, max deviation {worst:.2e}")


def test_criterion_8_noncontinuity_fixture():
    doc = load_fixture("noncontinuous.game")
    parts = decompose(doc.game, doc.mu, doc.gamma)
    eps = F(1, 10)
    normalized = parts.potential + parts.harmonic
    assert normalized.flat(0) == [
        (4 - eps) / 3, -(4 - eps) / 3,
        -(2 + eps) / 3, (2 + eps) / 3,
        -2 * (1 - eps) / 3, 2 * (1 - eps) / 3,
    ]
    assert normalized.flat(1) == [F(-1), F(1), F(1), F(-1), 1 - eps, -(1 - eps)]
    assert parts.nonstrategic.flat(0) == [-(1 - eps) / 3, (1 - eps) / 3] * 3
    assert parts.nonstrategic.flat(1) == [F(0)] * 6
    _report("8 noncontinuity-fixture", "exact at eps = 1/10")
