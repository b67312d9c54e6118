"""Parameter objects reused across decompositions.

A ``MeasureVector`` or ``CoMeasureVector`` is immutable, so whatever a
decomposition derives from it alone may be kept on it and read again by the
next decomposition with the same object.  These tests pin that such reuse
changes nothing: one mu and one gamma object decompose several games exactly
as equal objects built fresh for each game do, in both scalar modes, on the
law suite's parameters and on wide rationals, and exact phi is the dense
oracle's solution.  A count of function calls per exact decompose guards
the fixed cost that the plans save, and one of ``parse_game`` on the same
game's document the cost of reading its literals.
"""

import gc
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from gamedecomp import (
    CoMeasureVector, Game, GameDocument, MeasureVector, StrategySpace, decompose, parse_game,
    serialize_game,
)
from gamedecomp.games import _CoMeasurePlan, _MeasurePlan
from gamedecomp.laws import random_game, random_gamma, random_mu
from gamedecomp.operators import deviation_divergence
from oracles import solve_poisson_dense

DENSE_PROFILES = 27  # the dense oracle takes seconds past this


def _fingerprint(parts):
    """The parts and phi as nested lists: equal entries in exact mode, equal
    floats (bit for bit, apart from the sign of 0) in float mode."""
    tensors = [p for c in parts.components() for p in c.payoffs] + [parts.phi.values]
    return [t.tolist() for t in tensors]


def _params(rng, space, exact, wide):
    """Flat weights and co-measure entries: the law suite's draws, or wide
    rationals with numerators and denominators up to 10^3."""
    if wide:
        def draw(size):
            return [F(rng.randint(1, 10**3), rng.randint(1, 10**3)) for _ in range(size)]

        weights = [draw(m) for m in space.sizes]
        tensors = [draw(space.num_opp_profiles(i)) for i in space.players]
    else:
        mu, gamma = random_mu(rng, space), random_gamma(rng, space)
        weights = [w.tolist() for w in mu.weights]
        tensors = [t.reshape(-1).tolist() for t in gamma.tensors]
    if not exact:
        weights = [[float(v) for v in row] for row in weights]
        tensors = [[float(v) for v in row] for row in tensors]
    return weights, tensors


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(2, 4), min_size=2, max_size=4),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.booleans(),
)
def test_reused_parameters_decompose_as_fresh_ones(sizes, seed, exact, wide):
    wide = wide and exact
    rng = random.Random(seed)
    space = StrategySpace(tuple(tuple("abcd"[:m]) for m in sizes))
    weights, tensors = _params(rng, space, exact, wide)

    def fresh():
        return (
            MeasureVector.from_weights(space, weights, exact),
            CoMeasureVector.from_tensors(space, tensors, exact),
        )

    mu, gamma = fresh()
    games = []
    for _ in range(3):
        g = random_game(rng, space)
        if not exact:
            g = Game.from_payoffs(space, [g.flat(i) for i in space.players], exact=False)
        games.append(g)
    for g in games:
        reused = decompose(g, mu, gamma)
        assert _fingerprint(reused) == _fingerprint(decompose(g, *fresh()))
        if exact and space.num_profiles <= DENSE_PROFILES:
            assert reused.phi == solve_poisson_dense(deviation_divergence(g, mu, gamma), mu)


# -- the fixed cost of one exact decompose -------------------------------------

# Python and C function calls (sys.setprofile's call and c_call events) of
# one exact decompose with fresh mu and gamma, seeded law-suite draws; on
# 2^6 the game of tools/object_counts.py, which prints the count.  The
# decompose that read mu and gamma afresh on every call made 504, 686 and
# 1250, with a helper call per co-measure plan entry 363, 481 and 835, and
# with the nonstrategic part spread as an np.broadcast_to view 351, 463 and
# 799; a numpy call or helper added to a kernel shows here.
CALL_CAPS = {(2, 2): 329, (3, 3, 3): 427, (2,) * 6: 709}
PLAN_BUILDERS = {
    _MeasurePlan.__init__.__code__,
    _MeasurePlan.inverse_eigen.func.__code__,
    _CoMeasurePlan.__init__.__code__,
    _CoMeasurePlan.divisors.func.__code__,
}


def _calls(fn, *args):
    """(fn(*args), its call and c_call events, the code objects it ran).
    The garbage collector is off meanwhile: a collection would count the gc
    callbacks other code registers (hypothesis has one)."""
    count, codes = [0], set()

    def profile(frame, event, arg):
        if event in ("call", "c_call"):
            count[0] += 1
        if event == "call":
            codes.add(frame.f_code)

    saved, collecting = sys.getprofile(), gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(saved)
        if collecting:
            gc.enable()
    return result, count[0], codes


def seeded(sizes):
    """A seeded law-suite game on ``sizes`` with its mu and gamma."""
    rng = random.Random(21)
    space = StrategySpace(tuple(tuple("abcd"[:m]) for m in sizes))
    return random_game(rng, space), random_mu(rng, space), random_gamma(rng, space)


@pytest.mark.parametrize("sizes", CALL_CAPS, ids=["2x2", "3x3x3", "2^6"])
def test_exact_decompose_call_count(sizes):
    g, mu, gamma = seeded(sizes)
    first, calls, codes = _calls(decompose, g, mu, gamma)
    assert calls <= CALL_CAPS[sizes]
    assert PLAN_BUILDERS <= codes
    # the same mu and gamma objects again: their plans are read, not built
    again, reused_calls, codes = _calls(decompose, g, mu, gamma)
    assert not PLAN_BUILDERS & codes
    assert reused_calls < calls
    assert _fingerprint(again) == _fingerprint(first)


# Python and C function calls of parse_game on the document of the seeded
# 2^6 game in each scalar mode (tools/object_counts.py prints them).  Read
# through Fraction(text), the general string parser, each of its 588
# literals cost about 10 more: 13,641 (exact) and 13,886 (float).  Float
# mode divides the integer digits, int(p) / int(q), so it builds no
# Fraction; through float(Fraction(p, q)) each literal cost about 6 more
# (8,264), and reading mu and gamma through their views in
# validate_parameters 134 more (4,650).
PARSE_CALL_CAPS = {True: 8013, False: 4516}


@pytest.mark.parametrize("exact", PARSE_CALL_CAPS, ids=["exact", "float"])
def test_parse_game_call_count(exact):
    g, mu, gamma = seeded((2,) * 6)
    doc, calls, _ = _calls(parse_game, serialize_game(GameDocument(g, mu, gamma)), exact)
    assert calls <= PARSE_CALL_CAPS[exact]
    if exact:
        assert (doc.game, doc.mu, doc.gamma) == (g, mu, gamma)
    else:
        assert doc.game.flat(0) == [float(v) for v in g.flat(0)]
