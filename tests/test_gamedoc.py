from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from gamedecomp import (
    CoMeasureVector,
    Game,
    GameDocument,
    MeasureVector,
    MixedProfile,
    ParseError,
    StrategySpace,
    parse_game,
    serialize_game,
)
from conftest import FIXTURES, load_fixture

MINIMAL = """\
gamedoc 1
players 2
strategies 1: s t
strategies 2: s t
payoffs 1: 1 -1 -1 1
payoffs 2: -1 1 1 -1
"""


def test_minimal_document_defaults_to_uniform_parameters():
    doc = parse_game(MINIMAL)
    assert doc.game.flat(0) == [F(1), F(-1), F(-1), F(1)]
    assert all(w == 1 for vec in doc.mu.weights for w in vec.tolist())
    assert all(v == 1 for t in doc.gamma.tensors for v in t.reshape(-1).tolist())
    assert doc.profiles == {}


def test_rational_literal_parses_exactly():
    doc = parse_game(MINIMAL.replace("payoffs 1: 1 -1 -1 1", "payoffs 1: 4/15 -1 -1 1"))
    assert doc.game.flat(0)[0] == F(4, 15)


def test_roundtrip_stability_on_all_fixtures():
    for path in sorted(FIXTURES.glob("*.game")):
        doc = parse_game(path.read_text())
        text = serialize_game(doc)
        again = parse_game(text)
        assert again.game == doc.game
        assert again.mu == doc.mu
        assert again.gamma == doc.gamma
        assert set(again.profiles) == set(doc.profiles)
        for name in doc.profiles:
            assert again.profiles[name] == doc.profiles[name]
        # canonical text is a fixed point
        assert serialize_game(again) == text


def test_generator_block_roundtrip():
    doc = load_fixture("two-transformations.game")
    assert doc.gamma.generator is not None
    text = serialize_game(doc)
    assert "generator 1:" in text
    assert parse_game(text).gamma.generator is not None


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda t: t.replace("payoffs 1: 1 -1 -1 1\n", "payoffs 1: 1 -1 -1\n"),
         "expected 4 entries"),
        (lambda t: t.replace("gamedoc 1\n", ""), "missing 'gamedoc"),
        (lambda t: t.replace("payoffs 2: -1 1 1 -1\n", ""), "missing 'payoffs 2'"),
        (lambda t: t + "mu 1: 0 1\n", "nonpositive measure"),
        (lambda t: t + "gamma 2: 1 -1\n", r"^nonpositive co-measure: gamma\^2 entry 1 = -1$"),
        (lambda t: t + "generator 1: 1 1\ngenerator 2: 0 1\n",
         r"^nonpositive co-measure: gamma\^1 entry 0 = 0$"),
        (lambda t: t + "gamma 1: 1 2 3\n", "gamma 1: expected 2 entries"),
        (lambda t: t + "profile p: 1/2 1/2 | 1/3 1/3\n", "sum to"),
        (lambda t: t.replace("payoffs 1: 1", "payoffs 1: x"), "not an integer"),
        (lambda t: t.replace("strategies 1: s t", "strategies 1: s s"), "duplicate"),
    ],
)
def test_parse_errors_are_addressed(mutate, message):
    with pytest.raises(ParseError, match=message):
        parse_game(mutate(MINIMAL))


def test_parse_error_carries_line_number():
    bad = MINIMAL.replace("payoffs 2: -1 1 1 -1", "payoffs 2: -1 1 1 q")
    with pytest.raises(ParseError, match="line 6"):
        parse_game(bad)


def test_float_mode_parses_decimals():
    text = MINIMAL.replace("payoffs 1: 1 -1 -1 1", "payoffs 1: 1.5 -1 -1 1")
    doc = parse_game(text, exact=False)
    assert doc.game.flat(0)[0] == 1.5
    assert not doc.game.exact
    with pytest.raises(ParseError):
        parse_game(text)  # exact mode rejects decimals


# -- round-trip property over random documents ----------------------------------

_EXACT_VALUES = st.builds(F, st.integers(-99, 99), st.integers(1, 12))
_EXACT_POSITIVE = st.builds(F, st.integers(1, 99), st.integers(1, 12))
_FLOAT_VALUES = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
_FLOAT_POSITIVE = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)
_TOKENS = st.from_regex(r"[a-z][a-z0-9_-]{0,5}", fullmatch=True)


@st.composite
def documents(draw, exact):
    values = _EXACT_VALUES if exact else _FLOAT_VALUES
    positive = _EXACT_POSITIVE if exact else _FLOAT_POSITIVE
    sizes = draw(st.lists(st.integers(2, 4), min_size=2, max_size=3))
    labels = tuple(
        tuple(draw(st.lists(_TOKENS, min_size=m, max_size=m, unique=True)))
        for m in sizes
    )
    space = StrategySpace(labels)

    def vectors(lengths, elements):
        return [draw(st.lists(elements, min_size=k, max_size=k)) for k in lengths]

    game = Game.from_payoffs(space, vectors([space.num_profiles] * len(sizes), values), exact)
    mu = MeasureVector.from_weights(space, vectors(sizes, positive), exact)
    kind = draw(st.sampled_from(["tensors", "uniform", "generator"]))
    if kind == "uniform":
        gamma = CoMeasureVector.uniform(space, exact=exact)
    elif kind == "generator":
        gamma = CoMeasureVector.from_generator(space, vectors(sizes, positive), exact)
    else:
        opp = [space.num_opp_profiles(i) for i in space.players]
        gamma = CoMeasureVector.from_tensors(space, vectors(opp, positive), exact)
    names = draw(st.lists(_TOKENS, max_size=3, unique=True))
    weights = st.integers(1, 9).map(F)
    profiles = {
        name: MixedProfile.from_positive_weights(space, vectors(sizes, weights), exact)
        for name in names
    }
    return GameDocument(game, mu, gamma, profiles)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_roundtrip_property(exact):
    @settings(max_examples=60, deadline=None)
    @given(documents(exact), st.none() | st.text("ab #\n", max_size=8))
    def check(doc, comment):
        text = serialize_game(doc, comment=comment)
        again = parse_game(text, exact=exact)
        assert again.game.exact == exact
        assert again.game == doc.game
        assert again.mu == doc.mu
        assert again.gamma == doc.gamma
        if doc.gamma.generator is not None:
            assert all(
                (a == b).all() for a, b in zip(again.gamma.generator, doc.gamma.generator)
            )
        assert list(again.profiles) == list(doc.profiles)
        for name, profile in doc.profiles.items():
            assert again.profiles[name] == profile
        assert serialize_game(again, comment=comment) == text

    check()
