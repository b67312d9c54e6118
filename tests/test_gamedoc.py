import hashlib
import math
import re
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from gamedecomp import (
    CoMeasureVector,
    Game,
    GameDecompError,
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


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_roundtrip_stability_on_all_fixtures(exact):
    for path in sorted(FIXTURES.glob("*.game")):
        doc = parse_game(path.read_text(), exact=exact)
        text = serialize_game(doc)
        again = parse_game(text, exact=exact)
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
        # each directive once per player, players numbered 1..n, profile names unique
        (lambda t: t + "payoffs 1: 5 5 5 5\n",
         r"^line 7: repeated 'payoffs 1' line \(first on line 5\)$"),
        (lambda t: t + "mu 3: 7 7\n", r"^line 7: no player 3: the game has 2 players$"),
        (lambda t: t + "gamma 9: 1 2\n", r"^line 7: no player 9: the game has 2 players$"),
        (lambda t: t + "strategies 3: a b c\n",
         r"^line 7: no player 3: the game has 2 players$"),
        (lambda t: t + "profile u: 1/2 1/2 | 1/2 1/2\nprofile u: 1 0 | 1 0\n",
         r"^line 8: repeated 'profile u' line \(first on line 7\)$"),
        (lambda t: t + ": x\n", r"^line 7: unrecognized directive ': x'$"),
        (lambda t: t + "players 3\n", r"^line 7: repeated 'players' line \(first on line 2\)$"),
        (lambda t: t + "mu " + "9" * 5000 + ": 1 1\n",
         r"^line 7: expected a player number after 'mu'$"),
        (lambda t: t.replace("payoffs 1: 1 -1 -1 1\n", "payoffs 1: 1 -1 -1\n"),
         r"^line 5: payoffs 1: expected 4 entries, got 3$"),
        (lambda t: t + "gamma 1: 1 2 3\n", r"^line 7: gamma 1: expected 2 entries, got 3$"),
    ],
)
def test_parse_errors_are_addressed(mutate, message):
    with pytest.raises(ParseError, match=message):
        parse_game(mutate(MINIMAL))


def test_nonpositive_generator_fails_to_parse_on_three_players():
    # on three players, negative generator entries can multiply to
    # all-positive gamma tensors; such a document parsed, and serialized
    # back with its negative generator block
    zeros = " ".join(["0"] * 8)
    text = (
        "gamedoc 1\nplayers 3\n"
        + "".join(f"strategies {i}: a b\n" for i in (1, 2, 3))
        + "".join(f"payoffs {i}: {zeros}\n" for i in (1, 2, 3))
        + "generator 1: -1 -2\ngenerator 2: -1 -1\ngenerator 3: -3 -1\n"
    )
    with pytest.raises(ParseError, match=r"^nonpositive co-measure generator: c\^1\(a\) = -1$"):
        parse_game(text)


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


# -- mutated fixtures fail only with ParseError ---------------------------------

_FIXTURE_TEXTS = [path.read_text() for path in sorted(FIXTURES.glob("*.game"))]
_DIRECTIVES = ["", "gamedoc", "players", "strategies", "payoffs", "mu", "gamma",
               "generator", "profile", "uniform"]
_SHORT_TEXT = st.text("12ab:#|/-. ", max_size=8)
_SHORT_LINES = _SHORT_TEXT | st.builds(
    "{} {}".format, st.sampled_from(_DIRECTIVES), _SHORT_TEXT
)


@st.composite
def mutated_fixtures(draw):
    """A fixture with lines deleted, duplicated, renumbered or inserted."""
    lines = draw(st.sampled_from(_FIXTURE_TEXTS)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["delete", "duplicate", "renumber", "insert"]))
        k = draw(st.integers(0, len(lines)))
        if op == "insert":
            lines.insert(k, draw(_SHORT_LINES))
        elif k == len(lines):
            continue
        elif op == "delete":
            del lines[k]
        elif op == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[k])
        else:
            number = str(draw(st.integers(0, 4)))
            lines[k] = re.sub(r"\d+", number, lines[k], count=1)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@settings(max_examples=300, deadline=None)
@given(text=mutated_fixtures())
@example(text=": x")
@example(text="gamedoc 1\nplayers \u00b2\n")  # a digit to str.isdigit, not to int
def test_mutated_fixtures_raise_only_parse_errors(exact, text):
    try:
        parse_game(text, exact=exact)
    except ParseError:
        pass


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


# -- byte-level guards on the serializer ---------------------------------------------

SERIALIZED_FIXTURES_DIGEST = "578e0870acd6a1c9460d2f11c32b1a6b104a6ad7023f9c76fbd58e6a1a312782"


def test_serialized_fixtures_match_digest():
    # every fixture parsed and written back in both scalar modes, profiles,
    # generators and 'gamma i: uniform' lines included, pinned byte for byte
    fixtures = sorted(FIXTURES.glob("*.game"))
    assert len(fixtures) == 10
    digest = hashlib.sha256()
    for path in fixtures:
        for exact in (True, False):
            doc = parse_game(path.read_text(), exact=exact)
            digest.update(serialize_game(doc, comment=f"{path.name} {exact}").encode() + b"\0")
    assert digest.hexdigest() == SERIALIZED_FIXTURES_DIGEST


def test_serialize_refuses_an_integer_too_long_to_print():
    space = StrategySpace((("s", "t"),) * 2)
    game = Game.from_payoffs(space, [[10 ** 4400, 1, -1, 0], [0, 1, -1, 0]])
    doc = GameDocument(game, MeasureVector.uniform(space), CoMeasureVector.uniform(space))
    with pytest.raises(GameDecompError, match="^result too long to print: "):
        serialize_game(doc)


def test_float_negative_zero_literals():
    # the integer literal -0 is the rational 0, so it reads as 0.0; the
    # decimal -0.0 is the float -0.0 and is written back as such
    doc = parse_game(MINIMAL.replace("payoffs 1: 1 -1 -1 1", "payoffs 1: -0 -0.0 0 1"),
                     exact=False)
    first = doc.game.flat(0)
    assert [math.copysign(1, v) for v in first[:2]] == [1, -1]
    assert "payoffs 1: 0.0 -0.0 0.0 1.0\n" in serialize_game(doc)
