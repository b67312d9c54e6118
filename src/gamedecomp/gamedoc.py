"""The versioned game-document text format.

Grammar (one directive per line; ``#`` starts a comment; blank lines ignored)::

    gamedoc 1
    players <n>
    strategies <i>: <label> ...            # one line per player, i = 1..n
    payoffs <i>: <value> ...               # |S| values, profile row-major,
                                           # player 1 varying slowest
    mu <i>: <value> ...                    # optional, default uniform 1
    gamma <i>: uniform | <value> ...       # optional tensor over S^{-i},
                                           # row-major over remaining players
    generator <i>: <value> ...             # optional product-co-measure block;
                                           # excludes gamma lines, needs all i
    profile <name>: p .. | p .. | ...      # optional named mixed profiles

Each header line appears once, each per-player directive at most once per
player, player numbers run from 1 to n, and profile names are unique; a
repeated line, an unknown player or a wrong entry count is an error that
names its line.  Values are integers or ``p/q`` rationals (decimals allowed
in float mode).  Serialization is canonical, so identical inputs produce
byte-identical output.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ParseError, ValidationError
from .numeric import parse_scalar
from .games import (
    CoMeasureVector,
    Game,
    MeasureVector,
    MixedProfile,
    validate_parameters,
)
from .spaces import StrategySpace

FORMAT_VERSION = 1


@dataclass
class GameDocument:
    game: Game
    mu: MeasureVector
    gamma: CoMeasureVector
    profiles: dict[str, MixedProfile] = field(default_factory=dict)

    @property
    def space(self) -> StrategySpace:
        return self.game.space


# the header directives, each with the error for a line that lacks its number
_HEADERS = {"gamedoc": "malformed version line", "players": "malformed players line"}
_PLAYER_KINDS = ("strategies", "payoffs", "mu", "gamma", "generator")


def parse_game(text: str, exact: bool = True) -> GameDocument:
    """Parse a game document; errors carry the offending line number."""
    header: dict[str, tuple[int, int]] = {}  # gamedoc/players -> (line, number)
    table: dict[tuple[str, object], tuple[int, str]] = {}  # (kind, player or name)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        kind, *args = key.split() or [""]
        if kind in _HEADERS:
            number = _number(args[0]) if len(args) == 1 else None
            if number is None:
                raise ParseError(_HEADERS[kind], lineno)
            if kind == "gamedoc" and number != FORMAT_VERSION:
                raise ParseError(f"unsupported format version {number}", lineno)
            _record(header, kind, kind, lineno, number)
            continue
        if len(args) != 1:
            raise ParseError(f"unrecognized directive {line!r}", lineno)
        name = args[0]
        if kind != "profile":
            name = _number(name)
            if name is None:
                raise ParseError(f"expected a player number after {kind!r}", lineno)
            if kind not in _PLAYER_KINDS:
                raise ParseError(f"unrecognized directive {kind!r}", lineno)
        _record(table, (kind, name), f"{kind} {name}", lineno, rest.strip())

    if "gamedoc" not in header:
        raise ParseError("missing 'gamedoc <version>' line")
    if "players" not in header:
        raise ParseError("missing 'players <n>' line")
    players = range(1, header["players"][1] + 1)
    labels = []
    for i in players:
        if ("strategies", i) not in table:
            raise ParseError(f"missing 'strategies {i}' line")
        labels.append(tuple(table["strategies", i][1].split()))
    with _as_parse_error():
        space = StrategySpace(tuple(labels))
    for (kind, i), (lineno, _) in table.items():
        if kind != "profile":
            with _as_parse_error(lineno):
                space.require_player(i - 1)

    one = Fraction(1) if exact else 1.0

    def row(kind: str, i: int, count: int, missing: str | None = None) -> list:
        """The ``count`` entries of line '<kind> i'.  An absent line is the
        error ``missing`` if given, else all ones, as is 'gamma i: uniform'."""
        if (kind, i) not in table:
            if missing:
                raise ParseError(missing)
            return [one] * count
        lineno, rest = table[kind, i]
        if kind == "gamma" and rest == "uniform":
            return [one] * count
        values = _parse_values(rest, lineno, exact)
        if len(values) != count:
            raise ParseError(
                f"{kind} {i}: expected {count} entries, got {len(values)}", lineno
            )
        return values

    payoffs = [
        row("payoffs", i, space.num_profiles, f"missing 'payoffs {i}' line")
        for i in players
    ]
    game = Game.from_payoffs(space, payoffs, exact)

    # the parameter types refuse nonpositive entries when built
    with _as_parse_error():
        mu_weights = [row("mu", i, m) for i, m in zip(players, space.sizes)]
        mu = MeasureVector.from_weights(space, mu_weights, exact)
        if any(kind == "generator" for kind, _ in table):
            if any(kind == "gamma" for kind, _ in table):
                raise ParseError("use either gamma lines or a generator block, not both")
            gen = [
                row("generator", i, m, f"generator block is missing player {i}")
                for i, m in zip(players, space.sizes)
            ]
            gamma = CoMeasureVector.from_generator(space, gen, exact)
        else:
            gamma_tensors = [
                row("gamma", i, space.num_opp_profiles(i - 1)) for i in players
            ]
            gamma = CoMeasureVector.from_tensors(space, gamma_tensors, exact)
        validate_parameters(mu, gamma)

    profiles = {}
    for (kind, name), (lineno, rest) in table.items():
        if kind != "profile":
            continue
        blocks = [b.strip() for b in rest.split("|")]
        if len(blocks) != space.n_players:
            raise ParseError(
                f"profile {name!r}: expected {space.n_players} player blocks", lineno
            )
        probs = []
        for i, block in enumerate(blocks):
            values = _parse_values(block, lineno, exact)
            if len(values) != space.sizes[i]:
                raise ParseError(
                    f"profile {name!r}: player {i + 1} block needs "
                    f"{space.sizes[i]} entries",
                    lineno,
                )
            probs.append(values)
        with _as_parse_error(lineno, f"profile {name!r}: "):
            profiles[name] = MixedProfile.from_probs(space, probs, exact)

    return GameDocument(game, mu, gamma, profiles)


def _number(text: str) -> int | None:
    """The natural number a decimal numeral spells; None for anything else,
    including a numeral too long for int()."""
    try:
        return int(text) if text.isdecimal() else None
    except ValueError:
        return None


def _record(table: dict, key, name: str, lineno: int, value) -> None:
    """table[key] = (lineno, value), refusing a second line for one key."""
    if key in table:
        raise ParseError(f"repeated '{name}' line (first on line {table[key][0]})", lineno)
    table[key] = (lineno, value)


@contextmanager
def _as_parse_error(lineno: int | None = None, prefix: str = ""):
    """Re-raise a ValidationError as a ParseError at ``lineno``."""
    try:
        yield
    except ValidationError as exc:
        raise ParseError(prefix + str(exc), lineno) from None


def _parse_values(text: str, lineno: int, exact: bool) -> list:
    if not text:
        raise ParseError("expected values", lineno)
    try:
        return [parse_scalar(tok, exact) for tok in text.split()]
    except ParseError as exc:
        raise ParseError(str(exc), lineno) from None


def serialize_game(doc: GameDocument, comment: str | None = None) -> str:
    """Canonical text for a document: parse(serialize(d)) == d, byte-stable.

    Every entry is written from its tensor's shared form by
    ``numeric._Shared.texts``, so no ``Fraction`` view is built.  A strategy
    label or profile name that would not read back as itself is refused
    before any line is built (``_require_token``)."""
    space = doc.space
    for player in space.labels:
        for label in player:
            _require_token(label, "strategy label", "#")
    for name in doc.profiles:
        _require_token(name, "profile name", "#:")
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"# {part}" if part else "#")
    lines.append(f"gamedoc {FORMAT_VERSION}")
    lines.append(f"players {space.n_players}")
    for i in space.players:
        lines.append(f"strategies {i + 1}: " + " ".join(space.labels[i]))
    def rows(kind: str, tensors) -> None:
        """One line per player: each shared tensor's entry texts, row-major."""
        lines.extend(f"{kind} {i + 1}: " + " ".join(t.texts()) for i, t in enumerate(tensors))

    gamma = doc.gamma
    rows("payoffs", doc.game._shared)
    rows("mu", doc.mu._shared)
    if gamma.is_all_ones():
        lines.extend(f"gamma {i + 1}: uniform" for i in space.players)
    elif gamma._generator is not None:
        rows("generator", gamma._generator)
    else:
        rows("gamma", gamma._shared)
    for name, profile in doc.profiles.items():
        blocks = " | ".join(" ".join(p.texts()) for p in profile._shared)
        lines.append(f"profile {name}: {blocks}")
    return "\n".join(lines) + "\n"


def _require_token(text: str, what: str, refused: str) -> None:
    """Refuse a name the reader would not read back as itself: it must be
    one token, since lines split on whitespace, without a character of
    ``refused`` (``#`` starts a comment; ``:`` ends a profile directive)."""
    if text.split() != [text] or any(c in text for c in refused):
        shown = " or ".join(repr(c) for c in refused)
        raise ValidationError(
            f"cannot write {what} {text!r}: it must be one token without whitespace or {shown}"
        )
