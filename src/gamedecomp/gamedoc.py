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

Values are integers or ``p/q`` rationals (decimals allowed in float mode).
Serialization is canonical, so identical inputs produce byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ParseError, ValidationError
from .numeric import format_scalar, parse_scalar
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


def parse_game(text: str, exact: bool = True) -> GameDocument:
    """Parse a game document; errors carry the offending line number."""
    version = None
    n_players = None
    strategies: dict[int, list[str]] = {}
    payoffs: dict[int, list] = {}
    mu_lines: dict[int, list] = {}
    gamma_lines: dict[int, object] = {}
    generator_lines: dict[int, list] = {}
    profile_lines: list[tuple[int, str, str]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        head = key.strip().split()
        rest = rest.strip()

        if head[0] == "gamedoc":
            if len(head) != 2 or not head[1].isdigit():
                raise ParseError("malformed version line", lineno)
            version = int(head[1])
            if version != FORMAT_VERSION:
                raise ParseError(f"unsupported format version {version}", lineno)
            continue
        if head[0] == "players":
            if len(head) != 2 or not head[1].isdigit():
                raise ParseError("malformed players line", lineno)
            n_players = int(head[1])
            continue

        if len(head) != 2:
            raise ParseError(f"unrecognized directive {line!r}", lineno)
        kind, arg = head

        if kind == "profile":
            profile_lines.append((lineno, arg, rest))
            continue
        if not arg.isdigit():
            raise ParseError(f"expected a player number after {kind!r}", lineno)
        player = int(arg)
        if kind == "strategies":
            strategies[player] = rest.split()
        elif kind == "payoffs":
            payoffs[player] = _parse_values(rest, lineno, exact)
        elif kind == "mu":
            mu_lines[player] = _parse_values(rest, lineno, exact)
        elif kind == "gamma":
            gamma_lines[player] = (
                "uniform" if rest == "uniform" else _parse_values(rest, lineno, exact)
            )
        elif kind == "generator":
            generator_lines[player] = _parse_values(rest, lineno, exact)
        else:
            raise ParseError(f"unrecognized directive {kind!r}", lineno)

    if version is None:
        raise ParseError("missing 'gamedoc <version>' line")
    if n_players is None:
        raise ParseError("missing 'players <n>' line")
    for i in range(1, n_players + 1):
        if i not in strategies:
            raise ParseError(f"missing 'strategies {i}' line")
    try:
        space = StrategySpace(tuple(tuple(strategies[i]) for i in range(1, n_players + 1)))
    except ValidationError as exc:
        raise ParseError(str(exc)) from None

    tensors = []
    for i in range(1, n_players + 1):
        if i not in payoffs:
            raise ParseError(f"missing 'payoffs {i}' line")
        values = payoffs[i]
        if len(values) != space.num_profiles:
            raise ParseError(
                f"payoffs {i}: expected {space.num_profiles} entries for "
                f"player {i}, got {len(values)}"
            )
        tensors.append(values)
    game = Game.from_payoffs(space, tensors, exact)

    # the parameter types refuse nonpositive entries when built
    try:
        one = Fraction(1) if exact else 1.0
        mu_weights = []
        for i in range(1, n_players + 1):
            values = mu_lines.get(i, [one] * space.sizes[i - 1])
            if len(values) != space.sizes[i - 1]:
                raise ParseError(
                    f"mu {i}: expected {space.sizes[i - 1]} entries, got {len(values)}"
                )
            mu_weights.append(values)
        mu = MeasureVector.from_weights(space, mu_weights, exact)

        if generator_lines:
            if gamma_lines:
                raise ParseError("use either gamma lines or a generator block, not both")
            gen = []
            for i in range(1, n_players + 1):
                if i not in generator_lines:
                    raise ParseError(f"generator block is missing player {i}")
                values = generator_lines[i]
                if len(values) != space.sizes[i - 1]:
                    raise ParseError(
                        f"generator {i}: expected {space.sizes[i - 1]} entries, "
                        f"got {len(values)}"
                    )
                gen.append(values)
            gamma = CoMeasureVector.from_generator(space, gen, exact)
        else:
            gamma_tensors = []
            for i in range(1, n_players + 1):
                expected = space.num_opp_profiles(i - 1)
                spec = gamma_lines.get(i, "uniform")
                if spec == "uniform":
                    gamma_tensors.append([one] * expected)
                else:
                    if len(spec) != expected:
                        raise ParseError(
                            f"gamma {i}: expected {expected} entries, got {len(spec)}"
                        )
                    gamma_tensors.append(spec)
            gamma = CoMeasureVector.from_tensors(space, gamma_tensors, exact)
            if all(v == 1 for t in gamma.tensors for v in t.reshape(-1).tolist()):
                gamma = CoMeasureVector.uniform(space, exact=exact)

        validate_parameters(space, mu, gamma)
    except ValidationError as exc:
        raise ParseError(str(exc)) from None

    profiles = {}
    for lineno, name, rest in profile_lines:
        blocks = [b.strip() for b in rest.split("|")]
        if len(blocks) != n_players:
            raise ParseError(
                f"profile {name!r}: expected {n_players} player blocks", lineno
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
        try:
            profiles[name] = MixedProfile.from_probs(space, probs, exact)
        except ValidationError as exc:
            raise ParseError(f"profile {name!r}: {exc}", lineno) from None

    return GameDocument(game, mu, gamma, profiles)


def _parse_values(text: str, lineno: int, exact: bool) -> list:
    if not text:
        raise ParseError("expected values", lineno)
    try:
        return [parse_scalar(tok, exact) for tok in text.split()]
    except ParseError as exc:
        raise ParseError(str(exc), lineno) from None


def serialize_game(doc: GameDocument, comment: str | None = None) -> str:
    """Canonical text for a document: parse(serialize(d)) == d, byte-stable."""
    space = doc.space
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"# {part}" if part else "#")
    lines.append(f"gamedoc {FORMAT_VERSION}")
    lines.append(f"players {space.n_players}")
    for i in space.players:
        lines.append(f"strategies {i + 1}: " + " ".join(space.labels[i]))
    for i in space.players:
        lines.append(f"payoffs {i + 1}: " + _fmt(doc.game.flat(i)))
    for i in space.players:
        lines.append(f"mu {i + 1}: " + _fmt(doc.mu.weights[i].tolist()))
    all_ones = all(
        v == 1 for t in doc.gamma.tensors for v in t.reshape(-1).tolist()
    )
    if all_ones:
        for i in space.players:
            lines.append(f"gamma {i + 1}: uniform")
    elif doc.gamma.generator is not None:
        for i in space.players:
            lines.append(
                f"generator {i + 1}: " + _fmt(doc.gamma.generator[i].tolist())
            )
    else:
        for i in space.players:
            lines.append(f"gamma {i + 1}: " + _fmt(doc.gamma.tensors[i].reshape(-1).tolist()))
    for name, profile in doc.profiles.items():
        blocks = " | ".join(_fmt(p.tolist()) for p in profile.probs)
        lines.append(f"profile {name}: {blocks}")
    return "\n".join(lines) + "\n"


def _fmt(values) -> str:
    return " ".join(format_scalar(v) for v in values)
