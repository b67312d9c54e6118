"""Seeded game generator and the call list of one workload round.

Standard library only: the setup probe imports this module before it starts
its clock, so importing it must not pull in numpy or gamedecomp.

Payoffs are integers in [-9, 9]; mu and gamma entries come from
{1/3, 1/2, 1, 2, 3}, the distribution the package's own law suite uses.
The gamedoc text is written here, not by the package, so the inputs stay
byte-stable whatever the program under test does to its serializer.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

PARAM_VALUES = (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))


@dataclass
class GameInput:
    """One generated game: flat row-major tensors, player 1 varying slowest."""

    name: str
    sizes: tuple[int, ...]
    payoffs: list[list[Fraction]]
    mu: list[list[Fraction]]
    gamma: list[list[Fraction]]

    @property
    def num_profiles(self) -> int:
        return math.prod(self.sizes)

    @property
    def players(self) -> int:
        return len(self.sizes)

    def max_bits(self) -> int:
        values = itertools.chain(*self.payoffs, *self.mu, *self.gamma)
        return max(
            max(abs(v.numerator).bit_length(), v.denominator.bit_length())
            for v in values
        )

    def text(self) -> str:
        lines = ["gamedoc 1", f"players {self.players}"]
        for i, m in enumerate(self.sizes):
            lines.append(f"strategies {i + 1}: " + " ".join(f"s{k}" for k in range(m)))
        for key, rows in (("payoffs", self.payoffs), ("mu", self.mu), ("gamma", self.gamma)):
            for i, row in enumerate(rows):
                lines.append(f"{key} {i + 1}: " + " ".join(str(v) for v in row))
        return "\n".join(lines) + "\n"


def make_game(
    name: str, sizes: tuple[int, ...], rng: random.Random, params_rng: random.Random | None = None
) -> GameInput:
    """Payoffs from ``rng``; mu and gamma from ``params_rng``, or ``rng`` if it is None."""
    size = math.prod(sizes)
    payoffs = [[Fraction(rng.randint(-9, 9)) for _ in range(size)] for _ in sizes]
    params_rng = params_rng or rng
    mu = [[params_rng.choice(PARAM_VALUES) for _ in range(m)] for m in sizes]
    gamma = [[params_rng.choice(PARAM_VALUES) for _ in range(size // m)] for m in sizes]
    return GameInput(name, tuple(sizes), payoffs, mu, gamma)


@dataclass
class Call:
    """One CLI call of a round; ``game`` is None for verify calls."""

    label: str
    command: str
    argv: list[str]
    game: GameInput | None = None


def make_games(workload: str, spec: dict, seed: int) -> list[GameInput]:
    """The workload's games: payoffs drawn from ``seed``, mu and gamma not.

    The cost of an exact decomposition follows the denominators of mu and
    gamma, so drawing them afresh for every seed made one shape's call cost up
    to 1.7x as much under one seed as under another. Each game's mu and gamma
    come from a stream of its own that no seed changes: every seed measures
    the same parameter regime on new payoffs.
    """
    games = []
    for entry in spec.get("games", []):
        shape = tuple(entry["shape"])
        tag = "x".join(map(str, shape))
        for j in range(entry["count"]):
            rng = random.Random(f"{workload}:{seed}:{tag}:{j}")
            params_rng = random.Random(f"{workload}:params:{tag}:{j}")
            games.append(make_game(f"g{len(games)}-{tag}.game", shape, rng, params_rng))
    return games


def make_rounds(workload: str, spec: dict, seed: int, directory: str):
    """Write the workload's games into ``directory``; return round index -> calls.

    Game workloads repeat the same calls every round. verify-all draws fresh
    suite seeds for each round, so a run averages over many random suites.
    """
    if "laws" in spec:
        def verify_round(index: int) -> list[Call]:
            calls = []
            for law in spec["laws"]:
                # one suite seed per call: laws sharing a seed draw the same
                # random spaces, so their costs would rise and fall together
                k = str(random.Random(f"{workload}:{seed}:{index}:{law}").randrange(10**6))
                argv = ["verify", law, "--trials", str(spec["trials"]), "--seed", k]
                calls.append(Call(f"verify {law} seed {k}", "verify", argv))
            return calls

        return verify_round
    prefix = ["--float"] if spec["mode"] == "float" else []
    calls = []
    for game in make_games(workload, spec, seed):
        path = os.path.join(directory, game.name)
        with open(path, "w", encoding="ascii") as handle:
            handle.write(game.text())
        for command in spec["commands"]:
            calls.append(Call(f"{command} {game.name}", command, prefix + [command, path], game))
    return lambda index: calls
