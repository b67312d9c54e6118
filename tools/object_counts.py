"""Count the ``Fraction``s, value objects and views that CLI commands build.

Runs each command in-process and prints one row per command:

    <Fractions> <objects> <checks> <views> <command>

``Fractions`` counts ``Fraction.__new__`` and, where the Python version has
it, ``Fraction._from_coprime_ints``, which builds without ``__new__``.
``objects`` counts ``games._Tensors._store`` calls: one per game, field,
measure, co-measure and profile.  ``checks`` counts full
``games._Tensors._check`` runs: one per object built from outside data, and
one per float object.  ``views`` counts ``numeric._Shared.values`` calls,
the one conversion behind every view (``Game.payoffs`` and the like): 0,
since the package computes and writes from the stored form and views exist
for callers.  The commands are exact ``decompose``,
``classify`` and ``closest-potential`` and float ``decompose`` on a seeded
game on 2^6 (the game of ``tests/test_cli.py``), then ``verify all --trials
30 --seed 7``.  The last rows give fixed costs as the Python and C
function calls made (``sys.setprofile``'s call and c_call events), which
``tests/test_plans.py`` caps: one exact library ``decompose`` of that game
with its fresh mu and gamma, and ``parse_game`` of its document in exact
and in float mode.  Stdlib only, apart from the package
itself, which it imports from the ``src/`` next to this directory:

    python3 tools/object_counts.py
"""

from __future__ import annotations

import contextlib
import gc
import io
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gamedecomp import (
    GameDocument, StrategySpace, decompose, games, laws, numeric, parse_game, serialize_game,
)
from gamedecomp.cli import main as cli_main


def seeded_2x6_objects():
    """The seeded random game on 2^6 and its mu and gamma, as drawn."""
    rng = random.Random(21)
    space = StrategySpace(tuple(("a", "b") for _ in range(6)))
    g = laws.random_game(rng, space)
    return g, laws.random_mu(rng, space), laws.random_gamma(rng, space)


def seeded_2x6(path: Path) -> Path:
    """Write the seeded random game on 2^6, with its mu and gamma, to ``path``."""
    path.write_text(serialize_game(GameDocument(*seeded_2x6_objects())))
    return path


def calls(fn, *args) -> int:
    """The call and c_call events of one ``fn(*args)``, with the garbage
    collector off, as the guard counts them."""
    count = [0]

    def profile(frame, event, arg):
        if event in ("call", "c_call"):
            count[0] += 1

    saved, collecting = sys.getprofile(), gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(saved)
        if collecting:
            gc.enable()
    return count[0]


def count(argv: list[str]) -> tuple[int, int, int, int]:
    """(Fractions, objects, full checks, views) while the CLI runs ``argv``,
    whose output is discarded; raises unless it exits 0."""
    counts = [0, 0, 0, 0]
    new, store, check = Fraction.__new__, games._Tensors._store, games._Tensors._check
    values = numeric._Shared.values

    def counting_new(cls, *args, **kwargs):
        counts[0] += 1
        return new(cls, *args, **kwargs)

    def counting_store(self, space, shared):
        counts[1] += 1
        store(self, space, shared)

    def counting_check(self):
        counts[2] += 1
        check(self)

    def counting_values(self):
        counts[3] += 1
        return values(self)

    patches = [(Fraction, "__new__", staticmethod(counting_new)),
               (games._Tensors, "_store", counting_store),
               (games._Tensors, "_check", counting_check),
               (numeric._Shared, "values", counting_values)]
    if "_from_coprime_ints" in vars(Fraction):
        built = Fraction._from_coprime_ints

        def counting_coprime(cls, *args):
            counts[0] += 1
            return built(*args)

        patches.append((Fraction, "_from_coprime_ints", classmethod(counting_coprime)))
    saved = [(owner, name, vars(owner)[name]) for owner, name, _ in patches]
    for owner, name, value in patches:
        setattr(owner, name, value)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv)
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return tuple(counts)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        game = str(seeded_2x6(Path(tmp) / "g.game"))
        commands = [
            ["decompose", game],
            ["classify", game],
            ["closest-potential", game],
            ["--float", "decompose", game],
            ["verify", "all", "--trials", "30", "--seed", "7"],
        ]
        for argv in commands:
            counts = count(argv)
            shown = ["2^6" if arg == game else arg for arg in argv]
            print(*(f"{n:6d}" for n in counts), *shown)
    objects = seeded_2x6_objects()
    print(f"{calls(decompose, *objects):6d} calls of one exact decompose() on 2^6")
    text = serialize_game(GameDocument(*objects))
    for mode, exact in (("exact", True), ("float", False)):
        print(f"{calls(parse_game, text, exact):6d} calls of {mode} parse_game() of the 2^6 document")
    return 0


if __name__ == "__main__":
    sys.exit(main())
