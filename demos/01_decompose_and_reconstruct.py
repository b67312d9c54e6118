"""Decompose matching pennies and its duplicate-strategy variant.

Matching pennies is purely harmonic: the nonstrategic and potential parts
vanish and the harmonic part is the game itself.  Replicating one row changes
the picture completely if the parameters stay uniform; the same game graph
suddenly produces nonzero potential and nonstrategic components with
surprising fractions in them.  Re-decomposing under a measure that splits the
duplicated weight restores the original structure.
"""

from fractions import Fraction as F
from pathlib import Path

from gamedecomp import decompose, parse_game

FIXTURES = Path(__file__).parent.parent / "fixtures"


def show(game, title):
    print(f"  {title}")
    space = game.space
    for row in range(space.sizes[0]):
        cells = []
        for col in range(space.sizes[1]):
            cells.append(
                "("
                + ", ".join(str(game.payoffs[i][row, col]) for i in space.players)
                + ")"
            )
        print(f"    {space.labels[0][row]:>3}: " + "  ".join(cells))


def main():
    print("== matching pennies ==")
    mp = parse_game((FIXTURES / "mp.game").read_text())
    parts = decompose(mp.game, mp.mu, mp.gamma)
    show(mp.game, "game")
    ns, pot, har = (parts.inner_product(c, c) for c in parts.components())
    print(f"  norm^2 of components: ns={ns}, pot={pot}, har={har}")
    print("  -> purely harmonic;", "harmonic == game:", parts.harmonic == mp.game)

    print("\n== duplicated matching pennies, uniform parameters ==")
    dup = parse_game((FIXTURES / "mp-dup.game").read_text())
    parts = decompose(dup.game, dup.mu, dup.gamma)
    show(dup.game, "game")
    show(parts.potential, "potential component")
    show(parts.harmonic, "harmonic component")
    show(parts.nonstrategic, "nonstrategic component")
    print("  components sum back to the game:", parts.total() == dup.game)
    print("  pairwise inner products:",
          parts.inner_product(parts.potential, parts.harmonic),
          parts.inner_product(parts.potential, parts.nonstrategic),
          parts.inner_product(parts.harmonic, parts.nonstrategic))

    print("\n== same game, duplicated weight split across the copies ==")
    from gamedecomp import MeasureVector

    mu_split = MeasureVector.from_weights(
        dup.space, [[1, F(1, 2), F(1, 2)], [1, 1]]
    )
    parts = decompose(dup.game, mu_split, dup.gamma)
    print("  nonstrategic == 0:", parts.nonstrategic.is_zero())
    print("  potential   == 0:", parts.potential.is_zero())
    print("  harmonic == game:", parts.harmonic == dup.game)
    print("  -> the split measure sees the duplicate rows as one strategy")


if __name__ == "__main__":
    main()
