"""Approximate a game by its closest potential game.

The projection onto potential-plus-nonstrategic games is the best potential
approximation in the weighted norm; its squared distance is the harmonic
component's squared norm.  Every equilibrium of the approximation is an
eps-equilibrium of the original game, with eps^2 bounded by an exactly
computable rational B^2.
"""

import math
import random
from pathlib import Path

from gamedecomp import (
    MixedProfile,
    best_response_epsilon,
    decompose,
    extract_potential,
    parse_game,
    pure_equilibrium_from_potential,
)
from gamedecomp.equilibrium import pure_regret
from gamedecomp.laws import random_game, random_gamma, random_mu, random_space

FIXTURES = Path(__file__).parent.parent / "fixtures"


def main():
    doc = parse_game((FIXTURES / "depend.game").read_text())
    parts = decompose(doc.game, doc.mu, doc.gamma)
    closest, dist_sq = parts.closest_potential()
    bound_sq = parts.epsilon_bound()
    print("closest potential game (player 1):", closest.flat(0))
    print(f"d^2 = {dist_sq} (d ~ {math.sqrt(float(dist_sq)):.4f})")
    print(f"B^2 = {bound_sq} (B ~ {math.sqrt(float(bound_sq)):.4f})")

    psi = extract_potential(closest, doc.gamma)
    print("potential function values:", psi.flat())
    argmaxes = pure_equilibrium_from_potential(closest, doc.gamma)
    print("argmax profiles of the potential:",
          [doc.space.profile_labels(p) for p in argmaxes])
    for profile in argmaxes:
        candidate = MixedProfile.pure(doc.space, profile)
        eps = best_response_epsilon(doc.game, candidate)
        print(f"  {doc.space.profile_labels(profile)}: eps in the original game = {eps}, "
              f"eps^2 <= B^2: {eps * eps <= bound_sq}")

    print("\nthe bound holds across random games:")
    rng = random.Random(99)
    checked = 0
    for _ in range(200):
        space = random_space(rng, (2, 3), (2, 4))
        g = random_game(rng, space)
        mu, gamma = random_mu(rng, space), random_gamma(rng, space)
        parts = decompose(g, mu, gamma)
        closest, _ = parts.closest_potential()
        bound_sq = parts.epsilon_bound()
        # the pure equilibria of the closest game are its zero-regret profiles
        eps = pure_regret(g)[pure_regret(closest) == 0]
        assert all(e * e <= bound_sq for e in eps)
        checked += len(eps)
    print(f"  verified eps^2 <= B^2 for {checked} pure equilibria, all exact")


if __name__ == "__main__":
    main()
