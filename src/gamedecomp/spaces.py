"""Strategy spaces and profile index arithmetic.

Profiles are enumerated in row-major order with player 1 varying slowest;
every tensor in the package commits to this order.  Subprofile spaces
``S^{-i}`` keep the remaining players in their original order, row-major as
well.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class StrategySpace:
    labels: tuple[tuple[str, ...], ...]
    sizes: tuple[int, ...] = field(init=False)
    num_profiles: int = field(init=False)

    def __post_init__(self):
        labels = tuple(tuple(str(x) for x in player) for player in self.labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) < 2:
            raise ValidationError("a game needs at least 2 players")
        for i, player in enumerate(labels):
            if len(player) < 2:
                raise ValidationError(f"player {i + 1} needs at least 2 strategies")
            if len(set(player)) != len(player):
                raise ValidationError(f"player {i + 1} has duplicate strategy labels")
        sizes = tuple(len(p) for p in labels)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "num_profiles", math.prod(sizes))

    @property
    def n_players(self) -> int:
        return len(self.labels)

    @property
    def players(self) -> range:
        return range(self.n_players)

    # -- profile indexing ---------------------------------------------------

    def index(self, profile: tuple[int, ...]) -> int:
        return int(np.ravel_multi_index(profile, self.sizes))

    def profile(self, index: int) -> tuple[int, ...]:
        return tuple(int(k) for k in np.unravel_index(index, self.sizes))

    def profiles(self):
        return itertools.product(*(range(m) for m in self.sizes))

    def strategy_index(self, player: int, label: str) -> int:
        try:
            return self.labels[player].index(label)
        except ValueError:
            raise ValidationError(
                f"player {player + 1} has no strategy {label!r}"
            ) from None

    def profile_labels(self, profile: tuple[int, ...]) -> tuple[str, ...]:
        return tuple(self.labels[i][k] for i, k in enumerate(profile))

    # -- opponent subprofiles -----------------------------------------------

    def opp_sizes(self, player: int) -> tuple[int, ...]:
        return tuple(m for j, m in enumerate(self.sizes) if j != player)

    def num_opp_profiles(self, player: int) -> int:
        return math.prod(self.opp_sizes(player))

    def opp_profiles(self, player: int):
        return itertools.product(*(range(m) for m in self.opp_sizes(player)))

    def opp_index(self, player: int, profile: tuple[int, ...]) -> int:
        """Index into the row-major S^{-i} space of a full profile's remainder."""
        opp = profile[:player] + profile[player + 1:]
        return int(np.ravel_multi_index(opp, self.opp_sizes(player)))

    def merge_opp(self, player: int, own: int, opp: tuple[int, ...]) -> tuple[int, ...]:
        """Full profile from player's own strategy plus an opponent subprofile."""
        out = list(opp[:player]) + [own] + list(opp[player:])
        return tuple(out)

    def axis_in_opp(self, player: int, other: int) -> int:
        """Axis of player ``other`` inside the S^{-player} tensor."""
        if other == player:
            raise ValueError("player is not part of its own opponent space")
        return other if other < player else other - 1

    # -- comparable pairs (game-graph edges) ---------------------------------

    def edges(self):
        """Yield (player, s_profile, t_profile) once per unordered comparable pair.

        Orientation is fixed: s precedes t in profile-index order.
        """
        for i in self.players:
            for opp in self.opp_profiles(i):
                for a, b in itertools.combinations(range(self.sizes[i]), 2):
                    yield i, self.merge_opp(i, a, opp), self.merge_opp(i, b, opp)

    def num_edges(self) -> int:
        total = 0
        for i in self.players:
            m = self.sizes[i]
            total += m * (m - 1) // 2 * self.num_opp_profiles(i)
        return total

    # -- derived spaces -------------------------------------------------------

    def insert_strategy(self, player: int, position: int, label: str) -> "StrategySpace":
        if label in self.labels[player]:
            raise ValidationError(
                f"label collision: player {player + 1} already has {label!r}"
            )
        new = list(self.labels[player])
        new.insert(position, label)
        labels = list(self.labels)
        labels[player] = tuple(new)
        return StrategySpace(tuple(labels))

    def delete_strategy(self, player: int, position: int) -> "StrategySpace":
        new = list(self.labels[player])
        del new[position]
        labels = list(self.labels)
        labels[player] = tuple(new)
        return StrategySpace(tuple(labels))
