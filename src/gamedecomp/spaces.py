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

    def profile(self, index: int) -> tuple[int, ...]:
        return tuple(int(k) for k in np.unravel_index(index, self.sizes))

    def profiles(self):
        return itertools.product(*(range(m) for m in self.sizes))

    def require_player(self, player: int) -> int:
        """``player`` (0-based) after checking that the space has it."""
        if not 0 <= player < self.n_players:
            raise ValidationError(
                f"no player {player + 1}: the game has {self.n_players} players"
            )
        return player

    def strategy_index(self, player: int, label: str) -> int:
        try:
            return self.labels[self.require_player(player)].index(label)
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

    def axis_in_opp(self, player: int, other: int) -> int:
        """Axis of player ``other`` inside the S^{-player} tensor."""
        if other == player:
            raise ValueError("player is not part of its own opponent space")
        return other if other < player else other - 1

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
