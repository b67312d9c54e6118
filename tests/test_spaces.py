import numpy as np
import pytest
from hypothesis import given, strategies as st

from gamedecomp import StrategySpace, ValidationError
from oracles import edges, profile_index

sizes_strategy = st.lists(st.integers(2, 5), min_size=2, max_size=4)


def space_from_sizes(sizes):
    return StrategySpace(tuple(tuple(f"s{k}" for k in range(m)) for m in sizes))


@given(sizes_strategy)
def test_profile_index_roundtrip(sizes):
    space = space_from_sizes(sizes)
    for idx in range(space.num_profiles):
        assert np.ravel_multi_index(space.profile(idx), space.sizes) == idx


@given(sizes_strategy)
def test_row_major_player_one_slowest(sizes):
    space = space_from_sizes(sizes)
    profiles = list(space.profiles())
    assert [profile_index(space, p) for p in profiles] == list(range(space.num_profiles))
    # last coordinate varies fastest
    assert profiles[0] == tuple([0] * len(sizes))
    assert profiles[1][-1] == 1


def test_edges_are_single_coordinate_moves():
    space = space_from_sizes([2, 3])
    pairs = list(edges(space))
    assert len(pairs) == 3 * 1 + 2 * 3
    for i, s, t in pairs:
        diffs = [j for j in space.players if s[j] != t[j]]
        assert diffs == [i]
        assert np.ravel_multi_index(s, space.sizes) < np.ravel_multi_index(t, space.sizes)


def test_validation():
    with pytest.raises(ValidationError):
        StrategySpace((("a", "b"),))  # one player
    with pytest.raises(ValidationError):
        StrategySpace((("a",), ("a", "b")))  # singleton strategy set
    with pytest.raises(ValidationError):
        StrategySpace((("a", "a"), ("a", "b")))  # duplicate labels


def test_insert_and_delete():
    space = space_from_sizes([2, 2])
    bigger = space.insert_strategy(0, 1, "new")
    assert bigger.labels[0] == ("s0", "new", "s1")
    assert bigger.delete_strategy(0, 1) == space
    with pytest.raises(ValidationError):
        bigger.insert_strategy(0, 0, "new")  # label collision
