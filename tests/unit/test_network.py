"""Unit tests for the network substrates (H-tree, fat-tree)."""

import math

import pytest

from repro.network.fattree import (
    FatTree,
    bandwidth_constant,
    bandwidth_linear,
    bandwidth_power,
)
from repro.network.htree import successor_tree_distances, successor_wire_lengths


class TestHTreeGeometry:
    def test_power_of_4_check(self):
        for n in (1, 4, 64):
            assert len(successor_tree_distances(n)) == n
        for n in (2, 8, 0):
            with pytest.raises(ValueError):
                successor_tree_distances(n)

    @pytest.mark.parametrize("n", [2, 8, 32, 0])
    def test_rejects_non_power_of_4(self, n):
        with pytest.raises(ValueError):
            successor_wire_lengths(n)


class TestSuccessorCensus:
    """The paper's self-timed argument: successor paths are mostly local."""

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_at_least_half_of_successor_paths_are_local(self, n):
        distances = successor_tree_distances(n)
        local = sum(1 for d in distances if d <= 1)
        assert local / n >= 0.5

    def test_exactly_three_quarters_within_level_1(self):
        # contiguous quadrant assignment: 3 of every 4 hops stay in a
        # 4-leaf subtree
        distances = successor_tree_distances(64)
        assert sum(1 for d in distances if d == 1) == 48

    def test_wire_lengths_match_distances(self):
        lengths = successor_wire_lengths(16)
        distances = successor_tree_distances(16)
        for length, dist in zip(lengths, distances):
            assert (length == 0) == (dist == 0)
            if dist == 1:
                assert length == 2.0 * (2 / 2)  # up one level and back


class TestFatTree:
    def test_level_capacities_follow_bandwidth(self):
        tree = FatTree(64, bandwidth_power(0.5))
        # level k uplink leaves a subtree of 4**(k+1) leaves
        assert tree.level_capacity[0] == math.ceil(4**0.5)
        assert tree.level_capacity[2] == math.ceil(64**0.5)

    def test_root_capacity_is_m_of_n(self):
        # the top uplink carries the chip's memory bandwidth M(n)
        assert FatTree(64, bandwidth_linear()).level_capacity[-1] == 64
        assert FatTree(64, bandwidth_constant(2.0)).level_capacity[-1] == 2

    def test_admission_respects_root_capacity(self):
        tree = FatTree(16, bandwidth_constant(2.0))
        routing = tree.admit([0, 5, 10, 15])
        assert len(routing.granted) == 2
        assert len(routing.denied) == 2

    def test_oldest_first_priority(self):
        tree = FatTree(16, bandwidth_constant(1.0))
        routing = tree.admit([3, 7])
        assert routing.granted == (0,)
        assert routing.denied == (1,)

    def test_leaf_level_conflicts(self):
        tree = FatTree(16, bandwidth_constant(16.0))
        # both requests from the same 4-leaf subtree share the level-0 uplink
        tree.level_capacity[0] = 1
        routing = tree.admit([0, 1])
        assert routing.granted == (0,)

    def test_full_bandwidth_admits_everything(self):
        tree = FatTree(16, bandwidth_linear())
        routing = tree.admit(list(range(16)))
        assert len(routing.granted) == 16

    def test_path_groups(self):
        tree = FatTree(16, bandwidth_constant(1.0))
        assert tree.path_groups(5) == [(0, 1), (1, 0)]
        with pytest.raises(ValueError):
            tree.path_groups(16)

    def test_validation(self):
        with pytest.raises(ValueError):
            FatTree(0, bandwidth_constant())
