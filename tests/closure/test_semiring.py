"""Unit tests for the path-problem semirings."""

import math

from repro.closure import (
    path_count_semiring,
    reachability_semiring,
    shortest_path_semiring,
    widest_path_semiring,
)


class TestReachability:
    def test_identities(self):
        semiring = reachability_semiring()
        assert semiring.zero is False
        assert semiring.one is True
        assert semiring.plus(False, True) is True
        assert semiring.times(True, False) is False

    def test_edge_value_ignores_weight(self):
        assert reachability_semiring().edge_value(123.0) is True


class TestShortestPath:
    def test_identities(self):
        semiring = shortest_path_semiring()
        assert semiring.zero == math.inf
        assert semiring.one == 0.0

    def test_plus_is_min_times_is_sum(self):
        semiring = shortest_path_semiring()
        assert semiring.plus(3.0, 5.0) == 3.0
        assert semiring.times(3.0, 5.0) == 8.0


class TestWidestPath:
    def test_plus_is_max_times_is_min(self):
        semiring = widest_path_semiring()
        assert semiring.plus(3.0, 5.0) == 5.0
        assert semiring.times(3.0, 5.0) == 3.0

    def test_identities_absorb(self):
        semiring = widest_path_semiring()
        assert semiring.plus(semiring.zero, 4.0) == 4.0
        assert semiring.times(semiring.one, 4.0) == 4.0


class TestPathCount:
    def test_counting(self):
        semiring = path_count_semiring()
        assert semiring.plus(2, 3) == 5
        assert semiring.times(2, 3) == 6
        assert semiring.edge_value(7.5) == 1

    def test_identities(self):
        semiring = path_count_semiring()
        assert semiring.plus(semiring.zero, 4) == 4
        assert semiring.times(semiring.one, 4) == 4
