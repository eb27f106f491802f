"""Unit tests for coordinates and geometric helpers."""

import math

import pytest

from repro.exceptions import MissingCoordinatesError
from repro.graph import (
    Point,
    bounding_box,
    centroid,
    spread_out_selection,
)


class TestPoint:
    def test_distance(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == 5.0

    def test_ordering_is_lexicographic(self):
        assert Point(1, 5) < Point(2, 0)
        assert Point(1, 1) < Point(1, 2)

    def test_as_tuple(self):
        assert Point(1.5, 2.5).as_tuple() == (1.5, 2.5)


class TestHelpers:
    def test_centroid(self):
        assert centroid([Point(0, 0), Point(2, 0), Point(1, 3)]) == Point(1.0, 1.0)

    def test_centroid_empty_raises(self):
        with pytest.raises(ValueError):
            centroid([])

    def test_bounding_box(self):
        low, high = bounding_box([Point(1, 5), Point(-2, 3), Point(4, 0)])
        assert low == Point(-2, 0)
        assert high == Point(4, 5)

    def test_bounding_box_empty_raises(self):
        with pytest.raises(ValueError):
            bounding_box([])


class TestSpreadOutSelection:
    def test_selects_far_apart_nodes(self):
        # Two tight clusters far apart: one pick should land in each.
        coords = {
            "a1": Point(0, 0), "a2": Point(0.5, 0.5), "a3": Point(0.2, 0.1),
            "b1": Point(100, 100), "b2": Point(100.5, 100.2),
        }
        selected = spread_out_selection(coords, list(coords), 2)
        clusters = {name[0] for name in selected}
        assert clusters == {"a", "b"}

    def test_count_larger_than_pool(self):
        coords = {"a": Point(0, 0), "b": Point(1, 1)}
        assert sorted(spread_out_selection(coords, ["a", "b"], 5)) == ["a", "b"]

    def test_zero_count_returns_empty(self):
        assert spread_out_selection({"a": Point(0, 0)}, ["a"], 0) == []

    def test_missing_coordinates_raise(self):
        with pytest.raises(MissingCoordinatesError):
            spread_out_selection({"a": Point(0, 0)}, ["a", "ghost"], 2)

    def test_deterministic(self):
        coords = {i: Point(float(i), float(i % 3)) for i in range(10)}
        first = spread_out_selection(coords, list(coords), 4)
        second = spread_out_selection(coords, list(coords), 4)
        assert first == second
