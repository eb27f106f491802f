"""Node coordinates and geometric helpers.

The paper's linear fragmentation algorithm and the "distributed centers"
refinement of the center-based algorithm both assume that every node carries a
topological coordinate pair ``(x, y)`` (Sec. 3.3).  The random graph generator
of Sec. 4.1 likewise places nodes on a plane and biases edge creation towards
geometrically close pairs.  This module provides the small amount of geometry
the rest of the package needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence, Tuple

Node = Hashable


@dataclass(frozen=True, order=True)
class Point:
    """A point in the plane, used as a node coordinate.

    Ordering is lexicographic on ``(x, y)``; this matches the paper's use of
    the *smallest x-coordinates* to pick the start nodes of the linear
    fragmentation sweep.
    """

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Return the Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def as_tuple(self) -> Tuple[float, float]:
        """Return the coordinates as a plain ``(x, y)`` tuple."""
        return (self.x, self.y)


def centroid(points: Iterable[Point]) -> Point:
    """Return the centroid (arithmetic mean) of ``points``.

    Raises:
        ValueError: if ``points`` is empty.
    """
    xs, ys, count = 0.0, 0.0, 0
    for point in points:
        xs += point.x
        ys += point.y
        count += 1
    if count == 0:
        raise ValueError("cannot compute the centroid of an empty point set")
    return Point(xs / count, ys / count)


def bounding_box(points: Iterable[Point]) -> Tuple[Point, Point]:
    """Return the axis-aligned bounding box of ``points`` as ``(lower_left, upper_right)``.

    Raises:
        ValueError: if ``points`` is empty.
    """
    iterator = iter(points)
    try:
        first = next(iterator)
    except StopIteration:
        raise ValueError("cannot compute the bounding box of an empty point set") from None
    min_x = max_x = first.x
    min_y = max_y = first.y
    for point in iterator:
        min_x = min(min_x, point.x)
        max_x = max(max_x, point.x)
        min_y = min(min_y, point.y)
        max_y = max(max_y, point.y)
    return Point(min_x, min_y), Point(max_x, max_y)


def spread_out_selection(
    coordinates: Mapping[Node, Point],
    candidates: Sequence[Node],
    count: int,
) -> list:
    """Select ``count`` candidates that are mutually far apart.

    This implements the "distributed centers" optimisation of Sec. 4.2.1: the
    centers of the center-based fragmentation are no longer picked at random
    from the candidate pool but chosen so that they are not too close
    together.  We use a greedy farthest-point heuristic: the first pick is the
    candidate farthest from the centroid of all candidates, and each
    subsequent pick maximises the minimum distance to the already selected
    centers.

    Args:
        coordinates: coordinates for (at least) every candidate node.
        candidates: the candidate pool, ordered by preference; ties in the
            geometric criterion are broken by this order so the selection is
            deterministic.
        count: how many nodes to select.

    Returns:
        A list of ``min(count, len(candidates))`` selected nodes.

    Raises:
        MissingCoordinatesError: if a candidate has no coordinate.
    """
    from ..exceptions import MissingCoordinatesError

    if count <= 0 or not candidates:
        return []
    missing = [node for node in candidates if node not in coordinates]
    if missing:
        raise MissingCoordinatesError(
            f"cannot spread out centers: {len(missing)} candidate(s) have no coordinates, e.g. {missing[0]!r}"
        )
    points = [coordinates[node] for node in candidates]
    center_of_mass = centroid(points)
    remaining = list(range(len(points)))
    # Farthest from the centroid first, preferring earlier candidates on ties.
    pick = max(remaining, key=lambda idx: (points[idx].distance_to(center_of_mass), -idx))
    # Distance from each candidate to its nearest selected center, refreshed
    # against the newest center only.
    nearest = [math.inf] * len(points)
    selected = []
    while True:
        selected.append(candidates[pick])
        remaining.remove(pick)
        if not remaining or len(selected) >= count:
            return selected
        newest = points[pick]
        for idx in remaining:
            nearest[idx] = min(nearest[idx], points[idx].distance_to(newest))
        pick = max(remaining, key=lambda idx: (nearest[idx], -idx))
