"""Path-problem semirings.

The disconnection set approach is parameterised by the *path problem* being
solved: plain reachability ("is A connected to B?"), shortest path ("what is
the cheapest connection?"), and bill-of-material style aggregations are all
transitive-closure queries that differ only in how path values are combined.
A closed semiring captures that variation: edge values are combined along a
path with ``times`` and alternative paths are combined with ``plus``.

The complementary information of the disconnection set approach depends on
the path problem (Sec. 2.1: "these properties depend on the particular path
problem considered"), so the engine carries the semiring through
precomputation, local evaluation and assembly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Semiring:
    """A closed semiring ``(plus, times, zero, one)`` over path values.

    Attributes:
        name: human-readable identifier.
        plus: combines the values of *alternative* paths (e.g. ``min``).
        times: combines the values of *consecutive* edges (e.g. ``+``).
        zero: the value of "no path" (identity of ``plus``).
        one: the value of the empty path (identity of ``times``).
        edge_value: maps an edge weight to a path value (defaults to identity).
        is_better: strict improvement test used by iterative algorithms to
            decide whether a newly derived value replaces the old one.
    """

    name: str
    plus: Callable[[object, object], object]
    times: Callable[[object, object], object]
    zero: object
    one: object
    edge_value: Callable[[float], object] = lambda weight: weight
    is_better: Optional[Callable[[object, object], bool]] = None


def reachability_semiring() -> Semiring:
    """Boolean reachability: any path counts, values are True/False."""
    return Semiring(
        name="reachability",
        plus=lambda a, b: a or b,
        times=lambda a, b: a and b,
        zero=False,
        one=True,
        edge_value=lambda weight: True,
        is_better=lambda candidate, incumbent: bool(candidate) and not bool(incumbent),
    )


def shortest_path_semiring() -> Semiring:
    """Shortest paths: path value is the sum of edge weights, alternatives take the minimum."""
    return Semiring(
        name="shortest_path",
        plus=min,
        times=lambda a, b: a + b,
        zero=math.inf,
        one=0.0,
        edge_value=float,
        is_better=lambda candidate, incumbent: candidate < incumbent,  # type: ignore[operator]
    )


def widest_path_semiring() -> Semiring:
    """Widest (maximum-capacity) paths: bottleneck along a path, best alternative wins."""
    return Semiring(
        name="widest_path",
        plus=max,
        times=min,
        zero=0.0,
        one=math.inf,
        edge_value=float,
        is_better=lambda candidate, incumbent: candidate > incumbent,  # type: ignore[operator]
    )


def path_count_semiring() -> Semiring:
    """Count the number of distinct (simple-use) derivations of a connection.

    A bill-of-materials style aggregation: "in how many ways is part A used
    inside assembly B?".  Note this semiring is not idempotent, so iterative
    algorithms must bound the iteration count on cyclic graphs; the layered
    DAG generators in :mod:`repro.generators.structured` are its natural
    inputs.
    """
    return Semiring(
        name="path_count",
        plus=lambda a, b: a + b,
        times=lambda a, b: a * b,
        zero=0,
        one=1,
        edge_value=lambda weight: 1,
        is_better=lambda candidate, incumbent: candidate != incumbent,
    )
