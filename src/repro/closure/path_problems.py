"""High-level path-problem entry points.

These wrap the closure algorithms behind the questions the paper's
introduction motivates: "Is A connected to B?", "What is the cost of the
shortest path between A and B?" and bill-of-material aggregations.  They are
the *centralised* answers; :mod:`repro.disconnection` answers the same
questions through the fragmented, parallel strategy, and the integration tests
check both agree.
"""

from __future__ import annotations

from typing import Hashable

from ..exceptions import DisconnectedError
from ..graph import DiGraph
from .base import ClosureResult
from .iterative import seminaive_transitive_closure
from .semiring import path_count_semiring
from .warshall import bfs_closure, dijkstra_closure

Node = Hashable

# Iteration bound of the bill-of-materials count: the counting semiring is
# not idempotent, so a (malformed) cyclic part hierarchy must still stop.
BOM_MAX_DEPTH = 64


def is_connected(graph: DiGraph, source: Node, target: Node) -> bool:
    """Answer "is ``source`` connected to ``target``?" on the whole graph."""
    if not graph.has_node(source) or not graph.has_node(target):
        return False
    if source == target:
        return True
    result = bfs_closure(graph, sources=[source])
    return result.reaches(source, target)


def shortest_path_cost(graph: DiGraph, source: Node, target: Node) -> float:
    """Return the cost of the cheapest path from ``source`` to ``target``.

    Raises:
        DisconnectedError: if no path exists.
    """
    result = dijkstra_closure(graph, sources=[source], targets={target})
    value = result.value(source, target)
    if value is None:
        if source == target and graph.has_node(source):
            return 0.0
        raise DisconnectedError(f"{target!r} is not reachable from {source!r}")
    return float(value)  # type: ignore[arg-type]


def bill_of_materials(graph: DiGraph) -> ClosureResult:
    """Count, for every (assembly, part) pair, the number of distinct usage paths.

    The graph must be acyclic (a part hierarchy); :data:`BOM_MAX_DEPTH`
    rounds bound the iteration as a safety net because the counting semiring
    is not idempotent.
    """
    return seminaive_transitive_closure(
        graph, semiring=path_count_semiring(), max_iterations=BOM_MAX_DEPTH
    )
