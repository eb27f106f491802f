"""Shortest-path algorithms on :class:`~repro.graph.digraph.DiGraph`.

The disconnection set approach needs shortest paths at three places:

* precomputing the *complementary information* — shortest paths among the
  border nodes of a fragment (all-pairs within a fragment, restricted to the
  disconnection sets),
* evaluating the per-fragment subqueries ("find a path from the Dutch border
  to the southern German border"),
* the centralised baseline the parallel evaluation is compared against.

We provide Dijkstra (single source, optionally stopping once a target set is
settled), path reconstruction, and the hop diameter.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from ..exceptions import DisconnectedError, NegativeWeightError, NodeNotFoundError
from .digraph import DiGraph

Node = Hashable

INFINITY = math.inf


def dijkstra(
    graph: DiGraph,
    source: Node,
    *,
    targets: Optional[Iterable[Node]] = None,
) -> Tuple[Dict[Node, float], Dict[Node, Node]]:
    """Run Dijkstra's algorithm from ``source``.

    Args:
        graph: the graph; every edge weight must be non-negative.
        source: the start node.
        targets: optional set of nodes; when given, the search stops as soon
            as all of them have been settled (an optimisation used when only
            the distances to a disconnection set are needed).

    Returns:
        A pair ``(distances, predecessors)``.  ``distances`` maps every
        settled node to its distance from ``source``; ``predecessors`` maps a
        node to the previous node on one shortest path.

    Raises:
        NodeNotFoundError: if ``source`` is not in the graph.
        NegativeWeightError: if a negative edge weight is encountered.
    """
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    remaining = set(targets) if targets is not None else None
    distances: Dict[Node, float] = {}
    predecessors: Dict[Node, Node] = {}
    counter = 0
    heap: List[Tuple[float, int, Node]] = [(0.0, counter, source)]
    tentative: Dict[Node, float] = {source: 0.0}
    while heap:
        distance, _, node = heapq.heappop(heap)
        if node in distances:
            continue
        distances[node] = distance
        if remaining is not None:
            remaining.discard(node)
            if not remaining:
                break
        for successor, weight in graph.successor_items(node):
            if weight < 0:
                raise NegativeWeightError(
                    f"edge ({node!r}, {successor!r}) has negative weight {weight}"
                )
            candidate = distance + weight
            if successor not in distances and candidate < tentative.get(successor, INFINITY):
                tentative[successor] = candidate
                predecessors[successor] = node
                counter += 1
                heapq.heappush(heap, (candidate, counter, successor))
    return distances, predecessors


def shortest_path_length(graph: DiGraph, source: Node, target: Node) -> float:
    """Return the length of the shortest path from ``source`` to ``target``.

    Raises:
        DisconnectedError: if ``target`` is unreachable from ``source``.
    """
    if not graph.has_node(target):
        raise NodeNotFoundError(target)
    distances, _ = dijkstra(graph, source, targets=[target])
    if target not in distances:
        raise DisconnectedError(f"{target!r} is not reachable from {source!r}")
    return distances[target]


def shortest_path(graph: DiGraph, source: Node, target: Node) -> Tuple[float, List[Node]]:
    """Return ``(length, node_sequence)`` for a shortest path from ``source`` to ``target``.

    Raises:
        DisconnectedError: if ``target`` is unreachable from ``source``.
    """
    if not graph.has_node(target):
        raise NodeNotFoundError(target)
    distances, predecessors = dijkstra(graph, source, targets=[target])
    if target not in distances:
        raise DisconnectedError(f"{target!r} is not reachable from {source!r}")
    return distances[target], reconstruct_path(predecessors, source, target)


def reconstruct_path(predecessors: Dict[Node, Node], source: Node, target: Node) -> List[Node]:
    """Rebuild the node sequence of a path from a predecessor map."""
    path = [target]
    node = target
    while node != source:
        node = predecessors[node]
        path.append(node)
    path.reverse()
    return path


def hop_diameter(graph: DiGraph) -> int:
    """Return the diameter in hops over reachable pairs (0 for empty graphs).

    Edges count in both directions (the fragment-diameter view of the paper's
    cost argument).  Unreachable pairs are ignored, matching the intuition
    that the diameter of a fragment is the longest path *within* the
    fragment.  All sources are swept together by the bit-parallel kernel
    :func:`repro.closure.kernels.bitset_diameter`.
    """
    # Imported here: the closure package is built on top of this one.
    from ..closure.kernels import bitset_diameter

    ids = {node: index for index, node in enumerate(graph)}
    return bitset_diameter([[ids[other] for other in graph.neighbors(node)] for node in ids])
