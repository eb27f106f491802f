"""Warshall/Floyd-style closure and per-source search algorithms.

Complements the iterative fixpoints with the two other families of
single-processor algorithms the paper's reference [16] surveys:

* the Warshall dynamic-programming closure (dense, cubic, one pass),
* per-source graph searches (BFS for reachability, Dijkstra for shortest
  paths), which are the algorithms of choice when the query is restricted to
  a small set of start nodes — exactly the situation inside a fragment where
  the search starts from a disconnection set.

Above :data:`COMPACT_NODE_THRESHOLD` nodes these functions transparently
compile the graph to its compact (CSR) form and run the kernels of
:mod:`repro.closure.kernels` — identical values, dramatically cheaper hot
loops.  Tiny inputs keep the original dict-based algorithms (their statistics
are part of the paper-facing contract and the compile cost would dominate);
``use_compact`` overrides the choice either way.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional, Set

from ..graph import CompactGraph, DiGraph, bfs_levels, dijkstra
from .base import ClosureResult, ClosureStatistics, Pair
from .kernels import compact_reachability_closure, compact_shortest_path_closure
from .semiring import reachability_semiring, shortest_path_semiring

Node = Hashable

COMPACT_NODE_THRESHOLD = 64


def _auto_compact(graph: DiGraph, use_compact: Optional[bool]) -> bool:
    """Decide whether to dispatch to the compact kernels."""
    if use_compact is not None:
        return use_compact
    return graph.node_count() >= COMPACT_NODE_THRESHOLD


def warshall_closure(graph: DiGraph, *, use_compact: Optional[bool] = None) -> ClosureResult:
    """Compute the shortest-path closure with the Warshall/Floyd triple loop.

    The statistics report one "iteration" per pivot node, with
    tuples_produced counting the relaxations applied.

    Graphs at or above :data:`COMPACT_NODE_THRESHOLD` nodes are answered by
    the compact per-source kernels instead of the cubic pivot loop —
    identical values, including the cyclic ``(a, a)`` facts the pivot loop
    derives (the statistics then count per-source search work, not pivots).
    """
    semiring = shortest_path_semiring()
    if _auto_compact(graph, use_compact):
        from .iterative import seminaive_transitive_closure  # late: it imports us back

        # The seminaive compact evaluation yields exactly the idempotent
        # closure the pivot loop computes, cycle facts included.
        return seminaive_transitive_closure(graph, use_compact=True)
    values: Dict[Pair, object] = {}
    for u, v, weight in graph.weighted_edges():
        candidate = semiring.edge_value(weight)
        incumbent = values.get((u, v))
        values[(u, v)] = candidate if incumbent is None else semiring.plus(incumbent, candidate)
    stats = ClosureStatistics()
    nodes = graph.nodes()
    for pivot in nodes:
        produced = 0
        improved = 0
        into_pivot = [(a, values[(a, pivot)]) for a in nodes if (a, pivot) in values]
        from_pivot = [(c, values[(pivot, c)]) for c in nodes if (pivot, c) in values]
        for a, left in into_pivot:
            for c, right in from_pivot:
                candidate = semiring.times(left, right)
                produced += 1
                incumbent = values.get((a, c))
                if incumbent is None:
                    values[(a, c)] = candidate
                    improved += 1
                else:
                    combined = semiring.plus(incumbent, candidate)
                    if combined != incumbent:
                        values[(a, c)] = combined
                        improved += 1
        stats.record_round(produced, improved)
    return ClosureResult(values=values, semiring_name=semiring.name, statistics=stats)


def bfs_closure(
    graph: DiGraph,
    *,
    sources: Optional[Iterable[Node]] = None,
    use_compact: Optional[bool] = None,
) -> ClosureResult:
    """Compute the reachability closure by one BFS per source node.

    When ``sources`` is given, only those rows of the closure are produced —
    the per-fragment searches of the disconnection set approach restrict their
    sources to the incoming disconnection set exactly like this.  At or above
    :data:`COMPACT_NODE_THRESHOLD` nodes the per-source search runs as the
    bitset BFS kernel over the compact graph.
    """
    semiring = reachability_semiring()
    if _auto_compact(graph, use_compact):
        return compact_reachability_closure(CompactGraph.from_digraph(graph), sources=sources)
    source_list = list(sources) if sources is not None else graph.nodes()
    values: Dict[Pair, object] = {}
    stats = ClosureStatistics()
    for source in source_list:
        if not graph.has_node(source):
            continue
        levels = bfs_levels(graph, source)
        produced = 0
        for target, distance in levels.items():
            if target == source and distance == 0:
                continue
            values[(source, target)] = True
            produced += 1
        stats.record_round(produced, produced)
    return ClosureResult(values=values, semiring_name=semiring.name, statistics=stats)


def dijkstra_closure(
    graph: DiGraph,
    *,
    sources: Optional[Iterable[Node]] = None,
    targets: Optional[Set[Node]] = None,
    use_compact: Optional[bool] = None,
) -> ClosureResult:
    """Compute the shortest-path closure by one Dijkstra run per source.

    Args:
        graph: the graph.
        sources: restrict the closure rows to these start nodes (defaults to
            all nodes).
        targets: when given, each per-source run stops once all targets are
            settled, and only target columns are retained — this is the
            "border-to-border" computation used for complementary
            information.
        use_compact: force the array-heap kernel over the compact graph on
            or off; by default graphs at or above
            :data:`COMPACT_NODE_THRESHOLD` nodes use it.
    """
    semiring = shortest_path_semiring()
    if _auto_compact(graph, use_compact):
        return compact_shortest_path_closure(
            CompactGraph.from_digraph(graph), sources=sources, targets=targets
        )
    source_list = list(sources) if sources is not None else graph.nodes()
    values: Dict[Pair, object] = {}
    stats = ClosureStatistics()
    for source in source_list:
        if not graph.has_node(source):
            continue
        distances, _ = dijkstra(graph, source, targets=targets)
        produced = 0
        for target, distance in distances.items():
            if target == source:
                continue
            if targets is not None and target not in targets:
                continue
            values[(source, target)] = distance
            produced += 1
        stats.record_round(produced, produced)
    return ClosureResult(values=values, semiring_name=semiring.name, statistics=stats)
