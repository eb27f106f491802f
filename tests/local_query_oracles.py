"""The dict-based per-source local evaluator, kept as a reference implementation.

This is what ``LocalQueryEvaluator`` ran per fragment before the compact
kernels: one ``dijkstra`` / ``bfs_levels`` over the site's dict subgraph per
entry node.  It defines the answers; the kernel path must reproduce them
(exactly for reachability, to rounding for shortest paths whose backward
searches add the weights in the other order).  It never builds a compact
graph and never touches a transit table.
"""

from __future__ import annotations

from typing import Optional

from repro.closure import Semiring, shortest_path_semiring
from repro.disconnection.catalog import FragmentSite
from repro.disconnection.local_query import LocalQueryResult
from repro.disconnection.planner import LocalQuerySpec
from repro.graph import bfs_levels, dijkstra


def dict_local_query(
    site: FragmentSite,
    spec: LocalQuerySpec,
    semiring: Optional[Semiring] = None,
    *,
    use_shortcuts: bool = True,
) -> LocalQueryResult:
    """Evaluate ``spec`` with one dict search per entry node (standard semirings)."""
    semiring = semiring or shortest_path_semiring()
    graph = site.augmented_subgraph() if use_shortcuts else site.subgraph
    result = LocalQueryResult(fragment_id=spec.fragment_id, backend="dict")
    entry_nodes = [node for node in spec.entry_nodes if graph.has_node(node)]
    exit_nodes = {node for node in spec.exit_nodes if graph.has_node(node)}
    if not entry_nodes or not exit_nodes:
        return result
    for entry in entry_nodes:
        if semiring.name == "shortest_path":
            reached, _ = dijkstra(graph, entry, targets=set(exit_nodes))
        elif semiring.name == "reachability":
            reached = dict.fromkeys(bfs_levels(graph, entry), True)
        else:
            raise ValueError(f"no dict oracle for the {semiring.name!r} semiring")
        produced = 0
        for exit_node in exit_nodes:
            if exit_node in reached:
                result.values[(entry, exit_node)] = reached[exit_node]
                produced += 1
        result.statistics.record_round(len(reached), produced)
    return result

