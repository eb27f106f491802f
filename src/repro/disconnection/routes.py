"""Routes: the node sequence behind a shortest-path answer.

The paper's motivating question is not only "what is the *cost* of the
shortest path between Amsterdam and Milan?" but also which route realises it.
:meth:`~repro.disconnection.engine.DisconnectionSetEngine.route` answers both
from the one border-graph call that answers the cost: its answer names the
fragments of the best path's segments (``chain``) and the border nodes
between them (``borders``), so segment ``i`` runs inside ``chain[i]`` from
the source or ``borders[i - 1]`` to ``borders[i]`` or the target.
:func:`trace_route` turns those segments into nodes:

1. each segment is walked by one targeted search on its fragment's site
   graph, the graph its value came from;
2. a hop that a complementary shortcut supplied (no fragment edge, or a
   heavier one) is expanded by a shortest-path search over the whole graph,
   the same kind of search the shortcut's value came from.

Nothing is kept for routes between queries: no predecessor rows, and no node
sequences next to the complementary values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, List, Optional, Sequence, Tuple

from ..closure import array_dijkstra, reconstruct_id_path
from ..graph import DiGraph, shortest_path
from .catalog import FragmentSite
from .local_query import LocalQueryEvaluator

Node = Hashable


@dataclass
class RoutedAnswer:
    """A best path together with the route that realises it.

    Attributes:
        source, target: the queried endpoints.
        cost: the total path cost.
        route: the node sequence from ``source`` to ``target`` in the base
            graph (shortcut edges fully expanded).
        chain: the fragments of the route's segments, in order (``None`` for
            a node to itself).
    """

    source: Node
    target: Node
    cost: float
    route: List[Node] = field(default_factory=list)
    chain: Optional[Tuple[int, ...]] = None

    def hops(self) -> int:
        """Return the number of edges on the route."""
        return max(0, len(self.route) - 1)


def trace_route(
    segments: Sequence[Tuple[int, Node, Node]],
    site_of: Callable[[int], FragmentSite],
    graph: DiGraph,
    evaluator: LocalQueryEvaluator,
) -> List[Node]:
    """Return the base-graph node sequence along ``segments``.

    ``segments`` are ``(fragment, entry, exit)`` triples in path order, each
    walked on ``site_of(fragment)``'s site graph as ``evaluator`` sees it
    (with or without its shortcuts); ``graph`` is the whole base graph
    shortcut hops are expanded over.
    """
    route = [segments[0][1]]
    for fragment_id, entry, exit_node in segments:
        site = site_of(fragment_id)
        site_graph = site.compact(use_shortcuts=evaluator.use_shortcuts)
        entry_id, exit_id = site_graph.node_id(entry), site_graph.node_id(exit_node)
        _, predecessors, _ = array_dijkstra(site_graph, entry_id, target_ids=[exit_id])
        walk = [site_graph.node_of(i) for i in reconstruct_id_path(predecessors, entry_id, exit_id)]
        base = site.subgraph
        for a, b in zip(walk, walk[1:]):
            if base.has_edge(a, b) and base.edge_weight(a, b) <= site_graph.edge_weight(a, b):
                route.append(b)
            else:
                route.extend(shortest_path(graph, a, b)[1][1:])
    return route
