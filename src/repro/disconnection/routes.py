"""Routes: the node sequence behind a shortest-path answer.

The paper's motivating question is not only "what is the *cost* of the
shortest path between Amsterdam and Milan?" but also which route realises it.
:meth:`~repro.disconnection.engine.DisconnectionSetEngine.route` answers both
from the one query-core call that answers the cost, and :func:`trace_route`
turns that call's output into nodes:

1. the best chain's join is repeated with back-pointers over the per-fragment
   results the core returned, so the entry and exit chosen in each fragment
   are the ones behind the query's value;
2. each fragment segment is walked by one targeted search on the site graph
   those results came from;
3. a hop that a complementary shortcut supplied (no fragment edge, or a
   heavier one) is expanded by a shortest-path search over the whole graph,
   the same kind of search the shortcut's value came from.

Nothing is kept for routes between queries: no predecessor rows, and no node
sequences next to the complementary values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..closure import Semiring, array_dijkstra, reconstruct_id_path
from ..graph import DiGraph, shortest_path
from .catalog import FragmentSite
from .local_query import LocalQueryEvaluator, LocalQueryResult
from .planner import ChainPlan

Node = Hashable


@dataclass
class RoutedAnswer:
    """A best path together with the route that realises it.

    Attributes:
        source, target: the queried endpoints.
        cost: the total path cost.
        route: the node sequence from ``source`` to ``target`` in the base
            graph (shortcut edges fully expanded).
        chain: the fragment chain the route was assembled from (``None`` for
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
    chain: ChainPlan,
    results: Sequence[LocalQueryResult],
    site_of: Callable[[int], FragmentSite],
    graph: DiGraph,
    evaluator: LocalQueryEvaluator,
) -> List[Node]:
    """Return the base-graph node sequence behind ``chain``'s assembled value.

    ``results`` are the chain's local results in chain order, as
    ``evaluator`` computed them on ``site_of``'s sites; each segment is walked
    on the same site graph.  ``graph`` is the whole base graph shortcut hops
    are expanded over.
    """
    route = [chain.source]
    for fragment_id, entry, exit_node in _segments(chain, results, evaluator.semiring):
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


def _segments(
    chain: ChainPlan, results: Sequence[LocalQueryResult], semiring: Semiring
) -> List[Tuple[int, Node, Node]]:
    """``(fragment, entry, exit)`` per chain fragment on the way to the assembled value.

    The join of :func:`~repro.disconnection.assembly.assemble_chain`, step
    for step, with a back-pointer per reached exit node.
    """
    frontier: Dict[Node, object] = {chain.source: semiring.one}
    pointers: List[Dict[Node, Node]] = []
    for result in results:
        reached: Dict[Node, object] = {}
        pointer: Dict[Node, Node] = {}
        for (entry, exit_node), local_value in result.values.items():
            if entry not in frontier:
                continue
            candidate = semiring.times(frontier[entry], local_value)
            incumbent = reached.get(exit_node)
            best = candidate if incumbent is None else semiring.plus(incumbent, candidate)
            if best != incumbent:
                pointer[exit_node] = entry
            reached[exit_node] = best
        frontier = reached
        pointers.append(pointer)
    segments = []
    node = chain.target
    for result, pointer in zip(reversed(results), reversed(pointers)):
        entry = pointer[node]
        segments.append((result.fragment_id, entry, node))
        node = entry
    segments.reverse()
    return segments
