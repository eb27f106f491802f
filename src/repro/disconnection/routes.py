"""Route reconstruction: turning disconnection-set answers into node sequences.

The paper's motivating question is not only "what is the *cost* of the
shortest path between Amsterdam and Milan?" but also which route realises it.
Reconstructing the route distributedly needs two extra ingredients on top of
the cost machinery:

* each per-fragment subquery must remember, per (entry, exit) pair, the node
  sequence inside its (augmented) fragment subgraph, and
* shortcut edges taken from the complementary information must be expanded
  back into the real nodes they summarise — which requires the complementary
  information to have been precomputed with ``store_paths=True``.

:class:`RouteReconstructingEngine` wraps the same catalog/planner machinery as
:class:`~repro.disconnection.engine.DisconnectionSetEngine` and adds the
book-keeping; it only supports the shortest-path semiring (routes are not
meaningful for plain reachability).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import Dict, Hashable, List, Optional, Tuple

from ..closure import array_dijkstra, reconstruct_id_path
from ..exceptions import DisconnectedError, NoChainError
from ..fragmentation import Fragmentation
from ..graph import DiGraph
from .catalog import DistributedCatalog, FragmentSite
from .complementary import ComplementaryInformation, precompute_complementary_information
from .planner import ChainPlan, LocalQuerySpec, QueryPlanner

Node = Hashable


@dataclass
class RoutedAnswer:
    """A best path together with the route that realises it.

    Attributes:
        source, target: the queried endpoints.
        cost: the total path cost.
        route: the node sequence from ``source`` to ``target`` in the base
            graph (shortcut edges fully expanded).
        chain: the fragment chain the route was assembled from.
    """

    source: Node
    target: Node
    cost: float
    route: List[Node] = field(default_factory=list)
    chain: Tuple[int, ...] = ()

    def hops(self) -> int:
        """Return the number of edges on the route."""
        return max(0, len(self.route) - 1)


@dataclass
class _LocalRoutes:
    """Per-fragment entry-to-exit costs and node sequences."""

    values: Dict[Tuple[Node, Node], float] = field(default_factory=dict)
    paths: Dict[Tuple[Node, Node], List[Node]] = field(default_factory=dict)


class RouteReconstructingEngine:
    """Answer shortest-path queries with full route reconstruction.

    Args:
        fragmentation: the deployed fragmentation.
        complementary: optionally reuse complementary information; it must
            have been precomputed with ``store_paths=True`` (the constructor
            recomputes it with paths otherwise).
    """

    def __init__(
        self,
        fragmentation: Fragmentation,
        *,
        complementary: Optional[ComplementaryInformation] = None,
    ) -> None:
        if complementary is None or not complementary.paths:
            complementary = precompute_complementary_information(fragmentation, store_paths=True)
        self._complementary = complementary
        self._catalog = DistributedCatalog(fragmentation, complementary=complementary)
        self._planner = QueryPlanner(self._catalog)

    @property
    def catalog(self) -> DistributedCatalog:
        """The distributed catalog the engine queries."""
        return self._catalog

    # ---------------------------------------------------------------- public

    def shortest_path(self, source: Node, target: Node) -> RoutedAnswer:
        """Return the cheapest route from ``source`` to ``target``.

        Raises:
            NoChainError: when an endpoint is stored nowhere or no fragment
                chain connects the endpoints.
            DisconnectedError: when the chain exists but no path does.
        """
        if source == target and self._catalog.sites_storing_node(source):
            return RoutedAnswer(source=source, target=target, cost=0.0, route=[source])
        plan = self._planner.plan(source, target)
        best: Optional[RoutedAnswer] = None
        for chain_plan in plan.chains:
            candidate = self._evaluate_chain(chain_plan)
            if candidate is None:
                continue
            if best is None or candidate.cost < best.cost:
                best = candidate
        if best is None:
            raise DisconnectedError(f"{target!r} is not reachable from {source!r}")
        return best

    # -------------------------------------------------------------- internals

    def _evaluate_chain(self, plan: ChainPlan) -> Optional[RoutedAnswer]:
        """Evaluate one chain with route book-keeping; return None when no path exists."""
        local_results = [
            self._evaluate_local(self._site_for(spec), spec) for spec in plan.local_queries
        ]
        # Dynamic program over the chain with back-pointers.
        frontier: Dict[Node, Tuple[float, List[Node]]] = {plan.source: (0.0, [plan.source])}
        for local in local_results:
            next_frontier: Dict[Node, Tuple[float, List[Node]]] = {}
            for (entry, exit_node), value in local.values.items():
                if entry not in frontier:
                    continue
                accumulated_cost, accumulated_route = frontier[entry]
                candidate_cost = accumulated_cost + value
                incumbent = next_frontier.get(exit_node)
                if incumbent is None or candidate_cost < incumbent[0]:
                    segment = local.paths[(entry, exit_node)]
                    next_frontier[exit_node] = (
                        candidate_cost,
                        _join_routes(accumulated_route, segment),
                    )
            frontier = next_frontier
            if not frontier:
                return None
        if plan.target not in frontier:
            return None
        cost, route = frontier[plan.target]
        return RoutedAnswer(
            source=plan.source,
            target=plan.target,
            cost=cost,
            route=self._expand_shortcuts(route),
            chain=plan.chain,
        )

    def _site_for(self, spec: LocalQuerySpec) -> FragmentSite:
        return self._catalog.site(spec.fragment_id)

    def _evaluate_local(self, site: FragmentSite, spec: LocalQuerySpec) -> _LocalRoutes:
        """Per-fragment Dijkstra with predecessor tracking on the site's cached CSR graph.

        ``array_dijkstra`` returns a flat predecessor array; ids are
        translated back through the interner when a path is materialised, so
        downstream shortcut expansion sees original nodes.
        """
        graph = site.compact()
        result = _LocalRoutes()
        exits = [
            (node, node_id)
            for node in spec.exit_nodes
            for node_id in (graph.try_node_id(node),)
            if node_id >= 0
        ]
        if not exits:
            return result
        target_ids = [exit_id for _, exit_id in exits]
        for entry in spec.entry_nodes:
            entry_id = graph.try_node_id(entry)
            if entry_id < 0:
                continue
            distances, predecessors, _ = array_dijkstra(graph, entry_id, target_ids=target_ids)
            for exit_node, exit_id in exits:
                if distances[exit_id] == inf:
                    continue
                result.values[(entry, exit_node)] = distances[exit_id]
                path_ids = reconstruct_id_path(predecessors, entry_id, exit_id)
                result.paths[(entry, exit_node)] = [graph.node_of(p) for p in path_ids]
        return result

    def _expand_shortcuts(self, route: List[Node]) -> List[Node]:
        """Replace shortcut hops in ``route`` by the real nodes they summarise.

        A hop (a, b) of the stitched route is a shortcut when it is not an
        edge of the base graph; the complementary information stores the node
        sequence realising it.
        """
        base_graph: DiGraph = self._catalog.fragmentation.graph
        expanded: List[Node] = []
        for index, node in enumerate(route):
            if index == 0:
                expanded.append(node)
                continue
            previous = route[index - 1]
            stored = self._complementary.path_between(previous, node)
            if base_graph.has_edge(previous, node):
                # A border pair may have both a direct edge and a cheaper
                # precomputed detour; the local search used whichever was
                # cheaper, so pick the expansion matching that choice.
                direct_weight = base_graph.edge_weight(previous, node)
                if stored is not None and _route_cost(base_graph, stored) < direct_weight:
                    expanded.extend(stored[1:])
                else:
                    expanded.append(node)
                continue
            if stored is None:
                # The hop must be a zero-length repetition (entry == exit on a
                # border node); keep the node without duplicating it.
                if previous != node:
                    expanded.append(node)
                continue
            expanded.extend(stored[1:])
        return _dedupe_consecutive(expanded)


def _route_cost(graph: DiGraph, route: List[Node]) -> float:
    """Return the total edge weight of ``route`` in ``graph``."""
    return sum(graph.edge_weight(a, b) for a, b in zip(route, route[1:]))


def _join_routes(prefix: List[Node], segment: List[Node]) -> List[Node]:
    """Concatenate two node sequences that share their junction node."""
    if not prefix:
        return list(segment)
    if not segment:
        return list(prefix)
    if prefix[-1] == segment[0]:
        return prefix + segment[1:]
    return prefix + segment


def _dedupe_consecutive(route: List[Node]) -> List[Node]:
    """Remove consecutive duplicates introduced by zero-length junction hops."""
    cleaned: List[Node] = []
    for node in route:
        if not cleaned or cleaned[-1] != node:
            cleaned.append(node)
    return cleaned
