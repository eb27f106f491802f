"""Parallel Hierarchical Evaluation (the extension sketched in Sec. 5).

When the fragmentation graph is very complex — many fragments, many cycles —
enumerating all fragment chains for a query becomes expensive.  The paper's
remedy (introduced in reference [12] and summarised in its conclusions) is a
*high-speed network*: a separate fragment that must be traversed whenever a
query travels between non-adjacent fragments.  Think of the European intercity
rail backbone: a query from a Dutch regional station to an Italian one goes
regional network → backbone → regional network, so only three fragments are
ever involved regardless of how many regional fragments exist.

:class:`HierarchicalEngine` implements that scheme on top of the regular
machinery:

* a *backbone* fragment is built from the complementary-information shortcuts
  of every disconnection set (border-to-border global best values);
* a query between non-adjacent fragments is planned as the fixed
  three-element chain (source fragment, backbone, target fragment);
* queries within a fragment or between adjacent fragments get the ordinary
  chain plan; either way the query runs through the query core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from ..closure import shortest_path_semiring
from ..exceptions import DisconnectedError
from ..fragmentation import Fragmentation
from ..graph import DiGraph
from .catalog import DistributedCatalog, FragmentSite
from .engine import QueryAnswer, answer_in_process
from .local_query import LocalQueryEvaluator
from .planner import ChainPlan, LocalQuerySpec, QueryPlan, QueryPlanner

Node = Hashable


@dataclass
class BackboneStatistics:
    """Size of the high-speed network fragment."""

    node_count: int
    edge_count: int


class HierarchicalEngine:
    """Parallel hierarchical evaluation of shortest paths over a fragmentation."""

    def __init__(self, fragmentation: Fragmentation) -> None:
        semiring = shortest_path_semiring()
        self._fragmentation = fragmentation
        self._catalog = DistributedCatalog(fragmentation, semiring=semiring)
        self._planner = QueryPlanner(self._catalog)
        self._evaluator = LocalQueryEvaluator(semiring=semiring)
        self._backbone_site = self._build_backbone()

    # -------------------------------------------------------------- backbone

    def _build_backbone(self) -> FragmentSite:
        """Assemble the high-speed network fragment.

        The backbone connects **all** border nodes of the fragmentation with
        the best path value between them in the full graph, so a query that
        has reached any border node can jump to any other border node in a
        single backbone hop — this is the "mandatorily traversed" separate
        fragment of parallel hierarchical evaluation.  Computing it is a
        heavier precomputation than the per-disconnection-set complementary
        information, which is exactly the trade-off the extension makes:
        more precomputed data for a fragmentation-graph-independent plan.
        """
        from ..graph import dijkstra

        backbone = DiGraph()
        all_border = set().union(*self._fragmentation.disconnection_sets().values())
        graph = self._fragmentation.graph
        for source in sorted(all_border, key=repr):
            if not graph.has_node(source):
                continue
            distances, _ = dijkstra(graph, source, targets=set(all_border))
            for target, weight in distances.items():
                if target != source and target in all_border:
                    backbone.add_edge(source, target, weight)
        border_nodes = frozenset(backbone.nodes())
        return FragmentSite(
            fragment_id=-1,
            subgraph=backbone,
            border_nodes=border_nodes,
            shortcuts=[],
            neighbours=[],
            disconnection_sets={},
        )

    def backbone_statistics(self) -> BackboneStatistics:
        """Return the size of the high-speed network fragment."""
        return BackboneStatistics(
            node_count=self._backbone_site.subgraph.node_count(),
            edge_count=self._backbone_site.subgraph.edge_count(),
        )

    # --------------------------------------------------------------- queries

    def query(self, source: Node, target: Node) -> QueryAnswer:
        """Answer a best-path query using the hierarchical three-fragment plan.

        Endpoints that share a fragment or live in adjacent fragments need
        no backbone traversal and get the ordinary chain plan.

        Raises:
            NoChainError: if an endpoint is stored nowhere.
            PlanTruncatedError: if a near pair's chain plan is cut at the cap.
        """
        return answer_in_process(self._catalog, self, self._evaluator, self._site, source, target)

    def shortest_path_cost(self, source: Node, target: Node) -> float:
        """Return the cheapest path cost between two nodes (hierarchical plan).

        Raises:
            DisconnectedError: when no path exists.
        """
        answer = self.query(source, target)
        if not answer.exists():
            raise DisconnectedError(f"{target!r} is not reachable from {source!r}")
        return float(answer.value)  # type: ignore[arg-type]

    def plan(self, source: Node, target: Node) -> QueryPlan:
        """Plan (source fragment, backbone ``-1``, target fragment) for non-adjacent fragments.

        Any other pair gets the ordinary planner's plan (or its error).
        """
        source_fragments = self._catalog.sites_storing_node(source)
        target_fragments = self._catalog.sites_storing_node(target)
        fragmentation = self._fragmentation
        if (
            not source_fragments
            or not target_fragments
            or set(source_fragments) & set(target_fragments)
            or any(
                j in fragmentation.adjacent_fragments(i)
                for i in source_fragments
                for j in target_fragments
            )
        ):
            return self._planner.plan(source, target)
        source_fragment, target_fragment = source_fragments[0], target_fragments[0]
        source_border = frozenset(fragmentation.border_nodes(source_fragment))
        target_border = frozenset(fragmentation.border_nodes(target_fragment))
        specs = (
            LocalQuerySpec(source_fragment, frozenset([source]), source_border),
            LocalQuerySpec(-1, source_border, target_border),
            LocalQuerySpec(target_fragment, target_border, frozenset([target])),
        )
        chain = ChainPlan(
            chain=(source_fragment, -1, target_fragment),
            local_queries=specs,
            source=source,
            target=target,
        )
        return QueryPlan(source=source, target=target, chains=[chain])

    def _site(self, fragment_id: int) -> FragmentSite:
        return self._backbone_site if fragment_id == -1 else self._catalog.site(fragment_id)
