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
* a query between non-adjacent fragments is evaluated over the fixed
  three-element chain (source fragment, backbone, target fragment);
* queries within a fragment or between adjacent fragments fall back to the
  ordinary disconnection-set engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Optional

from ..closure import Semiring, shortest_path_semiring
from ..exceptions import DisconnectedError, NoChainError
from ..fragmentation import Fragmentation
from ..graph import DiGraph
from .catalog import DistributedCatalog, FragmentSite
from .complementary import ComplementaryInformation, precompute_complementary_information
from .engine import DisconnectionSetEngine, ExecutionReport, QueryAnswer
from .local_query import LocalQueryEvaluator
from .planner import ChainPlan, LocalQuerySpec
from .assembly import assemble_chain

Node = Hashable


@dataclass
class BackboneStatistics:
    """Size of the high-speed network fragment."""

    node_count: int
    edge_count: int


class HierarchicalEngine:
    """Parallel hierarchical evaluation over a fragmentation.

    Args:
        fragmentation: the base fragmentation.
        semiring: the path problem (defaults to shortest paths).
    """

    def __init__(
        self,
        fragmentation: Fragmentation,
        *,
        semiring: Optional[Semiring] = None,
    ) -> None:
        self._semiring = semiring or shortest_path_semiring()
        self._fragmentation = fragmentation
        self._complementary = precompute_complementary_information(
            fragmentation, semiring=self._semiring
        )
        self._catalog = DistributedCatalog(
            fragmentation, semiring=self._semiring, complementary=self._complementary
        )
        self._fallback = DisconnectionSetEngine(
            fragmentation, semiring=self._semiring, complementary=self._complementary
        )
        self._evaluator = LocalQueryEvaluator(semiring=self._semiring)
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
        from ..graph import bfs_levels, dijkstra

        backbone = DiGraph()
        all_border: set = set()
        for (i, j), pairs in self._complementary.values.items():
            for (a, b) in pairs:
                all_border.add(a)
                all_border.add(b)
        for border in self._fragmentation.disconnection_sets().values():
            all_border |= set(border)
        graph = self._fragmentation.graph
        for source in sorted(all_border, key=repr):
            if not graph.has_node(source):
                continue
            if self._semiring.name == "shortest_path":
                distances, _ = dijkstra(graph, source, targets=set(all_border))
                reachable = {t: d for t, d in distances.items() if t in all_border}
            else:
                levels = bfs_levels(graph, source)
                reachable = {t: 0.0 for t in levels if t in all_border}
            for target, weight in reachable.items():
                if target == source:
                    continue
                if backbone.has_edge(source, target):
                    if weight < backbone.edge_weight(source, target):
                        backbone.add_edge(source, target, weight)
                else:
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

        Falls back to the plain engine when the endpoints share a fragment or
        live in adjacent fragments (no backbone traversal needed).
        """
        source_fragments = self._catalog.sites_storing_node(source)
        target_fragments = self._catalog.sites_storing_node(target)
        if not source_fragments:
            raise NoChainError(f"node {source!r} is not stored in any fragment")
        if not target_fragments:
            raise NoChainError(f"node {target!r} is not stored in any fragment")
        if self._share_or_adjacent(source_fragments, target_fragments):
            return self._fallback.query(source, target)
        return self._query_via_backbone(source, target, source_fragments[0], target_fragments[0])

    def shortest_path_cost(self, source: Node, target: Node) -> float:
        """Return the cheapest path cost between two nodes (hierarchical plan).

        Raises:
            DisconnectedError: when no path exists.
        """
        answer = self.query(source, target)
        if not answer.exists():
            raise DisconnectedError(f"{target!r} is not reachable from {source!r}")
        return float(answer.value)  # type: ignore[arg-type]

    def _share_or_adjacent(self, source_fragments: List[int], target_fragments: List[int]) -> bool:
        if set(source_fragments) & set(target_fragments):
            return True
        for i in source_fragments:
            for j in target_fragments:
                if j in self._fragmentation.adjacent_fragments(i):
                    return True
        return False

    def _query_via_backbone(
        self,
        source: Node,
        target: Node,
        source_fragment: int,
        target_fragment: int,
    ) -> QueryAnswer:
        """Evaluate the fixed chain: source fragment -> backbone -> target fragment."""
        source_border = self._fragmentation.border_nodes(source_fragment)
        target_border = self._fragmentation.border_nodes(target_fragment)
        specs = (
            LocalQuerySpec(
                fragment_id=source_fragment,
                entry_nodes=frozenset([source]),
                exit_nodes=frozenset(source_border),
            ),
            LocalQuerySpec(
                fragment_id=-1,
                entry_nodes=frozenset(source_border),
                exit_nodes=frozenset(target_border),
            ),
            LocalQuerySpec(
                fragment_id=target_fragment,
                entry_nodes=frozenset(target_border),
                exit_nodes=frozenset([target]),
            ),
        )
        plan = ChainPlan(
            chain=(source_fragment, -1, target_fragment),
            local_queries=specs,
            source=source,
            target=target,
        )
        report = ExecutionReport()
        report.planned_fragments = 3

        def site_of(fragment_id: int) -> FragmentSite:
            return self._backbone_site if fragment_id == -1 else self._catalog.site(fragment_id)

        results = self._evaluator.evaluate_many(site_of, specs)
        for local in results:
            report.record_local(local, site_of(local.fragment_id))
        assembly = assemble_chain(plan, results, semiring=self._semiring)
        report.record_assembly(assembly)
        return QueryAnswer(
            source=source,
            target=target,
            value=assembly.value,
            chain=plan.chain if assembly.value is not None else None,
            report=report,
        )
