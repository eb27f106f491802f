"""Per-fragment local query evaluation.

Each site evaluates a restricted transitive closure over its own fragment:
"the best path value from every entry node to every exit node".  The entry
nodes act as the selection the paper calls a *keyhole* — only paths travelling
through the disconnection set have to be examined — and the fragment subgraph
is augmented with the complementary-information shortcuts so paths that leave
the fragment (or the chain) are still accounted for, without communication.

Any single-processor algorithm may be used for this step (Sec. 2.1).  For the
two standard semirings the evaluator runs the compact kernels of
:mod:`repro.closure.kernels` over the site's cached
:class:`~repro.graph.compact.CompactGraph` — bitset BFS for reachability,
array-heap Dijkstra for shortest paths — and falls back to the original
dict-based searches (``use_compact=False``, the benchmark baseline) or to a
restricted semi-naive fixpoint for custom semirings.  The work counters it
returns (iterations ≈ fragment diameter, tuples produced) feed the parallel
cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from time import perf_counter
from typing import Dict, Hashable, List, Optional, Tuple

from ..closure import (
    ClosureStatistics,
    Semiring,
    array_dijkstra,
    reachability_rows,
    shortest_path_semiring,
)
from ..graph import DiGraph, bfs_levels, dijkstra
from .catalog import CompactFragmentSite, FragmentSite
from .planner import LocalQuerySpec

Node = Hashable
PathValue = object

COMPACT_SEMIRINGS = ("shortest_path", "reachability")


@dataclass
class LocalQueryResult:
    """The result of one per-fragment subquery.

    Attributes:
        fragment_id: the site that produced the result.
        values: mapping ``(entry_node, exit_node) -> best path value``.
        statistics: work counters for the local evaluation.
        estimated_iterations: the number of fixpoint iterations a semi-naive
            evaluation of this subquery needs (≈ the fragment diameter); used
            by the simulator's cost model.
        semiring: the path problem the values belong to; threads the correct
            ``plus`` into :meth:`exit_values` (set by the evaluator, absent
            on hand-built results).
        backend: which kernel backend served the evaluation (``bigint``,
            ``numpy``, ``chain``, or ``dijkstra``/``dict`` for the non-bitset
            paths); surfaces in worker payloads and trace spans.
        overlay: whether the site's compact graph carried an uncompacted
            delta overlay at evaluation time — the kernels read straight
            through it; surfaces in worker payloads and trace spans.
    """

    fragment_id: int
    values: Dict[Tuple[Node, Node], PathValue] = field(default_factory=dict)
    statistics: ClosureStatistics = field(default_factory=ClosureStatistics)
    estimated_iterations: int = 0
    semiring: Optional[Semiring] = field(default=None, repr=False, compare=False)
    backend: Optional[str] = field(default=None, compare=False)
    overlay: bool = field(default=False, compare=False)

    def exit_values(self, semiring: Optional[Semiring] = None) -> Dict[Node, PathValue]:
        """Return the best value per exit node over all entry nodes (for reporting).

        "Best" is decided by the semiring's ``plus`` (``min`` for shortest
        paths, ``or`` for reachability, ``max`` for widest paths, …), taken
        from the ``semiring`` argument or the result's own semiring.  Only
        when neither is available does the legacy raw ``<`` comparison apply,
        which is correct solely for min-style numeric path problems.
        """
        semiring = semiring or self.semiring
        best: Dict[Node, PathValue] = {}
        for (_, exit_node), value in self.values.items():
            if exit_node not in best:
                best[exit_node] = value
            elif semiring is not None:
                best[exit_node] = semiring.plus(best[exit_node], value)
            elif value < best[exit_node]:  # type: ignore[operator]
                best[exit_node] = value
        return best

    def is_empty(self) -> bool:
        """Return ``True`` when no entry node reaches any exit node."""
        return not self.values


class LocalQueryEvaluator:
    """Evaluates :class:`LocalQuerySpec` subqueries against a fragment site.

    Args:
        semiring: the path problem (defaults to shortest paths).
        use_shortcuts: disable to evaluate on the bare fragment subgraph
            (ablation runs).
        use_compact: evaluate the two standard semirings with the compact
            kernels over the site's cached ``CompactGraph`` (the default).
            ``False`` forces the original dict-based per-source searches —
            kept as the benchmark baseline and for sites without a compact
            form.  Custom semirings always use the dict-based fixpoint.
        backend: pin a reachability kernel backend (``bigint``, ``numpy`` or
            ``chain``) instead of letting :func:`repro.closure.select_kernel`
            choose by shape; answers are identical either way.

    The evaluator accepts either a full :class:`FragmentSite` or the
    plain-data :class:`CompactFragmentSite` a resident worker holds; the
    latter supports compact evaluation only.
    """

    def __init__(
        self,
        *,
        semiring: Optional[Semiring] = None,
        use_shortcuts: bool = True,
        use_compact: bool = True,
        backend: Optional[str] = None,
    ) -> None:
        self._semiring = semiring or shortest_path_semiring()
        self._use_shortcuts = use_shortcuts
        self._use_compact = use_compact
        self._backend = backend

    @property
    def semiring(self) -> Semiring:
        """The path problem being evaluated."""
        return self._semiring

    def evaluate(
        self, site: FragmentSite | CompactFragmentSite, spec: LocalQuerySpec
    ) -> LocalQueryResult:
        """Evaluate ``spec`` on ``site`` and return the entry-to-exit path values.

        The returned statistics carry ``elapsed_seconds``, timed here so the
        measurement happens in whichever process runs the kernel — a worker's
        in-process timing ships back with the result, needing no clock
        agreement with the coordinator.
        """
        started = perf_counter()
        result = LocalQueryResult(fragment_id=site.fragment_id, semiring=self._semiring)
        compact_only = isinstance(site, CompactFragmentSite)
        if compact_only and self._semiring.name not in COMPACT_SEMIRINGS:
            raise ValueError(
                f"a compact fragment site only supports the {COMPACT_SEMIRINGS} semirings"
            )
        if (self._use_compact or compact_only) and self._semiring.name in COMPACT_SEMIRINGS:
            result = self._evaluate_compact(site, spec, result)
        else:
            result = self._evaluate_dict(site, spec, result)
        result.statistics.elapsed_seconds = perf_counter() - started
        return result

    # ----------------------------------------------------------- kernel path

    def _evaluate_compact(
        self,
        site: FragmentSite | CompactFragmentSite,
        spec: LocalQuerySpec,
        result: LocalQueryResult,
    ) -> LocalQueryResult:
        graph = site.compact(use_shortcuts=self._use_shortcuts)
        result.overlay = graph.has_overlay()
        result.estimated_iterations = site.local_iterations()
        entries = [
            (node, node_id)
            for node in spec.entry_nodes
            for node_id in (graph.try_node_id(node),)
            if node_id >= 0
        ]
        exits = [
            (node, node_id)
            for node in spec.exit_nodes
            for node_id in (graph.try_node_id(node),)
            if node_id >= 0
        ]
        if not entries or not exits:
            return result
        if self._semiring.name == "reachability":
            exit_mask = 0
            for _, exit_id in exits:
                exit_mask |= 1 << exit_id
            rows, chosen = reachability_rows(
                graph,
                [entry_id for _, entry_id in entries],
                backend=self._backend,
                context="local_query",
                stop_mask=exit_mask,
            )
            result.backend = chosen
            for entry, entry_id in entries:
                visited = rows[entry_id]
                produced = 0
                for exit_node, exit_id in exits:
                    if (visited >> exit_id) & 1:
                        result.values[(entry, exit_node)] = True
                        produced += 1
                result.statistics.record_round(visited.bit_count(), produced)
        else:
            result.backend = "dijkstra"
            target_ids = [exit_id for _, exit_id in exits]
            for entry, entry_id in entries:
                distances, _, settled = array_dijkstra(graph, entry_id, target_ids=target_ids)
                produced = 0
                for exit_node, exit_id in exits:
                    if distances[exit_id] != inf:
                        result.values[(entry, exit_node)] = distances[exit_id]
                        produced += 1
                result.statistics.record_round(settled, produced)
        return result

    # ------------------------------------------------- dict-based strategies

    def _evaluate_dict(
        self, site: FragmentSite, spec: LocalQuerySpec, result: LocalQueryResult
    ) -> LocalQueryResult:
        graph = site.augmented_subgraph() if self._use_shortcuts else site.subgraph
        result.backend = "dict"
        entry_nodes = [node for node in spec.entry_nodes if graph.has_node(node)]
        exit_nodes = {node for node in spec.exit_nodes if graph.has_node(node)}
        result.estimated_iterations = site.local_iterations()
        if not entry_nodes or not exit_nodes:
            return result
        if self._semiring.name == "shortest_path":
            self._evaluate_shortest_path(graph, entry_nodes, exit_nodes, result)
        elif self._semiring.name == "reachability":
            self._evaluate_reachability(graph, entry_nodes, exit_nodes, result)
        else:
            self._evaluate_generic(graph, entry_nodes, exit_nodes, result)
        return result

    def _evaluate_shortest_path(
        self,
        graph: DiGraph,
        entry_nodes: List[Node],
        exit_nodes: set,
        result: LocalQueryResult,
    ) -> None:
        for entry in entry_nodes:
            distances, _ = dijkstra(graph, entry, targets=set(exit_nodes))
            produced = 0
            for exit_node in exit_nodes:
                if exit_node in distances:
                    result.values[(entry, exit_node)] = distances[exit_node]
                    produced += 1
            result.statistics.record_round(len(distances), produced)

    def _evaluate_reachability(
        self,
        graph: DiGraph,
        entry_nodes: List[Node],
        exit_nodes: set,
        result: LocalQueryResult,
    ) -> None:
        for entry in entry_nodes:
            levels = bfs_levels(graph, entry)
            produced = 0
            for exit_node in exit_nodes:
                if exit_node in levels:
                    result.values[(entry, exit_node)] = True
                    produced += 1
            result.statistics.record_round(len(levels), produced)

    def _evaluate_generic(
        self,
        graph: DiGraph,
        entry_nodes: List[Node],
        exit_nodes: set,
        result: LocalQueryResult,
    ) -> None:
        from ..closure import seminaive_transitive_closure

        closure = seminaive_transitive_closure(graph, semiring=self._semiring, sources=entry_nodes)
        result.statistics = closure.statistics
        for (source, target), value in closure.values.items():
            if target in exit_nodes:
                result.values[(source, target)] = value
