"""The disconnection set query engine.

This ties the pieces together: the :class:`DisconnectionSetEngine` owns a
:class:`~repro.disconnection.catalog.DistributedCatalog` (fragments +
complementary information), plans each query with the
:class:`~repro.disconnection.planner.QueryPlanner`, evaluates the per-fragment
subqueries with the :class:`~repro.disconnection.local_query.LocalQueryEvaluator`
(no communication between them), and assembles the final answer with the small
joins of :mod:`repro.disconnection.assembly`.

The engine records an :class:`ExecutionReport` for every query: which sites
did how much work, how many iterations their local fixpoints needed, and how
much assembly work the coordinator did.  The parallel simulator turns such a
report into makespan and speed-up figures; the engine itself executes the
subqueries sequentially (it is the *logical* strategy, independent of the
physical execution vehicle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from ..closure import Semiring, reachability_semiring, shortest_path_semiring
from ..exceptions import DisconnectedError, NoChainError
from ..fragmentation import Fragmentation
from .assembly import AssemblyResult, assemble_chain, best_over_chains, collect_task_keys
from .catalog import CompactFragmentSite, DistributedCatalog, FragmentSite
from .complementary import ComplementaryInformation
from .local_query import LocalQueryEvaluator, LocalQueryResult
from .planner import ChainPlan, LocalQuerySpec, QueryPlan, QueryPlanner

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..incremental.delta import EdgeChange

Node = Hashable


@dataclass
class SiteWork:
    """Work done by one site while answering a query.

    Attributes:
        fragment_id: the site.
        subqueries: number of local subqueries evaluated at this site.
        iterations: estimated fixpoint iterations (≈ fragment diameter) —
            the per-site latency driver in the paper's cost argument.
        tuples_produced: tuples produced by the site's local evaluations.
    """

    fragment_id: int
    subqueries: int = 0
    iterations: int = 0
    tuples_produced: int = 0


@dataclass
class ExecutionReport:
    """Cost accounting for one disconnection-set query execution."""

    site_work: Dict[int, SiteWork] = field(default_factory=dict)
    chains_evaluated: int = 0
    join_operations: int = 0
    assembly_tuples: int = 0
    planned_fragments: int = 0

    def record_local(self, result: LocalQueryResult, site: FragmentSite) -> None:
        """Fold one local result of ``site`` into the per-site accounting."""
        work = self.site_work.setdefault(result.fragment_id, SiteWork(fragment_id=result.fragment_id))
        work.subqueries += 1
        work.iterations += site.local_iterations()
        work.tuples_produced += result.statistics.tuples_produced

    def record_assembly(self, assembly: AssemblyResult) -> None:
        """Fold one chain assembly into the coordinator accounting."""
        self.chains_evaluated += 1
        self.join_operations += assembly.join_operations
        self.assembly_tuples += assembly.intermediate_tuples

    def critical_path_iterations(self) -> int:
        """Return the largest per-site iteration count (parallel latency proxy)."""
        return max((work.iterations for work in self.site_work.values()), default=0)


@dataclass
class QueryAnswer:
    """The answer to one disconnection-set query.

    Attributes:
        source, target: the queried endpoints.
        value: the best path value (``None`` when no path exists).
        chain: the fragment chain that produced the best value.
        report: the execution cost report.
    """

    source: Node
    target: Node
    value: Optional[object]
    chain: Optional[Tuple[int, ...]]
    report: ExecutionReport

    def exists(self) -> bool:
        """Return ``True`` when a path was found."""
        return self.value is not None


class DisconnectionSetEngine:
    """Answer reachability and best-path queries via the disconnection set approach.

    Args:
        fragmentation: the data fragmentation to deploy.
        semiring: the path problem (defaults to shortest paths).
        complementary: optionally reuse precomputed complementary information.
        compact_sites: optionally seed the per-fragment compact kernel graphs
            (e.g. from a snapshot), so the engine never rebuilds adjacency.
        use_shortcuts: disable to measure the effect of dropping the
            complementary information (the ablation benchmarks use this; the
            engine then only sees paths that stay inside the fragment chain).
    """

    def __init__(
        self,
        fragmentation: Fragmentation,
        *,
        semiring: Optional[Semiring] = None,
        complementary: Optional[ComplementaryInformation] = None,
        compact_sites: Optional[Dict[int, "CompactFragmentSite"]] = None,
        use_shortcuts: bool = True,
    ) -> None:
        self._semiring = semiring or shortest_path_semiring()
        self._catalog = DistributedCatalog(
            fragmentation,
            semiring=self._semiring,
            complementary=complementary,
            compact_sites=compact_sites,
        )
        self._planner = QueryPlanner(self._catalog)
        self._evaluator = LocalQueryEvaluator(
            semiring=self._semiring, use_shortcuts=use_shortcuts
        )

    # ------------------------------------------------------------ accessors

    @property
    def catalog(self) -> DistributedCatalog:
        """The distributed catalog the engine queries."""
        return self._catalog

    @property
    def semiring(self) -> Semiring:
        """The path problem being answered."""
        return self._semiring

    # ------------------------------------------------------------- updates

    def apply_incremental_update(
        self,
        fragmentation: "Fragmentation",
        *,
        dirty_fragments: List[int],
        changes: Sequence["EdgeChange"],
        pairs_changed: Iterable[Tuple[int, int]],
    ) -> Dict[int, object]:
        """Absorb an already-repaired update without rebuilding the engine.

        The incremental maintainer calls this after patching the catalog's
        complementary information in place: the engine keeps its identity (so
        a serving layer neither re-plans from scratch nor restarts its worker
        pool), the catalog patches only the dirty fragments' sites — with
        the edge ``changes`` each owns and the ``pairs_changed`` it takes
        part in — and the planner picks up the new fragmentation on its next
        ``plan`` call because it reads the catalog live.

        Returns the per-fragment compact deltas the catalog produced.
        """
        return self._catalog.apply_incremental_update(
            fragmentation,
            dirty_fragments=dirty_fragments,
            changes=changes,
            pairs_changed=pairs_changed,
        )

    def apply_refragmentation(
        self,
        fragmentation: "Fragmentation",
        *,
        rebuilt: List[int],
        dropped: List[int],
    ) -> None:
        """Adopt a redrawn fragment layout without rebuilding the engine.

        The live refragmenter calls this after repairing the complementary
        information in place: the engine keeps its identity (so the serving
        layer's planner and worker pool survive the redraw), the catalog
        rebuilds only the named sites, and every untouched site — compact
        kernels included — stays object-identical.
        """
        self._catalog.apply_refragmentation(
            fragmentation, rebuilt=rebuilt, dropped=dropped
        )

    # ------------------------------------------------------------- queries

    def query(self, source: Node, target: Node) -> QueryAnswer:
        """Answer a best-path query from ``source`` to ``target``.

        Raises:
            NoChainError: if one of the endpoints is stored nowhere or no
                fragment chain connects them.
            PlanTruncatedError: if more fragment chains connect them than the
                planner enumerates (an answer could be wrong).
        """
        if source == target and self._catalog.sites_storing_node(source):
            report = ExecutionReport()
            return QueryAnswer(
                source=source, target=target, value=self._semiring.one, chain=None, report=report
            )
        plan = self._planner.plan(source, target)
        return self.execute_plan(plan)

    def execute_plan(self, plan: QueryPlan) -> QueryAnswer:
        """Execute a previously computed :class:`QueryPlan`."""
        report = ExecutionReport()
        report.planned_fragments = len(plan.fragments_involved())
        # The distinct subqueries of all chains are one task set: chains
        # share identical subqueries.
        tasks, _ = collect_task_keys([plan])
        evaluated = self._evaluator.evaluate_many(
            self._catalog.site, [LocalQuerySpec(*task) for task in tasks]
        )
        for local_result in evaluated:
            report.record_local(local_result, self._catalog.site(local_result.fragment_id))
        local_results = dict(zip(tasks, evaluated))
        assemblies: List[Tuple[ChainPlan, AssemblyResult]] = []
        for chain_plan in plan.chains:
            results = [local_results[spec.key()] for spec in chain_plan.local_queries]
            assembly = assemble_chain(chain_plan, results, semiring=self._semiring)
            report.record_assembly(assembly)
            assemblies.append((chain_plan, assembly))
        best_value = best_over_chains([assembly for _, assembly in assemblies], semiring=self._semiring)
        best_chain: Optional[Tuple[int, ...]] = None
        for chain_plan, assembly in assemblies:
            if assembly.value is not None and assembly.value == best_value:
                best_chain = chain_plan.chain
                break
        return QueryAnswer(
            source=plan.source,
            target=plan.target,
            value=best_value,
            chain=best_chain,
            report=report,
        )

    def is_connected(self, source: Node, target: Node) -> bool:
        """Answer "is ``source`` connected to ``target``?" (never raises for unknown nodes).

        A truncated plan still raises
        :class:`~repro.exceptions.PlanTruncatedError`: chains exist, so
        ``False`` would be a wrong answer.
        """
        try:
            answer = self.query(source, target)
        except NoChainError:
            return False
        if self._semiring.name == "reachability":
            return bool(answer.value)
        return answer.exists()

    def shortest_path_cost(self, source: Node, target: Node) -> float:
        """Return the cheapest path cost between two nodes.

        Raises:
            DisconnectedError: when no path exists.
            NoChainError: when an endpoint is not stored anywhere.
        """
        if self._semiring.name != "shortest_path":
            raise DisconnectedError(
                "shortest_path_cost requires an engine built with the shortest-path semiring"
            )
        answer = self.query(source, target)
        if not answer.exists():
            raise DisconnectedError(f"{target!r} is not reachable from {source!r}")
        return float(answer.value)  # type: ignore[arg-type]


def reachability_engine(fragmentation: Fragmentation, **kwargs) -> DisconnectionSetEngine:
    """Convenience constructor for a reachability ("is A connected to B?") engine."""
    return DisconnectionSetEngine(fragmentation, semiring=reachability_semiring(), **kwargs)


def shortest_path_engine(fragmentation: Fragmentation, **kwargs) -> DisconnectionSetEngine:
    """Convenience constructor for a shortest-path engine."""
    return DisconnectionSetEngine(fragmentation, semiring=shortest_path_semiring(), **kwargs)
