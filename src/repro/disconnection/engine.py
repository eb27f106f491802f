"""The disconnection set query engine.

This ties the pieces together: the :class:`DisconnectionSetEngine` owns a
:class:`~repro.disconnection.catalog.DistributedCatalog` (fragments +
complementary information), and answers each query through the query core's
border graph (:func:`~repro.disconnection.core.answer_pairs`), as
``QueryService`` does: the per-fragment subqueries are evaluated in-process
(no communication between them) and one search over the border nodes joins
them.  :meth:`DisconnectionSetEngine.route` answers a shortest-path query
with its route from the same single core call.

The engine records an :class:`ExecutionReport` for every query: which sites
did how much work and how many iterations their local fixpoints needed.
:func:`answer_in_process` answers through the paper's fragment chains
instead (:func:`~repro.disconnection.core.answer_chains`) for a caller with
its own planner, and its report also counts the coordinator's chain
assembly; the parallel simulator turns such a report into makespan and
speed-up figures.  Both execute the subqueries sequentially (the *logical*
strategy, independent of the physical execution vehicle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from ..closure import Semiring, reachability_semiring, shortest_path_semiring
from ..exceptions import DisconnectedError, NoChainError
from ..fragmentation import Fragmentation
from .assembly import AssemblyResult, TaskKey
from .catalog import CompactFragmentSite, DistributedCatalog, FragmentSite
from .complementary import ComplementaryInformation
from .core import PairAnswer, answer_chains, answer_pairs
from .local_query import LocalQueryEvaluator, LocalQueryResult
from .planner import LocalQuerySpec
from .routes import RoutedAnswer, trace_route

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
    """Cost accounting for one query: per-site work, and a fragment-chain answer's joins.

    The assembly counters stay 0 for the engine's border-graph answers.
    """

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
        chain: the fragments of the best path's segments, in path order.
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
    """

    def __init__(
        self,
        fragmentation: Fragmentation,
        *,
        semiring: Optional[Semiring] = None,
        complementary: Optional[ComplementaryInformation] = None,
        compact_sites: Optional[Dict[int, "CompactFragmentSite"]] = None,
    ) -> None:
        self._semiring = semiring or shortest_path_semiring()
        self._catalog = DistributedCatalog(
            fragmentation,
            semiring=self._semiring,
            complementary=complementary,
            compact_sites=compact_sites,
        )
        self._evaluator = LocalQueryEvaluator(semiring=self._semiring)

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
        """Absorb an already-repaired write or redraw without rebuilding the engine.

        The incremental maintainer calls this after patching the catalog's
        complementary information in place: the engine keeps its identity (so
        a serving layer neither re-plans from scratch nor restarts its worker
        pool), the catalog patches only the dirty fragments' sites — with
        the edge ``changes`` each owns and the ``pairs_changed`` it takes
        part in — or, for a redraw (no ``changes``), rebuilds them and drops
        the removed ids, and the next query reads the new layout because the
        core reads the catalog live.

        Returns the per-fragment compact deltas the catalog produced.
        """
        return self._catalog.apply_incremental_update(
            fragmentation,
            dirty_fragments=dirty_fragments,
            changes=changes,
            pairs_changed=pairs_changed,
        )

    # ------------------------------------------------------------- queries

    def query(self, source: Node, target: Node) -> QueryAnswer:
        """Answer a best-path query from ``source`` to ``target``.

        Exact on every layout; the report counts every subquery evaluated.

        Raises:
            NoChainError: if one of the endpoints is stored nowhere or no
                fragment chain connects them.
        """
        answer, report = self._answer(source, target)
        return QueryAnswer(source, target, answer.value, answer.chain, report)

    def route(self, source: Node, target: Node) -> RoutedAnswer:
        """Answer a shortest-path query with the route that realises it.

        One query-core call, the one :meth:`query` makes; ``cost`` and
        ``chain`` are :meth:`query`'s value and chain, and
        :func:`~repro.disconnection.routes.trace_route` walks the best
        path's segments (each chain fragment between the border nodes it
        passed) on the sites and the live base graph.

        Raises:
            NoChainError: as :meth:`query` does.
            DisconnectedError: when no path exists.
            ValueError: when the engine was not built with the shortest-path
                semiring.
        """
        if self._semiring.name != "shortest_path":
            raise ValueError("route requires an engine built with the shortest-path semiring")
        answer, _ = self._answer(source, target)
        if answer.value is None:
            raise DisconnectedError(f"{target!r} is not reachable from {source!r}")
        if answer.chain is None:  # a stored node to itself
            return RoutedAnswer(source, target, float(answer.value), [source])
        segments = list(zip(answer.chain, (source, *answer.borders), (*answer.borders, target)))
        route = trace_route(
            segments, self._catalog.site, self._catalog.fragmentation.graph, self._evaluator
        )
        return RoutedAnswer(source, target, float(answer.value), route, answer.chain)

    def is_connected(self, source: Node, target: Node) -> bool:
        """Answer "is ``source`` connected to ``target``?" (never raises for unknown nodes)."""
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

    def _answer(self, source: Node, target: Node) -> Tuple[PairAnswer, ExecutionReport]:
        """One border-graph call for the pair, in-process; its answer and report.

        Raises the pair's typed failure.
        """
        report = ExecutionReport()
        evaluate = _in_process(self._evaluator, self._catalog.site, report)
        run = answer_pairs(self._catalog, [(source, target)], evaluate, self._semiring)
        answer = run.answers[(source, target)]
        if answer.error is not None:
            raise answer.error
        report.planned_fragments = len(answer.fragments)
        return answer, report


def answer_in_process(
    catalog: DistributedCatalog,
    planner,
    evaluator: LocalQueryEvaluator,
    site_of: Callable[[int], FragmentSite],
    source: Node,
    target: Node,
) -> QueryAnswer:
    """Answer one pair through the paper's fragment chains, evaluating every subquery here.

    ``planner`` is anything with ``plan(source, target)`` (a
    :class:`~repro.disconnection.planner.QueryPlanner`, which may raise
    :class:`~repro.exceptions.PlanTruncatedError`); ``site_of`` maps a
    planned fragment id to the site that evaluates it.  The core's output
    fills the :class:`ExecutionReport`, chain assembly included; a planning
    failure is re-raised.
    """
    report = ExecutionReport()
    evaluate = _in_process(evaluator, site_of, report)
    run = answer_chains(catalog, planner, [(source, target)], evaluate, evaluator.semiring)
    answer = run.answers[(source, target)]
    if answer.error is not None:
        raise answer.error
    if answer.assemblies:  # a same-node answer plans nothing
        report.planned_fragments = len(answer.fragments)
    for assembly in answer.assemblies:
        report.record_assembly(assembly)
    return QueryAnswer(
        source=source, target=target, value=answer.value, chain=answer.chain, report=report
    )


def _in_process(
    evaluator: LocalQueryEvaluator,
    site_of: Callable[[int], FragmentSite],
    report: ExecutionReport,
) -> Callable[[List[TaskKey]], Dict[TaskKey, LocalQueryResult]]:
    """The core's ``evaluate``: every task on ``site_of``'s site, in this process, into ``report``."""

    def evaluate(tasks):
        specs = [LocalQuerySpec(*task) for task in tasks]
        results = evaluator.evaluate_many(site_of, specs)
        for task, result in zip(tasks, results):
            report.record_local(result, site_of(task[0]))
        return dict(zip(tasks, results))

    return evaluate


def reachability_engine(fragmentation: Fragmentation, **kwargs) -> DisconnectionSetEngine:
    """Convenience constructor for a reachability ("is A connected to B?") engine."""
    return DisconnectionSetEngine(fragmentation, semiring=reachability_semiring(), **kwargs)


def shortest_path_engine(fragmentation: Fragmentation, **kwargs) -> DisconnectionSetEngine:
    """Convenience constructor for a shortest-path engine."""
    return DisconnectionSetEngine(fragmentation, semiring=shortest_path_semiring(), **kwargs)
