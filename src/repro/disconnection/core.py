"""The query core: two pipelines from ``(source, target)`` pairs to answers.

The disconnection set approach turns one closure query into independent
per-fragment subqueries, evaluates each of them once, and joins the small
results (Sec. 2.1).  Both pipelines here do that, each written once, and
each hands its subqueries to the ``evaluate(tasks) -> {task:
LocalQueryResult}`` callable its caller supplies (in-process, or on a worker
pool), one call for all of a call's pairs:

* :func:`answer_pairs`, the border graph (:mod:`.border_graph`), behind
  ``QueryService`` and the
  :class:`~repro.disconnection.engine.DisconnectionSetEngine` (its queries
  and routes, and so ``repro query``).  A pair's tasks are its endpoints'
  rows: the source's row to its fragment's border nodes and that fragment's
  border rows to the target (one of each per fragment storing a border-node
  endpoint); two endpoints inside one fragment add the task inside it, and
  ask for the target's rows only when a border node is nearer than the
  target.  One search over the border nodes joins them.  A fragment the
  search crosses whose border-to-border arcs are not held yet costs one more
  round: its arc task, then the search again.  Exact on any layout, and its
  work does not depend on how many chains connect the endpoints' fragments.
* :func:`answer_chains`, the paper's algorithm, behind the parallel
  simulator, the hierarchical engine and the paper scripts
  (:func:`~repro.disconnection.engine.answer_in_process`):

  1. a pair ``(x, x)`` of a stored node is answered with the semiring's one;
  2. the other pairs are deduplicated and planned into fragment chains; a
     pair whose planning fails keeps its typed
     :class:`~repro.exceptions.DisconnectionSetError`;
  3. the subqueries of every chain of every plan are pooled into one
     duplicate-free task list (chains and pairs share border-to-border
     subqueries);
  4. one ``evaluate(tasks)`` call;
  5. every plan is assembled from those shared results, chain by chain.

  It enumerates simple fragment chains, so it fails closed on a layout with
  too many of them (:class:`~repro.exceptions.PlanTruncatedError`) and
  misses a path that leaves its fragment and re-enters it; it stays as the
  paper's model, the parallel simulator's input and a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..closure import Semiring, shortest_path_semiring
from ..exceptions import DisconnectionSetError, NoChainError
from ..observability import Tracer
from .assembly import AssemblyResult, TaskKey, assemble_chain, best_chain, collect_task_keys
from .border_graph import BorderGraph, BorderSearch, arc_task, compiled_border_graph, improves, search
from .catalog import DistributedCatalog
from .local_query import LocalQueryResult
from .planner import QueryPlan

Node = Hashable
Pair = Tuple[Node, Node]

# Spans opened for a caller that passes no tracer: never a root, so no-ops.
_UNTRACED = Tracer(enabled=False)


@dataclass
class PooledTasks:
    """A pipeline call's pooled task list and what pooling it saved.

    ``tasks`` are the distinct local tasks evaluated, ``spec_references``
    how many were asked for before pooling, ``planning_seconds`` the time
    spent building the list.
    """

    tasks: List[TaskKey] = field(default_factory=list)
    spec_references: int = 0
    planning_seconds: float = 0.0

    def shared_subqueries_saved(self) -> int:
        """Return how many local evaluations the pooled task list avoided."""
        return self.spec_references - len(self.tasks)


@dataclass
class PlannedPairs(PooledTasks):
    """The planning step: distinct ``pairs``, their ``plans``, one pooled task list.

    ``plans[i]`` is ``None`` when planning ``pairs[i]`` failed with
    ``errors[i]``.
    """

    pairs: List[Pair] = field(default_factory=list)
    plans: List[Optional[QueryPlan]] = field(default_factory=list)
    errors: Dict[int, DisconnectionSetError] = field(default_factory=dict)


def plan_pairs(planner, pairs: Sequence[Pair]) -> PlannedPairs:
    """Deduplicate ``pairs``, plan each with ``planner.plan(source, target)``, pool the tasks."""
    started = perf_counter()
    distinct = list(dict.fromkeys(pairs))
    plans: List[Optional[QueryPlan]] = []
    errors: Dict[int, DisconnectionSetError] = {}
    for index, (source, target) in enumerate(distinct):
        try:
            plans.append(planner.plan(source, target))
        except DisconnectionSetError as error:
            plans.append(None)
            errors[index] = error
    tasks, references = collect_task_keys([plan for plan in plans if plan is not None])
    return PlannedPairs(
        tasks=tasks,
        spec_references=references,
        planning_seconds=perf_counter() - started,
        pairs=distinct,
        plans=plans,
        errors=errors,
    )


@dataclass
class PairAnswer:
    """The core's answer for one distinct pair.

    ``fragments`` are the fragments the answer depends on: the plan's, the
    sites storing the node of a same-node pair, or those a border-graph
    search read (:func:`answer_pairs`).  A border-graph answer's ``borders``
    are the border nodes its best path passes between the segments of its
    ``chain``, in order (``()`` for a path inside one fragment).
    ``assemblies`` holds one :class:`AssemblyResult` per chain of a chain
    plan; ``error`` is the typed planning failure (``value`` is then
    ``None``).  ``inputs`` are the endpoint tasks a border-graph answer
    read, each with the values it read (the source's rows, the target's
    rows, the task inside one shared fragment): with these and the arcs of
    its ``fragments`` unchanged, the search runs the same steps to the same
    answer.  ``None`` for any other answer.
    """

    source: Node
    target: Node
    value: Optional[object] = None
    chain: Optional[Tuple[int, ...]] = None
    borders: Tuple[Node, ...] = ()
    fragments: Tuple[int, ...] = ()
    assemblies: List[AssemblyResult] = field(default_factory=list)
    error: Optional[DisconnectionSetError] = None
    inputs: Optional[Tuple[Tuple[TaskKey, Dict[Pair, object]], ...]] = None


@dataclass
class CoreResult(PlannedPairs):
    """One :func:`answer_chains` call: its planning step and ``answers``."""

    answers: Dict[Pair, PairAnswer] = field(default_factory=dict)


def answer_chains(
    catalog: DistributedCatalog,
    planner,
    pairs: Sequence[Pair],
    evaluate: Callable[[List[TaskKey]], Dict[TaskKey, LocalQueryResult]],
    semiring: Semiring,
) -> CoreResult:
    """Answer ``pairs`` (duplicates once) through fragment chains, with one ``evaluate`` call.

    ``planner`` is anything with ``plan(source, target) -> QueryPlan``.
    Planning failures do not raise: the pair's answer carries its error.
    """
    answers: Dict[Pair, PairAnswer] = {}
    to_plan: List[Pair] = []
    for source, target in dict.fromkeys(pairs):
        storing = catalog.sites_storing_node(source) if source == target else None
        if storing:
            answers[(source, target)] = PairAnswer(
                source, target, semiring.one, fragments=tuple(storing)
            )
        else:
            to_plan.append((source, target))
    if not to_plan:
        return CoreResult(answers=answers)
    planned = plan_pairs(planner, to_plan)
    results = evaluate(planned.tasks) if planned.tasks else {}
    for index, (source, target) in enumerate(planned.pairs):
        plan = planned.plans[index]
        if plan is None:
            answers[(source, target)] = PairAnswer(source, target, error=planned.errors[index])
            continue
        value, chain, assemblies = _assemble(plan, results, semiring)
        answers[(source, target)] = PairAnswer(
            source, target, value, chain, fragments=tuple(plan.fragments_involved()),
            assemblies=assemblies,
        )
    return CoreResult(**vars(planned), answers=answers)


def _assemble(
    plan: QueryPlan, results: Dict[TaskKey, LocalQueryResult], semiring: Semiring
) -> Tuple[Optional[object], Optional[Tuple[int, ...]], List[AssemblyResult]]:
    """Assemble every chain of ``plan``; the best value, its chain and every assembly."""
    assemblies = [
        assemble_chain(chain, [results[spec.key()] for spec in chain.local_queries], semiring=semiring)
        for chain in plan.chains
    ]
    return (*best_chain(assemblies, semiring=semiring), assemblies)


def assemble_best_chain(
    plan: QueryPlan,
    results_by_key: Dict[TaskKey, LocalQueryResult],
    *,
    semiring: Optional[Semiring] = None,
) -> Tuple[Optional[object], Optional[Tuple[int, ...]]]:
    """The core's assembly step alone (for code that composes the layers by hand)."""
    value, chain, _ = _assemble(plan, results_by_key, semiring or shortest_path_semiring())
    return value, chain


@dataclass
class BorderRun(PooledTasks):
    """One :func:`answer_pairs` call: its ``answers`` and the work behind them.

    ``tasks`` are the endpoint tasks, then those of any rounds;
    ``settled`` and ``relaxed`` are the border nodes its searches settled
    and the arcs they relaxed, summed over the pairs and rounds.
    """

    answers: Dict[Pair, PairAnswer] = field(default_factory=dict)
    settled: int = 0
    relaxed: int = 0


def answer_pairs(
    catalog: DistributedCatalog,
    pairs: Sequence[Pair],
    evaluate: Callable[[List[TaskKey]], Dict[TaskKey, LocalQueryResult]],
    semiring: Semiring,
    *,
    tracer: Optional[Tracer] = None,
) -> BorderRun:
    """Answer ``pairs`` (duplicates once) through the border graph.

    One ``evaluate`` call for every pair's endpoint tasks, and one more per
    round of arcs (or inside pairs' target rows) the searches found missing.

    A pair's failure does not raise: its answer carries a
    :class:`~repro.exceptions.NoChainError` when an endpoint is stored
    nowhere or no chain of fragments joins the endpoints' fragments.
    ``tracer`` gets a ``plan`` span around the endpoint tasks and a
    ``search`` span (``settled``, ``relaxed``) around the searches and the
    evaluations of any arcs they were missing.

    An answer's ``fragments`` are those storing either endpoint plus those
    storing a border node its search settled.  A write to any other
    fragment can neither lower nor break the answer.  A path through an edge
    of such a fragment enters it through one of its border nodes; that node
    was left unsettled, so reaching it plus the cheapest last segment into
    the target (inside a target fragment, which the write leaves alone)
    costs no less than the answer.  And every segment of the answer's own
    path lies in a fragment storing one of its endpoints or a settled
    border node, so a write there is in the set.  Even then the answer stands
    while its ``inputs`` and the arcs of its ``fragments`` read the same (the
    search is a function of them), or while those arcs only got worse
    outside its ``chain`` (the best path keeps its value, no other path got
    cheaper, and what the search settled can only shrink).
    """
    tracer = tracer or _UNTRACED
    run = BorderRun()
    answers = run.answers
    fragments_of = catalog.fragmentation.fragments_of_node
    joined = catalog.fragmentation_graph.joined
    pending: List[Tuple[Pair, List[int], List[int], _EndpointTasks]] = []
    tasks: Dict[TaskKey, None] = {}
    started = perf_counter()
    with tracer.span("plan", pairs=len(pairs)) as span:
        for source, target in dict.fromkeys(pairs):
            source_fragments = fragments_of(source)
            if source == target and source_fragments:
                answers[(source, target)] = PairAnswer(
                    source, target, semiring.one, fragments=tuple(source_fragments)
                )
                continue
            target_fragments = fragments_of(target)
            error = _unjoined(source, source_fragments, target, target_fragments, joined)
            if error is not None:
                answers[(source, target)] = PairAnswer(source, target, error=error)
                continue
            endpoint = _endpoint_tasks(catalog, source, source_fragments, target, target_fragments)
            source_tasks, target_tasks, direct_task = endpoint
            # Two endpoints inside one fragment ask for the target's rows
            # only once the paths inside it leave a border node cheaper.
            asked = [*source_tasks, *((direct_task,) if direct_task else target_tasks)]
            run.spec_references += len(asked)
            tasks.update(dict.fromkeys(asked))
            pending.append(((source, target), source_fragments, target_fragments, endpoint))
        run.tasks = list(tasks)
        span.set("tasks", len(run.tasks))
    run.planning_seconds = perf_counter() - started
    if not pending:
        return run
    results = evaluate(run.tasks) if run.tasks else {}
    graph = compiled_border_graph(catalog, semiring)
    with tracer.span("search", pairs=len(pending)) as span:
        # A search that stopped for arcs nobody held yet is run again once
        # they are read: one more evaluate call per round, for every pair's
        # missing arcs at once, until no search misses any.
        while pending:
            missing: Dict[int, None] = {}
            rows: Dict[TaskKey, None] = {}
            retry = []
            for entry in pending:
                (source, target), source_fragments, target_fragments, endpoint = entry
                source_tasks, target_tasks, direct_task = endpoint
                if direct_task and any(task not in results for task in target_tasks):
                    answer = _inside_answer(
                        source, target, source_tasks, direct_task, results, semiring
                    )
                    if answer is not None:
                        answers[(source, target)] = answer
                    else:
                        rows.update(dict.fromkeys(target_tasks))
                        retry.append(entry)
                    continue
                found, answer = _search_pair(
                    graph, source, source_fragments, target, target_fragments, endpoint,
                    results, semiring,
                )
                run.settled += len(found.settled)
                run.relaxed += found.relaxed
                if found.missing:
                    missing.update(found.missing)
                    retry.append(entry)
                else:
                    answers[(source, target)] = answer
            if missing or rows:
                fetch = [arc_task(catalog.site(fragment)) for fragment in missing]
                run.tasks += fetch + list(rows)
                run.spec_references += len(fetch) + len(rows)
                fetched = evaluate(fetch + list(rows))
                for task in fetch:
                    graph.adopt(task[0], fetched[task].values)
                results.update((task, fetched[task]) for task in rows)
            pending = retry
        span.set("settled", run.settled)
        span.set("relaxed", run.relaxed)
    return run


def _unjoined(source, source_fragments, target, target_fragments, joined) -> Optional[NoChainError]:
    """The pair's :class:`NoChainError`, or ``None`` when fragment chains join its endpoints."""
    if not source_fragments:
        return NoChainError(f"node {source!r} is not stored in any fragment")
    if not target_fragments:
        return NoChainError(f"node {target!r} is not stored in any fragment")
    if any(joined(start, end) for start in source_fragments for end in target_fragments):
        return None
    return NoChainError(
        f"no chain of fragments connects {source!r} (fragments {source_fragments}) "
        f"with {target!r} (fragments {target_fragments})"
    )


# A pair's source row tasks and target row tasks (one per fragment storing
# the endpoint) and same-fragment task (or ``None``).
_EndpointTasks = Tuple[Tuple[TaskKey, ...], Tuple[TaskKey, ...], Optional[TaskKey]]


def _endpoint_tasks(catalog, source, source_fragments, target, target_fragments) -> _EndpointTasks:
    """A pair's local tasks: the endpoints' rows to (or from) their fragments' border nodes.

    The source's rows seed the search and the target's close it, in every
    fragment storing the endpoint: a border node's are read like an inside
    one's.  Two endpoints inside one fragment also get the task for the
    paths that stay inside.
    """
    source_tasks = []
    for fragment in source_fragments:
        border = catalog.site(fragment).border_nodes
        if border:
            source_tasks.append((fragment, frozenset([source]), border))
    direct_task = None
    target_tasks = []
    for fragment in target_fragments:
        border = catalog.site(fragment).border_nodes
        if border:
            target_tasks.append((fragment, border, frozenset([target])))
    if len(target_fragments) == 1 and source_fragments == target_fragments:
        direct_task = (source_fragments[0], frozenset([source]), frozenset([target]))
    return tuple(source_tasks), tuple(target_tasks), direct_task


def _inside_answer(
    source, target, source_tasks, direct_task, results, semiring
) -> Optional[PairAnswer]:
    """The answer of two endpoints inside one fragment when no path leaving it can be better.

    A path that leaves the fragment first reaches one of its border nodes,
    so when none is reached for better than the target itself, the best
    path inside is the answer and depends on that fragment alone.
    ``None`` when a border node is better: the border graph decides.
    """
    better = improves(semiring)
    inside = results[direct_task].values.get((source, target))
    if inside is None or any(
        better(value, inside) for task in source_tasks for value in results[task].values.values()
    ):
        return None
    fragment = direct_task[0]
    inputs = tuple((task, results[task].values) for task in (*source_tasks, direct_task))
    return PairAnswer(source, target, inside, (fragment,), fragments=(fragment,), inputs=inputs)


def _search_pair(
    graph: BorderGraph, source, source_fragments, target, target_fragments, endpoint, results,
    semiring,
) -> Tuple[BorderSearch, Optional[PairAnswer]]:
    """Seed, search and close the border graph for one pair (its tasks are in ``results``).

    No answer while the search is missing arcs.
    """
    source_tasks, target_tasks, direct_task = endpoint
    ids, count = graph.ids, graph.count
    seeds: Dict[int, object] = {}
    for task in source_tasks:
        fragment = task[0]
        for (_, node), value in results[task].values.items():
            seeds[ids[node] * count + fragment] = value
    closing: Dict[int, List[Tuple[object, int]]] = {}
    for task in target_tasks:
        fragment = task[0]
        for (node, _), value in results[task].values.items():
            closing.setdefault(ids[node], []).append((value, fragment))
    direct = None
    if direct_task is not None:
        value = results[direct_task].values.get((source, target))
        if value is not None:
            direct = (value, direct_task[0])
    found = search(graph, semiring, seeds, closing, direct)
    if found.missing:
        return found, None
    fragments = {*source_fragments, *target_fragments}
    stored = graph.fragments
    for node in found.settled:
        fragments.update(stored[node])
    read = (*source_tasks, *target_tasks, *((direct_task,) if direct_task else ()))
    inputs = tuple((task, results[task].values) for task in read)
    answer = PairAnswer(
        source, target, found.value, found.chain, found.borders, tuple(sorted(fragments)),
        inputs=inputs,
    )
    return found, answer
