"""The query core: one pipeline from ``(source, target)`` pairs to answers.

The disconnection set approach turns one closure query into independent
per-fragment subqueries, evaluates each of them once, and joins the small
results (Sec. 2.1).  :func:`answer_pairs` is that pipeline, written once:

1. a pair ``(x, x)`` of a stored node is answered with the semiring's one;
2. the other pairs are deduplicated and planned; a pair whose planning fails
   keeps its typed :class:`~repro.exceptions.DisconnectionSetError`;
3. the subqueries of every chain of every plan are pooled into one
   duplicate-free task list (chains and pairs share border-to-border
   subqueries);
4. one ``evaluate(tasks)`` call returns ``{task: LocalQueryResult}``;
5. every plan is assembled from those shared results, chain by chain.

Its callers differ only in what they pass: the
:class:`~repro.disconnection.engine.DisconnectionSetEngine` evaluates
in-process, the hierarchical engine plans over its backbone fragment, and
``QueryService`` evaluates on its worker pool behind its result cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..closure import Semiring, shortest_path_semiring
from ..exceptions import DisconnectionSetError
from ..observability import Tracer
from .assembly import AssemblyResult, TaskKey, assemble_chain, best_chain, collect_task_keys
from .catalog import DistributedCatalog
from .local_query import LocalQueryResult
from .planner import QueryPlan

Node = Hashable
Pair = Tuple[Node, Node]

# Spans opened for a caller that passes no tracer: never a root, so no-ops.
_UNTRACED = Tracer(enabled=False)


@dataclass
class PlannedPairs:
    """The planning step: distinct ``pairs``, their ``plans``, one pooled task list.

    ``plans[i]`` is ``None`` when planning ``pairs[i]`` failed with
    ``errors[i]``; pooling saved ``spec_references - len(tasks)`` evaluations.
    """

    pairs: List[Pair] = field(default_factory=list)
    plans: List[Optional[QueryPlan]] = field(default_factory=list)
    errors: Dict[int, DisconnectionSetError] = field(default_factory=dict)
    tasks: List[TaskKey] = field(default_factory=list)
    spec_references: int = 0
    planning_seconds: float = 0.0

    def shared_subqueries_saved(self) -> int:
        """Return how many local evaluations the pooled task list avoided."""
        return self.spec_references - len(self.tasks)


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
    return PlannedPairs(distinct, plans, errors, tasks, references, perf_counter() - started)


@dataclass
class PairAnswer:
    """The core's answer for one distinct pair.

    ``fragments`` are the fragments the answer depends on (the plan's, or the
    sites storing the node of a same-node pair); ``assemblies`` holds one
    :class:`AssemblyResult` per chain of the plan; ``error`` is the typed
    planning failure (``value`` is then ``None``).
    """

    source: Node
    target: Node
    value: Optional[object] = None
    chain: Optional[Tuple[int, ...]] = None
    fragments: Tuple[int, ...] = ()
    assemblies: List[AssemblyResult] = field(default_factory=list)
    error: Optional[DisconnectionSetError] = None


@dataclass
class CoreResult(PlannedPairs):
    """One :func:`answer_pairs` call: its planning step, ``answers`` and task ``results``."""

    answers: Dict[Pair, PairAnswer] = field(default_factory=dict)
    results: Dict[TaskKey, LocalQueryResult] = field(default_factory=dict)


def answer_pairs(
    catalog: DistributedCatalog,
    planner,
    pairs: Sequence[Pair],
    evaluate: Callable[[List[TaskKey]], Dict[TaskKey, LocalQueryResult]],
    semiring: Semiring,
    *,
    tracer: Optional[Tracer] = None,
) -> CoreResult:
    """Answer ``pairs`` (duplicates once) with one ``evaluate`` call.

    ``planner`` is anything with ``plan(source, target) -> QueryPlan``;
    ``tracer`` gets one ``plan`` span around the planning step.  Planning
    failures do not raise: the pair's answer carries its error.
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
    with (tracer or _UNTRACED).span("plan", pairs=len(to_plan)) as span:
        planned = plan_pairs(planner, to_plan)
        span.set("tasks", len(planned.tasks))
    results = evaluate(planned.tasks) if planned.tasks else {}
    for index, (source, target) in enumerate(planned.pairs):
        plan = planned.plans[index]
        if plan is None:
            answers[(source, target)] = PairAnswer(source, target, error=planned.errors[index])
            continue
        value, chain, assemblies = _assemble(plan, results, semiring)
        answers[(source, target)] = PairAnswer(
            source, target, value, chain, tuple(plan.fragments_involved()), assemblies
        )
    return CoreResult(**vars(planned), answers=answers, results=results)


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
