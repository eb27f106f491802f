"""Batch planning: answer many queries with one pass of local work.

A serving workload arrives in batches, and the disconnection set approach
makes batches unusually cheap: every query decomposes into per-fragment
``(fragment, entry set, exit set)`` subqueries, and queries whose chains share
a fragment pair share the *identical* border-to-border subquery — the entry
and exit sets are the disconnection sets, independent of the endpoints.  The
batch planner therefore:

1. deduplicates the submitted ``(source, target)`` pairs,
2. plans each distinct query (grouping its chains),
3. pools the local query specs of *all* chains of *all* queries into one
   duplicate-free task list, so shared subqueries are evaluated exactly once
   and the fan-out to worker sites happens in a single round, and
4. under a shared-nothing placement, groups that task list per *owner
   worker* (``owner_groups``), so the routed pool ships exactly one message
   per owner with the whole batch's work for that owner — the batch is
   planned placement-aware instead of placement-blind.

The saved work is reported per batch (``shared_subqueries_saved``,
``duplicate_queries_saved``) and surfaces in the service statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..disconnection.planner import QueryPlan, QueryPlanner
from ..exceptions import DisconnectionSetError
from ..placement import PlacementError, PlacementPlan
from .pool import TaskKey

Node = Hashable
Query = Tuple[Node, Node]


@dataclass
class BatchPlan:
    """The shared execution plan for one batch of queries.

    Attributes:
        queries: the batch as submitted (duplicates included).
        unique_queries: the distinct queries, in first-appearance order.
        assignments: for every submitted query, the index of its distinct
            query in ``unique_queries``.
        plans: per distinct query, its :class:`QueryPlan` (``None`` when
            planning failed — see ``errors``).
        errors: per distinct-query index, the planning error message
            (endpoints not stored / no connecting chain / plan truncated).
        tasks: the duplicate-free union of every chain's local query specs.
        spec_references: how many spec references the chains contain in
            total; ``spec_references - len(tasks)`` evaluations were saved.
        chain_groups: fragment chain -> indices of the distinct queries whose
            plans use that chain (the grouping that exposes the sharing).
        owner_groups: owner worker -> the batch's tasks for that owner, in
            task order (empty when the batch was planned without a placement
            plan).  The routed pool ships each group as one message.
        planning_seconds: wall-clock seconds :meth:`BatchPlanner.plan_batch`
            spent producing this plan (the service's planning histogram and
            the batch-planning trace span read it).
    """

    queries: List[Query]
    unique_queries: List[Query] = field(default_factory=list)
    assignments: List[int] = field(default_factory=list)
    plans: List[Optional[QueryPlan]] = field(default_factory=list)
    errors: Dict[int, str] = field(default_factory=dict)
    tasks: List[TaskKey] = field(default_factory=list)
    spec_references: int = 0
    chain_groups: Dict[Tuple[int, ...], List[int]] = field(default_factory=dict)
    owner_groups: Dict[int, List[TaskKey]] = field(default_factory=dict)
    planning_seconds: float = 0.0

    def duplicate_queries_saved(self) -> int:
        """Return how many submitted queries were answered by deduplication."""
        return len(self.queries) - len(self.unique_queries)

    def shared_subqueries_saved(self) -> int:
        """Return how many local evaluations the pooled task list avoided."""
        return self.spec_references - len(self.tasks)

    def owner_rounds(self) -> int:
        """Return how many routed messages the placement-aware grouping ships."""
        return len(self.owner_groups)


class BatchPlanner:
    """Plans batches of queries over a :class:`QueryPlanner`.

    Args:
        planner: the per-query planner.
        placement_provider: optional zero-argument callable returning the
            live :class:`~repro.placement.plan.PlacementPlan` (or ``None``).
            When it yields a plan, every batch is additionally grouped per
            owner worker — consulted at plan time, so the grouping always
            reflects the *current* placement, migrations included.
    """

    def __init__(
        self,
        planner: QueryPlanner,
        *,
        placement_provider: Optional[Callable[[], Optional[PlacementPlan]]] = None,
    ) -> None:
        self._planner = planner
        self._placement_provider = placement_provider

    def plan_batch(self, queries: Sequence[Query]) -> BatchPlan:
        """Return the shared :class:`BatchPlan` for ``queries``.

        Planning failures (unknown endpoints, no connecting chain, a plan cut
        at the chain cap) do not abort the batch; the affected queries are
        recorded in ``errors`` and the rest of the batch proceeds.
        """
        started = perf_counter()
        batch = BatchPlan(queries=list(queries))
        index_of: Dict[Query, int] = {}
        for query in batch.queries:
            if query not in index_of:
                index_of[query] = len(batch.unique_queries)
                batch.unique_queries.append(query)
            batch.assignments.append(index_of[query])

        seen_tasks: Dict[TaskKey, None] = {}
        for unique_index, (source, target) in enumerate(batch.unique_queries):
            try:
                plan = self._planner.plan(source, target)
            except DisconnectionSetError as error:
                batch.plans.append(None)
                batch.errors[unique_index] = str(error)
                continue
            batch.plans.append(plan)
            for chain_plan in plan.chains:
                batch.chain_groups.setdefault(chain_plan.chain, []).append(unique_index)
                for spec in chain_plan.local_queries:
                    batch.spec_references += 1
                    seen_tasks.setdefault(spec.key(), None)
        batch.tasks = list(seen_tasks)
        placement = self._placement_provider() if self._placement_provider else None
        if placement is not None and batch.tasks:
            try:
                for task in batch.tasks:
                    batch.owner_groups.setdefault(placement.owner(task[0]), []).append(task)
            except PlacementError:
                # A fragment the plan does not place (e.g. a query planned
                # mid-reorganisation): fall back to placement-blind routing
                # rather than ship a partial grouping.
                batch.owner_groups = {}
        batch.planning_seconds = perf_counter() - started
        return batch
