"""Owner grouping, and batch planning for the chain pipeline.

Under a shared-nothing placement, :func:`group_by_owner` groups a batch's
task list per *owner worker*, so the routed pool ships one message per
owner; the service does so for every round of its border-graph tasks.

Queries whose chains share a fragment pair share the *identical*
border-to-border subquery, so the chain pipeline's planning step
(:func:`~repro.disconnection.core.plan_pairs`) pools a batch's subqueries
into one duplicate-free task list.  :class:`BatchPlanner` is that step and
the owner grouping as one plan object, for code that composes the chain
pipeline's layers by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..disconnection.core import PlannedPairs, plan_pairs
from ..disconnection.planner import QueryPlanner
from ..placement import PlacementError, PlacementPlan
from .pool import TaskKey

Node = Hashable
Query = Tuple[Node, Node]


def group_by_owner(
    tasks: Sequence[TaskKey], placement: Optional[PlacementPlan]
) -> Dict[int, List[TaskKey]]:
    """Group ``tasks`` per owner worker of ``placement``, in task order.

    Empty without a placement, and when the plan does not place one of the
    tasks' fragments (a query planned mid-reorganisation): placement-blind
    routing is then safer than a partial grouping.
    """
    groups: Dict[int, List[TaskKey]] = {}
    if placement is None:
        return groups
    try:
        for task in tasks:
            groups.setdefault(placement.owner(task[0]), []).append(task)
    except PlacementError:
        return {}
    return groups


@dataclass
class BatchPlan(PlannedPairs):
    """The core's planning step for a batch, plus its tasks grouped per owner.

    ``owner_groups`` maps an owner worker to the batch's tasks for that
    owner, in task order (empty when planned without a placement); the
    routed pool ships each group as one message.
    """

    owner_groups: Dict[int, List[TaskKey]] = field(default_factory=dict)

    @property
    def unique_queries(self) -> List[Query]:
        """The distinct queries, in first-appearance order."""
        return self.pairs


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
        planned = plan_pairs(self._planner, queries)
        placement = self._placement_provider() if self._placement_provider else None
        return BatchPlan(
            **vars(planned), owner_groups=group_by_owner(planned.tasks, placement)
        )
