"""Cost model for the simulated multiprocessor database machine.

The paper's experiments ran on PRISMA/DB, a shared-nothing multiprocessor
database machine we do not have; we substitute a cost model expressed in the
quantities the paper itself uses to reason about workload (Sec. 2.2):

* the number of fixpoint **iterations** a site executes, driven by the
  diameter of its fragment ("the number of iterations depends on the diameter
  of a fragment"),
* the number of **tuples** its intermediate results contain ("the size of
  intermediate results depends on the connectivity of the graph"),
* the number of **join/communication** operations of the final assembly.

A :class:`CostModel` turns those counters into abstract time units; the
defaults weight a produced tuple as the unit of work, charge a per-iteration
synchronisation overhead, and make assembly joins cheap (they operate on very
small relations and can be pipelined, as the paper notes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping

from ..disconnection import ExecutionReport, SiteWork


@dataclass(frozen=True)
class CostModel:
    """Abstract-time cost model.

    Attributes:
        tuple_cost: cost of producing one tuple in a local fixpoint.
        iteration_cost: fixed overhead per fixpoint iteration (loop/sync).
        subquery_cost: fixed overhead per local subquery started at a site.
        join_cost: cost per binary assembly join at the coordinator.
        assembly_tuple_cost: cost per tuple flowing through assembly joins.
        message_cost: cost of shipping one local result to the coordinator.
    """

    tuple_cost: float = 1.0
    iteration_cost: float = 5.0
    subquery_cost: float = 10.0
    join_cost: float = 5.0
    assembly_tuple_cost: float = 0.5
    message_cost: float = 2.0

    def site_cost(self, work: SiteWork) -> float:
        """Return the abstract time a single site spends on its local work."""
        return (
            self.tuple_cost * work.tuples_produced
            + self.iteration_cost * work.iterations
            + self.subquery_cost * work.subqueries
        )

    def assembly_cost(self, report: ExecutionReport) -> float:
        """Return the coordinator's cost: final joins plus result shipping."""
        messages = sum(work.subqueries for work in report.site_work.values())
        return (
            self.join_cost * report.join_operations
            + self.assembly_tuple_cost * report.assembly_tuples
            + self.message_cost * messages
        )

    def site_costs(self, report: ExecutionReport) -> Dict[int, float]:
        """Return the per-site local costs of one execution report."""
        return {fragment_id: self.site_cost(work) for fragment_id, work in report.site_work.items()}

    def sequential_cost(self, report: ExecutionReport) -> float:
        """Return the cost of executing the same work on a single processor."""
        return sum(self.site_costs(report).values()) + self.assembly_cost(report)

    def closure_cost(self, iterations: int, tuples_produced: int) -> float:
        """Return the cost of a (centralised) closure run with the given counters."""
        return self.tuple_cost * tuples_produced + self.iteration_cost * iterations + self.subquery_cost
