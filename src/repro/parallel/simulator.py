"""Simulated shared-nothing multiprocessor evaluation.

The paper evaluates the disconnection set approach on the PRISMA/DB machine;
this simulator substitutes it (see DESIGN.md).  It executes query workloads
through the paper's own algorithm, fragment chains
(:func:`~repro.disconnection.engine.answer_in_process` with a
:class:`~repro.disconnection.planner.QueryPlanner`), maps fragments to
simulated processors (one per fragment, the paper's setting), and charges
each processor with the work its fragments performed — local subqueries and
the coordinator's chain joins — under the default :class:`CostModel`.  The
outputs
are the quantities the paper's performance argument is about: per-processor
load, parallel makespan, the equivalent single-processor cost, and the
resulting speed-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence

from ..closure import seminaive_transitive_closure
from ..disconnection import (
    DistributedCatalog,
    ExecutionReport,
    LocalQueryEvaluator,
    QueryAnswer,
    QueryPlanner,
    answer_in_process,
)
from ..fragmentation import Fragmentation
from ..generators import PathQuery
from ..graph import DiGraph
from .cost_model import CostModel
from .scheduler import one_processor_per_fragment

Node = Hashable


@dataclass
class QuerySimulation:
    """The simulated execution of one query.

    Attributes:
        query: the query that was executed.
        answer: the chain pipeline's answer (value, chain, report).
        parallel_time: simulated elapsed time with one processor per fragment.
        sequential_time: simulated time executing the same plan on one processor.
        processor_loads: per-processor local work under the active assignment.
    """

    query: PathQuery
    answer: QueryAnswer
    parallel_time: float
    sequential_time: float
    processor_loads: Dict[int, float] = field(default_factory=dict)

    def speedup(self) -> float:
        """Return sequential time divided by parallel time (1.0 when both are 0)."""
        if self.parallel_time <= 0.0:
            return 1.0
        return self.sequential_time / self.parallel_time


@dataclass
class WorkloadSimulation:
    """Aggregate results of simulating a whole query workload."""

    query_simulations: List[QuerySimulation] = field(default_factory=list)
    total_parallel_time: float = 0.0
    total_sequential_time: float = 0.0
    centralized_time: Optional[float] = None

    def overall_speedup(self) -> float:
        """Return total sequential work divided by total parallel time."""
        if self.total_parallel_time <= 0.0:
            return 1.0
        return self.total_sequential_time / self.total_parallel_time

    def speedup_vs_centralized(self) -> Optional[float]:
        """Return centralized baseline time / parallel time (None if not measured)."""
        if self.centralized_time is None or self.total_parallel_time <= 0.0:
            return None
        return self.centralized_time / self.total_parallel_time


class ParallelSimulator:
    """Simulate the parallel evaluation of disconnection-set shortest-path queries.

    Args:
        fragmentation: the deployed fragmentation.

    Every fragment gets its own simulated processor, and the default
    :class:`CostModel` prices the work.
    """

    def __init__(self, fragmentation: Fragmentation) -> None:
        self._fragmentation = fragmentation
        self._cost_model = CostModel()
        self._catalog = DistributedCatalog(fragmentation)
        self._planner = QueryPlanner(self._catalog)
        self._evaluator = LocalQueryEvaluator()
        self._assignment = one_processor_per_fragment(
            [fragment.fragment_id for fragment in fragmentation.fragments]
        )

    # ------------------------------------------------------------ simulation

    def simulate_query(self, query: PathQuery) -> QuerySimulation:
        """Execute one query and derive its simulated parallel/sequential times."""
        answer = answer_in_process(
            self._catalog, self._planner, self._evaluator, self._catalog.site,
            query.source, query.target,
        )
        report = answer.report
        processor_loads = self._processor_loads(report)
        slowest = max(processor_loads.values(), default=0.0)
        assembly = self._cost_model.assembly_cost(report)
        parallel_time = slowest + assembly
        sequential_time = self._cost_model.sequential_cost(report)
        return QuerySimulation(
            query=query,
            answer=answer,
            parallel_time=parallel_time,
            sequential_time=sequential_time,
            processor_loads=processor_loads,
        )

    def simulate_workload(
        self,
        queries: Sequence[PathQuery],
        *,
        include_centralized_baseline: bool = False,
    ) -> WorkloadSimulation:
        """Simulate a workload of queries, optionally measuring the centralized baseline.

        The centralized baseline evaluates one full semi-naive closure of the
        unfragmented graph (whose cost is then reused for every query) — the
        evaluation strategy a single-site system without the disconnection set
        machinery would use.
        """
        simulation = WorkloadSimulation()
        for query in queries:
            query_simulation = self.simulate_query(query)
            simulation.query_simulations.append(query_simulation)
            simulation.total_parallel_time += query_simulation.parallel_time
            simulation.total_sequential_time += query_simulation.sequential_time
        if include_centralized_baseline:
            simulation.centralized_time = self.centralized_baseline_cost() * len(queries)
        return simulation

    def centralized_baseline_cost(self) -> float:
        """Return the simulated cost of one full closure of the unfragmented graph.

        The cost model prices *iterative rounds*, so the dict-based
        evaluation is forced: the compact dispatch would report one round per
        source instead of the diameter-bounded fixpoint rounds being
        modelled.
        """
        closure = seminaive_transitive_closure(self._fragmentation.graph, use_compact=False)
        return self._cost_model.closure_cost(
            closure.statistics.iterations, closure.statistics.tuples_produced
        )

    def _processor_loads(self, report: ExecutionReport) -> Dict[int, float]:
        """Map the per-site work of a report onto the simulated processors."""
        site_costs = self._cost_model.site_costs(report)
        loads: Dict[int, float] = {}
        for fragment_id, cost in site_costs.items():
            processor = self._assignment.processor_of.get(fragment_id, 0)
            loads[processor] = loads.get(processor, 0.0) + cost
        return loads
