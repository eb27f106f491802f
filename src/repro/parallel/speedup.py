"""Speed-up and iteration-reduction analysis.

Section 2.1 of the paper makes two figure-level performance claims that the
benchmarks regenerate:

* "For good fragmentations, it gives a linear speed-up" — measured here as
  simulated sequential cost over simulated parallel makespan as the number of
  fragments grows.
* "An important speed-up factor is due to the reduced number of iterations
  required to compute each recursive query independently ... the diameter of
  each subgraph is highly reduced" — measured as the ratio between the
  diameter of the whole graph and the largest fragment diameter.

This module computes both curves for any fragmenter/graph combination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Sequence

from ..fragmentation import Fragmentation, Fragmenter, fragment_diameters
from ..generators import PathQuery
from ..graph import DiGraph, hop_diameter
from .simulator import ParallelSimulator, WorkloadSimulation

Node = Hashable


@dataclass(frozen=True)
class SpeedupPoint:
    """One point of a speed-up curve.

    Attributes:
        fragment_count: number of fragments / processors at this point.
        parallel_time: total simulated parallel time over the workload.
        sequential_time: total simulated single-processor time.
        speedup: sequential / parallel.
        max_fragment_diameter: the largest fragment diameter (iteration proxy).
        graph_diameter: the diameter of the unfragmented graph.
    """

    fragment_count: int
    parallel_time: float
    sequential_time: float
    speedup: float
    max_fragment_diameter: int
    graph_diameter: int

    def iteration_reduction(self) -> float:
        """Return graph diameter / max fragment diameter (>= 1 for good fragmentations)."""
        if self.max_fragment_diameter <= 0:
            return float(self.graph_diameter) if self.graph_diameter else 1.0
        return self.graph_diameter / self.max_fragment_diameter


def speedup_curve(
    graph: DiGraph,
    fragmenter_factory: Callable[[int], Fragmenter],
    fragment_counts: Sequence[int],
    queries: Sequence[PathQuery],
) -> List[SpeedupPoint]:
    """Compute the shortest-path speed-up curve over a range of fragment counts.

    Args:
        graph: the graph to fragment and query.
        fragmenter_factory: maps a fragment count to a configured fragmenter
            (e.g. ``lambda n: CenterBasedFragmenter(n, center_selection="distributed")``).
        fragment_counts: the x-axis of the curve.
        queries: the query workload evaluated at every point.

    Every point is priced by a :class:`ParallelSimulator` with the default
    :class:`~repro.parallel.cost_model.CostModel`.
    """
    graph_diameter = hop_diameter(graph)
    points: List[SpeedupPoint] = []
    for count in fragment_counts:
        fragmenter = fragmenter_factory(count)
        fragmentation = fragmenter.fragment(graph)
        workload = ParallelSimulator(fragmentation).simulate_workload(queries)
        diameters = fragment_diameters(fragmentation)
        points.append(
            SpeedupPoint(
                fragment_count=fragmentation.fragment_count(),
                parallel_time=workload.total_parallel_time,
                sequential_time=workload.total_sequential_time,
                speedup=workload.overall_speedup(),
                max_fragment_diameter=max(diameters) if diameters else 0,
                graph_diameter=graph_diameter,
            )
        )
    return points


def compare_fragmenters(
    graph: DiGraph,
    fragmenters: Dict[str, Fragmenter],
    queries: Sequence[PathQuery],
) -> Dict[str, WorkloadSimulation]:
    """Simulate the same shortest-path workload under several fragmentations; results by name.

    This is the experiment the paper defers to its PRISMA follow-up work
    ("experiments will show which of the characteristics ... is of main
    importance"): the query-cost consequences of the fragmentation choice.
    """
    results: Dict[str, WorkloadSimulation] = {}
    for name, fragmenter in fragmenters.items():
        simulator = ParallelSimulator(fragmenter.fragment(graph))
        results[name] = simulator.simulate_workload(queries, include_centralized_baseline=True)
    return results
