#!/usr/bin/env python3
"""Measure the speed-up of the disconnection set approach as fragments are added.

The paper claims near-linear speed-up for good fragmentations (Sec. 1): the
per-fragment transitive closures run independently, and each fragment's
diameter — hence its iteration count — shrinks as the graph is split further.
This example sweeps the number of clusters/fragments, simulates an end-to-end
query workload at each point, and prints the speed-up and iteration-reduction
series.  It closes with a real multiprocessing run of one query —
``QueryService(fragmentation, workers=4)`` — to show the subqueries executing
as independent OS processes.

Run with:  python examples/parallel_speedup.py
"""

from __future__ import annotations

from repro import CenterBasedFragmenter, GroundTruthFragmenter
from repro.generators import (
    TransportationGraphConfig,
    cross_cluster_queries,
    generate_transportation_graph,
)
from repro.parallel import speedup_curve
from repro.service import QueryService


def network_with(cluster_count: int):
    config = TransportationGraphConfig(
        cluster_count=cluster_count,
        nodes_per_cluster=18,
        cluster_c1=430.0,
        cluster_c2=0.03,
        inter_cluster_edges=2,
    )
    return generate_transportation_graph(config, seed=11)


def main() -> None:
    print("fragments  speedup  iteration_reduction  parallel_time  sequential_time")
    for cluster_count in (2, 3, 4, 6, 8):
        network = network_with(cluster_count)
        queries = cross_cluster_queries(
            network.clusters, 8, seed=2, minimum_cluster_distance=cluster_count - 1
        )
        point = speedup_curve(
            network.graph,
            lambda count: CenterBasedFragmenter(count, center_selection="distributed"),
            fragment_counts=[cluster_count],
            queries=queries,
        )[0]
        print(
            f"{point.fragment_count:^9}  {point.speedup:7.2f}  {point.iteration_reduction():19.2f}  "
            f"{point.parallel_time:13.0f}  {point.sequential_time:15.0f}"
        )

    # One query executed with real worker processes (one per fragment).
    network = network_with(4)
    fragmentation = GroundTruthFragmenter(network.clusters).fragment(network.graph)
    query = cross_cluster_queries(network.clusters, 1, seed=9, minimum_cluster_distance=3)[0]
    with QueryService(fragmentation, workers=4) as service:
        answer = service.query(query.source, query.target)
        print(
            f"\nmultiprocessing run: {query.source} -> {query.target} = {answer.value:.1f} "
            f"({service.stats.local_evaluations.value():.0f} subqueries on "
            f"{service.pool_health()['workers']} worker processes)"
        )


if __name__ == "__main__":
    main()
