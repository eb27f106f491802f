#!/usr/bin/env python3
"""Operating a fragmented graph database: advisor, updates, and routes.

The paper treats fragmentation as an offline design decision whose costs
(complementary-information precomputation, update handling) are amortised over
many queries.  This example plays the role of the operator:

1. ask the advisor which fragmentation algorithm fits the network,
2. deploy the fragmentation in a mutable :class:`FragmentedDatabase`,
3. apply a batch of updates (a new station, a closed track, a re-priced line)
   — the live engine absorbs each one in place — and observe the maintenance
   cost,
4. answer cost *and route* queries on the updated database.

Run with:  python examples/dynamic_updates.py
"""

from __future__ import annotations

from repro.disconnection import FragmentedDatabase
from repro.fragmentation import AdvisorConstraints, recommend
from repro.generators import TransportationGraphConfig, generate_transportation_graph


def main() -> None:
    config = TransportationGraphConfig(
        cluster_count=3, nodes_per_cluster=15, cluster_c1=340.0, inter_cluster_edges=2
    )
    network = generate_transportation_graph(config, seed=29)
    graph = network.graph

    # 1. Ask the advisor.
    recommendation = recommend(graph, AdvisorConstraints(processor_count=3))
    print("advisor recommendation:")
    for line in recommendation.rationale:
        print(f"  {line}")
    fragmentation = recommendation.fragment(graph)

    # 2. Deploy.
    database = FragmentedDatabase(fragmentation)
    engine = database.engine()
    nodes = sorted(network.clusters[0]), sorted(network.clusters[2])
    source, target = nodes[0][0], nodes[1][0]
    print(f"\ninitial query {source} -> {target}: cost {engine.shortest_path_cost(source, target):.1f}")

    # 3. Updates: open a new station, close a track, re-price a line.
    hub = nodes[0][1]
    database.insert_edge(hub, "new-station", 4.0, symmetric=True)
    some_edge = next(iter(fragmentation.fragment(0).edges))
    database.update_edge_weight(*some_edge, weight=50.0)
    database.delete_edge(*some_edge)
    print("\nafter updates:")
    print(f"  maintenance statistics: {database.statistics.as_dict()}")
    # engine() hands back the same live engine unless an update fell outside
    # the in-place envelope (counted in incremental_fallbacks) and forced a rebuild.
    print(f"  {source} -> new-station: cost "
          f"{database.engine().shortest_path_cost(source, 'new-station'):.1f}")

    # 4. Route reconstruction on the updated state, through the same live engine.
    answer = database.engine().route(source, target)
    print(f"\nroute {source} -> {target} (cost {answer.cost:.1f}, "
          f"{answer.hops()} hops, fragments {list(answer.chain)}):")
    print("  " + " -> ".join(str(node) for node in answer.route))


if __name__ == "__main__":
    main()
