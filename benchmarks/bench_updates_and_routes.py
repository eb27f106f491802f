"""Ablation: update maintenance cost and full route reconstruction.

Two operational aspects the paper flags but does not quantify:

* "the careful treatment of updates" — measured here as the complementary
  information refresh work triggered by edge insertions/deletions on a
  deployed fragmentation, compared with the cost of answering queries
  (the amortisation argument of Sec. 2.1);
* answering the *route* (not only the cost) of a shortest-path query: the
  engine traces it from the same query-core call that answers the cost, on a
  live engine that has absorbed updates.
"""

from __future__ import annotations

import pytest

from repro.closure import shortest_path_cost
from repro.disconnection import FragmentedDatabase
from repro.fragmentation import GroundTruthFragmenter
from repro.generators import cross_cluster_queries

from .conftest import print_report


@pytest.fixture(scope="module")
def deployed(table1_network):
    fragmentation = GroundTruthFragmenter(table1_network.clusters).fragment(table1_network.graph)
    return table1_network, fragmentation


def test_update_cost_report(deployed):
    """Print the maintenance work triggered by a small update batch."""
    network, fragmentation = deployed
    database = FragmentedDatabase(fragmentation)
    database.engine()  # initial deployment
    nodes = sorted(network.clusters[0])
    # A batch of updates local to one cluster.
    database.insert_edge(nodes[0], nodes[5], 3.0, symmetric=True)
    database.insert_edge(nodes[1], "new-station", 2.0, symmetric=True)
    database.update_edge_weight(nodes[0], nodes[5], 4.0)
    database.delete_edge(nodes[0], nodes[5], symmetric=True)
    engine = database.engine()  # the live engine absorbed the batch in place
    query = cross_cluster_queries(network.clusters, 1, seed=3, minimum_cluster_distance=3)[0]
    answer = engine.shortest_path_cost(query.source, query.target)
    stats = database.statistics.as_dict()
    body = "\n".join(f"{key}: {value}" for key, value in stats.items())
    print_report("Update maintenance cost (Sec. 2.1 amortisation argument)", body)
    assert stats["engine_rebuilds"] == 1 and stats["incremental_fallbacks"] == 0
    assert answer == pytest.approx(shortest_path_cost(database.graph, query.source, query.target))


def test_route_reconstruction_report(deployed):
    """Routes traced through a live engine after an update batch match the centralised optimum."""
    network, fragmentation = deployed
    database = FragmentedDatabase(fragmentation)
    database.engine()
    nodes = sorted(network.clusters[1])
    database.insert_edge(nodes[0], nodes[4], 2.0, symmetric=True)
    database.update_edge_weight(nodes[0], nodes[4], 1.5)
    engine = database.engine()
    graph = database.graph
    queries = cross_cluster_queries(network.clusters, 5, seed=7, minimum_cluster_distance=3)
    lines = []
    for query in queries:
        answer = engine.route(query.source, query.target)
        reference = shortest_path_cost(graph, query.source, query.target)
        assert answer.cost == pytest.approx(reference)
        walk_cost = sum(graph.edge_weight(a, b) for a, b in zip(answer.route, answer.route[1:]))
        assert walk_cost == pytest.approx(answer.cost)
        lines.append(
            f"{query.source} -> {query.target}: cost {answer.cost:.1f}, {answer.hops()} hops, "
            f"chain {list(answer.chain)}"
        )
    print_report("Route reconstruction across fragments", "\n".join(lines))
    assert database.statistics.incremental_fallbacks == 0


@pytest.mark.benchmark(group="updates")
def test_refresh_after_update_benchmark(benchmark, deployed):
    """Time one insert + engine refresh cycle."""
    network, fragmentation = deployed

    def insert_and_refresh():
        database = FragmentedDatabase(fragmentation)
        database.insert_edge(0, 1, 2.0)
        database.engine()
        return database

    database = benchmark(insert_and_refresh)
    assert database.statistics.edges_inserted == 1


@pytest.mark.benchmark(group="updates")
def test_route_query_benchmark(benchmark, deployed):
    """Time one cross-network route reconstruction."""
    network, fragmentation = deployed
    engine = FragmentedDatabase(fragmentation).engine()
    query = cross_cluster_queries(network.clusters, 1, seed=11, minimum_cluster_distance=3)[0]
    answer = benchmark(engine.route, query.source, query.target)
    assert answer.route
