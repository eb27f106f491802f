"""Sec. 5 extension: Parallel Hierarchical Evaluation.

When the fragmentation graph is complex, enumerating fragment chains gets
expensive; the high-speed-network plan always uses three fragments.  This
benchmark compares the fragments the plain chain plan touches with the
hierarchical plan's on a many-cluster network, times the engine (which
answers through the border graph) against the hierarchical engine, and
validates all three against the centralised answer.
"""

from __future__ import annotations

import pytest

from repro.closure import shortest_path_cost
from repro.disconnection import (
    DisconnectionSetEngine,
    HierarchicalEngine,
    LocalQueryEvaluator,
    QueryPlanner,
    answer_in_process,
)
from repro.fragmentation import GroundTruthFragmenter
from repro.generators import (
    TransportationGraphConfig,
    cross_cluster_queries,
    generate_transportation_graph,
)

from .conftest import print_report


@pytest.fixture(scope="module")
def many_cluster_network():
    config = TransportationGraphConfig(
        cluster_count=6,
        nodes_per_cluster=12,
        cluster_c1=280.0,
        cluster_c2=0.03,
        inter_cluster_edges=2,
        topology="cycle",
    )
    return generate_transportation_graph(config, seed=23)


@pytest.fixture(scope="module")
def engines(many_cluster_network):
    fragmentation = GroundTruthFragmenter(many_cluster_network.clusters).fragment(
        many_cluster_network.graph
    )
    return (
        DisconnectionSetEngine(fragmentation),
        HierarchicalEngine(fragmentation),
    )


def test_hierarchical_correctness_report(many_cluster_network, engines):
    """Every path returns the centralised answer; the hierarchical plan uses 3 fragments."""
    plain, hierarchical = engines
    catalog = plain.catalog
    planner, evaluator = QueryPlanner(catalog), LocalQueryEvaluator()
    graph = many_cluster_network.graph
    queries = cross_cluster_queries(
        many_cluster_network.clusters, 6, seed=2, minimum_cluster_distance=2
    )
    plain_fragments = []
    hierarchical_fragments = []
    for query in queries:
        reference = shortest_path_cost(graph, query.source, query.target)
        chain_answer = answer_in_process(
            catalog, planner, evaluator, catalog.site, query.source, query.target
        )
        hierarchical_answer = hierarchical.query(query.source, query.target)
        assert plain.query(query.source, query.target).value == pytest.approx(reference)
        assert chain_answer.value == pytest.approx(reference)
        assert hierarchical_answer.value == pytest.approx(reference)
        plain_fragments.append(len(chain_answer.report.site_work))
        hierarchical_fragments.append(len(hierarchical_answer.report.site_work))
    backbone = hierarchical.backbone_statistics()
    body = (
        f"queries: {len(queries)} (non-adjacent cluster pairs, cyclic fragmentation graph)\n"
        f"fragments touched per query (fragment chains):     {plain_fragments}\n"
        f"fragments touched per query (hierarchical engine): {hierarchical_fragments}\n"
        f"backbone fragment: {backbone.node_count} nodes, {backbone.edge_count} edges"
    )
    print_report("Parallel hierarchical evaluation (Sec. 5 extension)", body)
    assert max(hierarchical_fragments) <= 3


@pytest.mark.benchmark(group="hierarchical")
def test_plain_engine_benchmark(benchmark, many_cluster_network, engines):
    plain, _ = engines
    queries = cross_cluster_queries(
        many_cluster_network.clusters, 4, seed=5, minimum_cluster_distance=2
    )
    benchmark(lambda: [plain.query(q.source, q.target) for q in queries])


@pytest.mark.benchmark(group="hierarchical")
def test_hierarchical_engine_benchmark(benchmark, many_cluster_network, engines):
    _, hierarchical = engines
    queries = cross_cluster_queries(
        many_cluster_network.clusters, 4, seed=5, minimum_cluster_distance=2
    )
    benchmark(lambda: [hierarchical.query(q.source, q.target) for q in queries])
