"""Integration tests pinning the paper's section-level performance claims.

These are the figure-level statements of Sec. 2.1/2.2 (speed-up, iteration
reduction, selectivity of small disconnection sets) verified on small
instances; the full-size regenerations live in benchmarks/.
"""

import pytest

from repro.closure import seminaive_transitive_closure
from repro.disconnection import DisconnectionSetEngine, precompute_complementary_information
from repro.fragmentation import (
    CenterBasedFragmenter,
    GroundTruthFragmenter,
    HashFragmenter,
    characterize,
    complementary_information_size,
    fragment_diameters,
)
from repro.generators import cross_cluster_queries
from repro.graph import hop_diameter
from repro.parallel import ParallelSimulator


def site_tuples(engine, query):
    """Tuples the sites produced answering ``query``: the sequential work."""
    report = engine.query(query.source, query.target).report
    return sum(work.tuples_produced for work in report.site_work.values())


class TestIterationReduction:
    """"The diameter of each subgraph is highly reduced" (Sec. 2.1)."""

    def test_fragment_diameters_are_smaller_than_graph_diameter(self, small_transportation_network):
        network = small_transportation_network
        fragmentation = GroundTruthFragmenter(network.clusters).fragment(network.graph)
        graph_diameter = hop_diameter(network.graph)
        assert max(fragment_diameters(fragmentation)) < graph_diameter

    def test_local_closures_need_fewer_iterations_than_global(self, small_transportation_network):
        network = small_transportation_network
        fragmentation = GroundTruthFragmenter(network.clusters).fragment(network.graph)
        global_iterations = seminaive_transitive_closure(network.graph).statistics.iterations
        for fragment in fragmentation.fragments:
            local = seminaive_transitive_closure(fragmentation.fragment_subgraph(fragment.fragment_id))
            assert local.statistics.iterations <= global_iterations


class TestSpeedup:
    """"For good fragmentations, it gives a linear speed-up" (Sec. 1)."""

    def test_parallel_beats_sequential_on_cross_cluster_queries(self, small_transportation_network):
        network = small_transportation_network
        fragmentation = GroundTruthFragmenter(network.clusters).fragment(network.graph)
        simulator = ParallelSimulator(fragmentation)
        queries = cross_cluster_queries(network.clusters, 5, seed=2, minimum_cluster_distance=3)
        result = simulator.simulate_workload(queries, include_centralized_baseline=True)
        # End-to-end queries touch all 4 fragments; speedup should be well
        # above 1 and bounded by the fragment count.
        assert 1.5 <= result.overall_speedup() <= 4.5
        assert result.speedup_vs_centralized() > 1.0


class TestSelectivity:
    """Small disconnection sets mean less precomputed data and cheaper searches."""

    def test_good_fragmentation_needs_less_complementary_information(self, small_transportation_network):
        network = small_transportation_network
        good = GroundTruthFragmenter(network.clusters).fragment(network.graph)
        bad = HashFragmenter(4).fragment(network.graph)
        assert complementary_information_size(good) < complementary_information_size(bad)
        good_info = precompute_complementary_information(good)
        assert good_info.size_in_facts() <= complementary_information_size(good)

    def test_smaller_disconnection_sets_mean_less_site_work(self, small_transportation_network):
        network = small_transportation_network
        good = GroundTruthFragmenter(network.clusters).fragment(network.graph)
        bad = HashFragmenter(4).fragment(network.graph)
        good_engine = DisconnectionSetEngine(good)
        bad_engine = DisconnectionSetEngine(bad)
        queries = cross_cluster_queries(network.clusters, 3, seed=5)
        good_work = sum(site_tuples(good_engine, q) for q in queries)
        bad_work = sum(site_tuples(bad_engine, q) for q in queries)
        assert good_work < bad_work


class TestWorkloadBalanceClaim:
    """Center-based fragmentation balances fragment sizes (Sec. 3.1 goal)."""

    def test_center_based_fragments_are_balanced(self, small_transportation_network):
        network = small_transportation_network
        fragmentation = CenterBasedFragmenter(4, center_selection="distributed").fragment(network.graph)
        characteristics = characterize(fragmentation, include_diameter=False)
        # AF (mean absolute deviation of fragment sizes) stays well below the
        # mean fragment size itself.
        assert characteristics.fragment_size_deviation < characteristics.average_fragment_size
