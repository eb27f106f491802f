"""Unit tests for the parallel evaluation simulator."""

import pytest

from repro.fragmentation import GroundTruthFragmenter
from repro.generators import PathQuery, cross_cluster_queries, mixed_workload
from repro.parallel import CostModel, ParallelSimulator


@pytest.fixture(scope="module")
def simulator(small_transportation_network):
    network = small_transportation_network
    fragmentation = GroundTruthFragmenter(network.clusters).fragment(network.graph)
    return network, ParallelSimulator(fragmentation)


class TestQuerySimulation:
    def test_single_query_times(self, simulator):
        network, sim = simulator
        queries = cross_cluster_queries(network.clusters, 1, seed=1)
        result = sim.simulate_query(queries[0])
        assert result.answer.exists()
        assert result.parallel_time > 0.0
        assert result.sequential_time >= result.parallel_time
        assert result.speedup() >= 1.0

    def test_processor_loads_map_to_assignment(self, simulator):
        network, sim = simulator
        queries = cross_cluster_queries(network.clusters, 1, seed=2, minimum_cluster_distance=3)
        result = sim.simulate_query(queries[0])
        # An end-to-end query touches all four fragments = four processors.
        assert len(result.processor_loads) == 4

    def test_intra_cluster_query_uses_one_processor(self, simulator):
        network, sim = simulator
        from repro.generators import intra_cluster_queries

        query = intra_cluster_queries(network.clusters, 1, seed=3)[0]
        result = sim.simulate_query(query)
        assert len(result.processor_loads) == 1
        assert result.speedup() == pytest.approx(1.0, abs=0.2)


class TestWorkloadSimulation:
    def test_workload_aggregates(self, simulator):
        network, sim = simulator
        workload = mixed_workload(network.graph, network.clusters, 6, cross_fraction=0.5, seed=4)
        result = sim.simulate_workload(workload)
        assert len(result.query_simulations) == 6
        assert result.total_parallel_time > 0
        assert result.overall_speedup() >= 1.0

    def test_centralized_baseline_costs_more(self, simulator):
        network, sim = simulator
        workload = cross_cluster_queries(network.clusters, 3, seed=5)
        result = sim.simulate_workload(workload, include_centralized_baseline=True)
        assert result.centralized_time is not None
        # The disconnection set approach does far less work than a full
        # closure of the whole graph per query.
        assert result.speedup_vs_centralized() > 1.0

    def test_empty_workload(self, simulator):
        _, sim = simulator
        result = sim.simulate_workload([])
        assert result.overall_speedup() == 1.0


class TestProcessorsAndCosts:
    def test_one_processor_per_fragment(self, simulator):
        network, sim = simulator
        query = cross_cluster_queries(network.clusters, 1, seed=7, minimum_cluster_distance=3)[0]
        result = sim.simulate_query(query)
        site_costs = CostModel().site_costs(result.answer.report)
        assert len(result.processor_loads) == len(site_costs)
        assert sorted(result.processor_loads.values()) == sorted(site_costs.values())

    def test_parallel_time_is_the_slowest_site_plus_assembly(self, simulator):
        network, sim = simulator
        query = cross_cluster_queries(network.clusters, 1, seed=7, minimum_cluster_distance=3)[0]
        result = sim.simulate_query(query)
        report = result.answer.report
        slowest = max(CostModel().site_costs(report).values())
        assert result.parallel_time == slowest + CostModel().assembly_cost(report)
        assert result.sequential_time == CostModel().sequential_cost(report)
