"""Unit tests for the fragmentation characteristic metrics (Tables 1-3 columns)."""

import pytest

from repro.fragmentation import (
    Fragmentation,
    GroundTruthFragmenter,
    characterize,
    complementary_information_size,
    fragment_diameters,
    total_border_nodes,
)
from repro.generators import two_cluster_dumbbell


@pytest.fixture
def dumbbell_fragmentation() -> Fragmentation:
    graph = two_cluster_dumbbell(4, bridge_nodes=1)
    return GroundTruthFragmenter([set(range(4)), set(range(4, 8))]).fragment(graph)


class TestCharacterize:
    def test_columns_present(self, dumbbell_fragmentation):
        characteristics = characterize(dumbbell_fragmentation)
        row = characteristics.as_dict()
        assert {"F", "DS", "AF", "ADS", "cycle_count", "loosely_connected"} <= set(row)

    def test_fragment_count_and_sizes(self, dumbbell_fragmentation):
        characteristics = characterize(dumbbell_fragmentation)
        assert characteristics.fragment_count == 2
        # Each clique has 6 undirected edges; the bridge edge joins fragment 0.
        assert characteristics.average_fragment_size == pytest.approx(6.5)
        assert characteristics.fragment_size_deviation == pytest.approx(0.5)

    def test_disconnection_set_stats(self, dumbbell_fragmentation):
        characteristics = characterize(dumbbell_fragmentation)
        assert characteristics.disconnection_set_count == 1
        assert characteristics.average_disconnection_set_size == 1.0
        assert characteristics.disconnection_set_deviation == 0.0

    def test_loose_connectivity_flag(self, dumbbell_fragmentation):
        characteristics = characterize(dumbbell_fragmentation)
        assert characteristics.loosely_connected
        assert characteristics.cycle_count == 0

    def test_diameter_can_be_skipped(self, dumbbell_fragmentation):
        without = characterize(dumbbell_fragmentation, include_diameter=False)
        with_diameter = characterize(dumbbell_fragmentation, include_diameter=True)
        assert without.max_fragment_diameter == 0
        assert with_diameter.max_fragment_diameter >= 1


class TestDerivedMetrics:
    def test_fragment_diameters(self, dumbbell_fragmentation):
        diameters = fragment_diameters(dumbbell_fragmentation)
        assert len(diameters) == 2
        assert all(diameter >= 1 for diameter in diameters)

    def test_total_border_nodes(self, dumbbell_fragmentation):
        assert total_border_nodes(dumbbell_fragmentation) == 1

    def test_complementary_information_size_quadratic_in_border(self, dumbbell_fragmentation):
        # One shared border node -> no border-to-border pairs to precompute.
        assert complementary_information_size(dumbbell_fragmentation) == 0
        graph = two_cluster_dumbbell(4, bridge_nodes=2)
        fragmentation = GroundTruthFragmenter([set(range(4)), set(range(4, 8))]).fragment(graph)
        assert complementary_information_size(fragmentation) > 0
