"""Unit tests for the distributed catalog (per-site storage)."""

import pytest

from repro.disconnection import DistributedCatalog, precompute_complementary_information
from repro.fragmentation import GroundTruthFragmenter
from repro.generators import two_cluster_dumbbell


@pytest.fixture
def catalog():
    graph = two_cluster_dumbbell(4, bridge_nodes=2)
    fragmentation = GroundTruthFragmenter([set(range(4)), set(range(4, 8))]).fragment(graph)
    return DistributedCatalog(fragmentation)


class TestSites:
    def test_one_site_per_fragment(self, catalog):
        assert [site.fragment_id for site in catalog.sites()] == [0, 1]

    def test_border_nodes_match_fragmentation(self, catalog):
        fragmentation = catalog.fragmentation
        for site in catalog.sites():
            assert site.border_nodes == fragmentation.border_nodes(site.fragment_id)

    def test_neighbours_and_disconnection_sets(self, catalog):
        site = catalog.site(0)
        assert site.neighbours == [1]
        assert site.disconnection_sets[1] == catalog.fragmentation.disconnection_set(0, 1)

    def test_sites_storing_node(self, catalog):
        # Node 4 and 5 sit on the bridge (stored in both fragments through
        # the bridge edges owned by fragment 0).
        assert catalog.sites_storing_node(1) == [0]
        assert catalog.sites_storing_node(7) == [1]
        assert len(catalog.sites_storing_node(4)) >= 1

    def test_augmented_subgraph_contains_shortcuts(self, catalog):
        site = catalog.site(0)
        augmented = site.augmented_subgraph()
        assert augmented.edge_count() >= site.subgraph.edge_count()


class TestReuseOfComplementaryInformation:
    def test_precomputed_information_is_reused(self):
        graph = two_cluster_dumbbell(4, bridge_nodes=2)
        fragmentation = GroundTruthFragmenter([set(range(4)), set(range(4, 8))]).fragment(graph)
        info = precompute_complementary_information(fragmentation)
        catalog = DistributedCatalog(fragmentation, complementary=info)
        assert catalog.complementary is info
