"""Tests for update handling on a deployed fragmentation."""

import pytest

from repro.closure import shortest_path_cost
from repro.disconnection import FragmentedDatabase
from repro.exceptions import DisconnectedError, FragmentationError
from repro.fragmentation import CenterBasedFragmenter, GroundTruthFragmenter
from repro.generators import two_cluster_dumbbell


@pytest.fixture
def database():
    graph = two_cluster_dumbbell(4, bridge_nodes=1)
    fragmentation = GroundTruthFragmenter([set(range(4)), set(range(4, 8))]).fragment(graph)
    return FragmentedDatabase(fragmentation)


class TestInsertions:
    def test_insert_routes_to_fragment_containing_both_endpoints(self, database):
        owner = database.insert_edge(1, 3, 2.5)
        assert owner == 0
        assert database.graph.has_edge(1, 3)
        assert database.statistics.edges_inserted == 1

    def test_insert_new_node_extends_an_existing_fragment(self, database):
        owner = database.insert_edge(7, "new-stop", 1.0, symmetric=True)
        assert owner == 1
        fragmentation = database.fragmentation()
        assert "new-stop" in fragmentation.fragment(owner).nodes

    def test_insert_between_unknown_nodes_goes_to_smallest_fragment(self, database):
        owner = database.insert_edge("x1", "x2", 1.0)
        assert owner in (0, 1)
        assert database.graph.has_edge("x1", "x2")

    def test_queries_reflect_inserted_shortcut(self, database):
        engine_before = database.engine()
        before = engine_before.shortest_path_cost(0, 7)
        database.insert_edge(0, 7, 0.5, symmetric=True)
        after = database.engine().shortest_path_cost(0, 7)
        assert after == pytest.approx(0.5)
        assert after < before

    def test_a_live_engine_absorbs_an_update_in_place(self, database):
        first = database.engine()
        assert database.engine() is first
        database.insert_edge(0, 2, 0.25)
        assert database.engine() is first
        assert database.statistics.engine_rebuilds == 1
        assert database.statistics.incremental_updates == 1
        assert first.shortest_path_cost(0, 2) == pytest.approx(0.25)


class TestDeletionsAndWeightChanges:
    def test_delete_edge(self, database):
        database.delete_edge(0, 1)
        assert not database.graph.has_edge(0, 1)
        assert database.statistics.edges_deleted == 1

    def test_delete_symmetric(self, database):
        database.delete_edge(0, 1, symmetric=True)
        assert not database.graph.has_edge(1, 0)
        assert database.statistics.edges_deleted == 2

    def test_delete_unknown_edge_raises(self, database):
        with pytest.raises(FragmentationError):
            database.delete_edge("nope", "nothere")

    def test_deleting_the_bridge_disconnects_the_clusters(self, database):
        from repro.exceptions import NoChainError

        database.delete_edge(0, 4, symmetric=True)
        with pytest.raises((DisconnectedError, NoChainError)):
            database.engine().shortest_path_cost(1, 7)

    def test_update_edge_weight_changes_answers(self, database):
        baseline = database.engine().shortest_path_cost(1, 7)
        database.update_edge_weight(0, 4, 100.0)
        database.update_edge_weight(4, 0, 100.0)
        increased = database.engine().shortest_path_cost(1, 7)
        assert increased > baseline

    def test_update_unknown_edge_raises(self, database):
        with pytest.raises(FragmentationError):
            database.update_edge_weight("a", "b", 1.0)


class TestConsistencyAndRefragmentation:
    def test_answers_match_centralized_after_a_batch_of_updates(self, database):
        database.insert_edge(2, 6, 1.5, symmetric=True)
        database.delete_edge(0, 1, symmetric=True)
        database.insert_edge(5, "depot", 2.0, symmetric=True)
        graph = database.graph
        engine = database.engine()
        for source, target in [(2, 6), (3, "depot"), (1, 7)]:
            assert engine.shortest_path_cost(source, target) == pytest.approx(
                shortest_path_cost(graph, source, target)
            )

    def test_fragmentation_snapshot_is_valid_after_updates(self, database):
        database.insert_edge(1, 3, 1.0, symmetric=True)
        database.insert_edge(6, "annex", 1.0, symmetric=True)
        database.delete_edge(4, 5, symmetric=True)
        database.fragmentation().validate()

    def test_refragment_with_a_new_algorithm(self, database):
        database.insert_edge(3, "hub", 1.0, symmetric=True)
        fragmentation = database.refragment(CenterBasedFragmenter(2, center_selection="distributed"))
        fragmentation.validate()
        assert fragmentation.algorithm == "center-based-distributed"
        # Queries still work after reorganisation.
        cost = database.engine().shortest_path_cost(1, 7)
        assert cost == pytest.approx(shortest_path_cost(database.graph, 1, 7))

    def test_update_statistics_dictionary(self, database):
        database.insert_edge(0, 3, 2.0)  # stored at 1.0: at that weight it would change nothing
        stats = database.statistics.as_dict()
        assert stats["edges_inserted"] == 1
        assert "complementary_refreshes" in stats
