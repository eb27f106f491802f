"""The incremental maintainer vs from-scratch rebuilds.

The contract under test: after any sequence of insert/delete/reweight
updates, an incrementally maintained engine holds *exactly* the complementary
information and returns *exactly* the answers a from-scratch rebuild would —
while touching only the fragments the change actually dirtied.
"""

import random

import pytest

from repro.closure import reachability_semiring, shortest_path_semiring, widest_path_semiring
from repro.disconnection import DisconnectionSetEngine, FragmentedDatabase
from repro.exceptions import NoChainError
from repro.fragmentation import GroundTruthFragmenter
from repro.generators import two_cluster_dumbbell
from repro.graph import DiGraph
from repro.graph.shortest_path import shortest_path_length


def _random_database(seed, semiring, *, blocks=3, nodes_per_block=4):
    """A random multi-fragment database with integer weights (exact floats)."""
    rng = random.Random(seed)
    graph = DiGraph()
    node_blocks = [
        list(range(index * nodes_per_block, (index + 1) * nodes_per_block))
        for index in range(blocks)
    ]
    for block in node_blocks:  # an intra-block cycle keeps every fragment nonempty
        for a, b in zip(block, block[1:] + block[:1]):
            graph.add_edge(a, b, float(rng.randint(1, 9)))
    node_count = blocks * nodes_per_block
    for _ in range(2 * node_count):
        a, b = rng.randrange(node_count), rng.randrange(node_count)
        if a != b and not graph.has_edge(a, b):
            graph.add_edge(a, b, float(rng.randint(1, 9)))
    fragmentation = GroundTruthFragmenter([set(block) for block in node_blocks]).fragment(graph)
    database = FragmentedDatabase(fragmentation, semiring=semiring)
    database.engine()  # bind the live engine the maintainer patches
    return rng, database


def _answers(engine, pairs):
    values = []
    for source, target in pairs:
        try:
            values.append(engine.query(source, target).value)
        except NoChainError:
            values.append("no-chain")
    return values


def _assert_matches_rebuild(database, sample_pairs):
    """The live engine must agree with a from-scratch engine, fact for fact."""
    live = database.engine()
    reference = DisconnectionSetEngine(database.fragmentation(), semiring=live.semiring)
    assert live.catalog.complementary.values == reference.catalog.complementary.values
    assert _answers(live, sample_pairs) == _answers(reference, sample_pairs)


@pytest.mark.parametrize(
    "make_semiring", [shortest_path_semiring, reachability_semiring], ids=["sp", "reach"]
)
class TestRandomizedInterleavings:
    def test_incremental_matches_from_scratch_rebuild(self, make_semiring):
        semiring = make_semiring()
        rng, database = _random_database(11, semiring)
        node_count = 12
        sample_pairs = [
            (rng.randrange(node_count), rng.randrange(node_count)) for _ in range(10)
        ]
        for step in range(30):
            op = rng.choice(["insert", "insert", "reweight", "reweight", "delete", "query"])
            if op == "insert":
                a, b = rng.randrange(node_count + 2), rng.randrange(node_count + 2)
                if a == b:
                    continue
                database.insert_edge(a, b, float(rng.randint(1, 9)))
            elif op == "reweight":
                edges = database.graph.edges()
                a, b = rng.choice(edges)
                if database._owner_of_edge(a, b) is None:
                    continue
                database.update_edge_weight(a, b, float(rng.randint(1, 9)))
            elif op == "delete":
                edges = database.graph.edges()
                a, b = rng.choice(edges)
                if database._owner_of_edge(a, b) is None:
                    continue
                database.delete_edge(a, b)
            else:
                source, target = rng.choice(sample_pairs)
                try:
                    database.engine().query(source, target)
                except NoChainError:
                    pass
            _assert_matches_rebuild(database, sample_pairs)
        assert database.statistics.incremental_updates > 0

    def test_symmetric_updates_match_rebuild(self, make_semiring):
        semiring = make_semiring()
        rng, database = _random_database(5, semiring)
        sample_pairs = [(0, 11), (4, 2), (8, 1), (3, 10)]
        database.insert_edge(1, 6, 2.0, symmetric=True)
        _assert_matches_rebuild(database, sample_pairs)
        database.insert_edge(1, 6, 1.0, symmetric=True)  # reweight through insert
        _assert_matches_rebuild(database, sample_pairs)
        database.delete_edge(1, 6, symmetric=True)
        _assert_matches_rebuild(database, sample_pairs)
        assert database.statistics.incremental_updates == 3


class TestScoping:
    @pytest.fixture
    def database(self):
        graph = two_cluster_dumbbell(4, bridge_nodes=1)
        fragmentation = GroundTruthFragmenter([set(range(4)), set(range(4, 8))]).fragment(graph)
        database = FragmentedDatabase(fragmentation)
        database.engine()
        return database

    def test_engine_identity_survives_incremental_updates(self, database):
        engine = database.engine()
        database.update_edge_weight(1, 2, 4.0)
        assert database.engine() is engine
        assert database.statistics.engine_rebuilds == 1
        assert database.statistics.incremental_updates == 1

    def test_interior_update_dirties_only_its_fragment(self, database):
        engine = database.engine()
        untouched = engine.catalog.site(1)
        untouched_compact = untouched.compact()
        owner = database.insert_edge(1, 3, 100.0)  # too heavy to improve anything
        assert owner == 0
        assert database.last_delta.dirty_fragments == (0,)
        assert engine.catalog.site(1) is untouched
        assert engine.catalog.site(1).compact() is untouched_compact
        assert database.version_vector.version_of(0) == 1
        assert database.version_vector.version_of(1) == 0

    def test_border_value_repair_dirties_both_pair_fragments(self):
        graph = two_cluster_dumbbell(4, bridge_nodes=2)  # DS(0, 1) = {4, 5}
        fragmentation = GroundTruthFragmenter([set(range(4)), set(range(4, 8))]).fragment(graph)
        database = FragmentedDatabase(fragmentation)
        engine = database.engine()
        assert engine.catalog.complementary.for_pair(0, 1)[(4, 5)] == 1.0
        # Up-weighting the direct 4 -> 5 edge degrades the stored whole-graph
        # border value; the suspect probe finds it and repairs the row.
        database.update_edge_weight(4, 5, 10.0)
        assert database.engine() is engine
        assert engine.catalog.complementary.for_pair(0, 1)[(4, 5)] == 2.0  # 4 -> 6 -> 5
        assert set(database.last_delta.dirty_fragments) == {0, 1}
        assert database.last_delta.pairs_changed == ((0, 1),)
        _assert_matches_rebuild(database, [(1, 7), (6, 2), (0, 4)])
        assert database.statistics.incremental_updates == 1

    def test_update_events_carry_scope(self, database):
        events = []
        database.add_update_listener(events.append)
        database.insert_edge(1, 3, 100.0)
        assert events[-1].incremental
        assert events[-1].dirty_fragments == (0,)
        database.delete_edge(1, 3)
        assert events[-1].incremental
        assert 0 in events[-1].dirty_fragments

    def test_delta_log_records_the_stream(self, database):
        database.insert_edge(1, 3, 100.0)
        database.update_edge_weight(1, 3, 50.0)
        database.delete_edge(1, 3)
        kinds = [record.kind for record in database.delta_log.records()]
        assert kinds == ["insert", "reweight", "delete"]
        assert all(record.incremental for record in database.delta_log.records())


class TestFallbacks:
    def test_custom_semiring_falls_back_to_full_rebuild(self):
        graph = two_cluster_dumbbell(3, bridge_nodes=1)
        fragmentation = GroundTruthFragmenter([set(range(3)), set(range(3, 6))]).fragment(graph)
        database = FragmentedDatabase(
            fragmentation, semiring=widest_path_semiring()
        )
        first = database.engine()
        database.insert_edge(0, 2, 5.0)
        assert database.engine() is not first
        assert database.statistics.incremental_updates == 0
        assert database.statistics.engine_rebuilds == 2
        assert not database.delta_log.last().incremental

    def test_emptying_a_fragment_falls_back(self):
        graph = DiGraph(
            [
                ("a", "b", 1.0),
                ("b", "a", 1.0),
                ("c", "d", 1.0),
                ("d", "c", 1.0),
                ("b", "c", 1.0),
            ]
        )
        fragmentation = GroundTruthFragmenter([{"a", "b"}, {"c", "d"}]).fragment(graph)
        assert fragmentation.fragment_count() == 2
        database = FragmentedDatabase(fragmentation)
        engine = database.engine()
        epoch_before = database.version_vector.epoch
        database.delete_edge("c", "d")
        database.delete_edge("d", "c")  # fragment 1 is now empty: ids shift
        assert database.version_vector.epoch > epoch_before
        assert database.engine() is not engine
        assert database.fragmentation().fragment_count() == 1

    def test_classic_updates_advance_the_epoch(self):
        graph = two_cluster_dumbbell(3, bridge_nodes=1)
        fragmentation = GroundTruthFragmenter([set(range(3)), set(range(3, 6))]).fragment(graph)
        database = FragmentedDatabase(fragmentation)  # no engine built yet
        epoch = database.version_vector.epoch
        database.insert_edge(0, 2, 2.0)  # stored at 1.0: at that weight it would change nothing
        assert database.version_vector.epoch == epoch + 1
        assert database.delta_log.last().incremental is False

    def test_scoped_refragment_bumps_versions_not_the_epoch(self):
        from repro.fragmentation import CenterBasedFragmenter

        graph = two_cluster_dumbbell(4, bridge_nodes=1)
        fragmentation = GroundTruthFragmenter([set(range(4)), set(range(4, 8))]).fragment(graph)
        database = FragmentedDatabase(fragmentation)
        engine = database.engine()
        epoch = database.version_vector.epoch
        database.refragment(CenterBasedFragmenter(2, center_selection="distributed"))
        # A live redraw is absorbed in place: the engine survives, only the
        # dirty fragments' versions move, and the record carries the layout.
        assert database.version_vector.epoch == epoch
        assert database.engine() is engine
        record = database.delta_log.last()
        assert record.kind == "refragment"
        assert record.incremental is True
        assert record.layout is not None

    def test_full_rebuild_refragment_advances_the_epoch(self):
        from repro.fragmentation import CenterBasedFragmenter

        graph = two_cluster_dumbbell(4, bridge_nodes=1)
        fragmentation = GroundTruthFragmenter([set(range(4)), set(range(4, 8))]).fragment(graph)
        database = FragmentedDatabase(fragmentation)  # no engine built yet
        epoch = database.version_vector.epoch
        database.refragment(CenterBasedFragmenter(2, center_selection="distributed"))
        assert database.version_vector.epoch == epoch + 1
        record = database.delta_log.last()
        assert record.kind == "refragment"
        assert record.incremental is False
        assert record.layout is not None  # replayable even on the classic path


def test_routes_follow_the_live_engine_through_an_update_stream():
    """The live engine absorbs four updates in place and routes at the whole-graph cost."""
    graph = two_cluster_dumbbell(4, bridge_nodes=2)
    fragmentation = GroundTruthFragmenter([set(range(4)), set(range(4, 8))]).fragment(graph)
    database = FragmentedDatabase(fragmentation)
    engine = database.engine()
    database.update_edge_weight(4, 5, 10.0)  # degrade the direct border edge
    database.insert_edge(0, 7, 3.0)
    database.update_edge_weight(0, 7, 1.0)
    database.delete_edge(0, 7)
    assert database.engine() is engine
    assert database.statistics.incremental_updates == 4
    _assert_matches_rebuild(database, [(0, 7), (4, 5), (1, 6), (7, 0)])
    for source, target in [(0, 7), (4, 5), (1, 6), (7, 0), (5, 4)]:
        routed = engine.route(source, target)
        expected = shortest_path_length(database.graph, source, target)
        assert routed.cost == engine.query(source, target).value == pytest.approx(expected)
        assert routed.route[0] == source and routed.route[-1] == target
        walked = sum(database.graph.edge_weight(a, b) for a, b in zip(routed.route, routed.route[1:]))
        assert walked == pytest.approx(expected)


class TestPostEmptyConsistency:
    """After a fragment empties, raw edge-set indices must keep matching the
    renumbered fragmentation ids — later updates crashed (or patched the
    wrong site) before the edge-set list was compacted alongside."""

    def _three_fragment_db(self):
        # Cross-block edges land in the lower block, so fragment 1 owns only
        # the c <-> d pair and can be emptied by deleting it.
        graph = DiGraph(
            [
                ("a", "b", 1.0),
                ("b", "a", 1.0),
                ("c", "d", 1.0),
                ("d", "c", 1.0),
                ("e", "f", 1.0),
                ("f", "e", 1.0),
                ("b", "c", 1.0),
                ("f", "a", 1.0),
            ]
        )
        fragmentation = GroundTruthFragmenter(
            [{"a", "b"}, {"c", "d"}, {"e", "f"}]
        ).fragment(graph)
        assert fragmentation.fragment_count() == 3
        database = FragmentedDatabase(fragmentation)
        database.engine()
        return database

    def test_update_after_a_fragment_emptied(self):
        database = self._three_fragment_db()
        database.delete_edge("c", "d")
        database.delete_edge("d", "c")  # fragment 1 empties; ids renumber
        assert database.fragmentation().fragment_count() == 2
        database.engine()
        # The edge formerly owned by raw index 2 must resolve to the live
        # catalog's renumbered id — no KeyError, no wrong-site refresh.
        database.update_edge_weight("e", "f", 9.0)
        engine = database.engine()
        assert engine.catalog.site(1).subgraph.edge_weight("e", "f") == 9.0
        _assert_matches_rebuild(database, [("a", "f"), ("e", "f"), ("b", "e")])

    def test_unexpected_repair_failure_falls_back_to_rebuild(self, monkeypatch):
        database = self._three_fragment_db()
        engine = database.engine()
        maintainer = database._ensure_maintainer()
        assert maintainer is not None

        def explode(*args, **kwargs):
            raise KeyError("simulated mid-repair failure")

        monkeypatch.setattr(maintainer, "complete", explode)
        database.update_edge_weight("a", "b", 5.0)
        # The mutation must never pair with the old engine: the update fell
        # back to a full rebuild and the new engine serves the new weight.
        assert database.engine() is not engine
        assert database.graph.edge_weight("a", "b") == 5.0
        assert not database.delta_log.last().incremental
        _assert_matches_rebuild(database, [("a", "f"), ("a", "b")])
