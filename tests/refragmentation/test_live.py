"""Unit tests for layout alignment and the in-place live refragmenter."""

import pytest

from repro.closure import Semiring, shortest_path_cost, widest_path_semiring
from repro.disconnection import DisconnectionSetEngine, FragmentedDatabase
from repro.fragmentation import Fragmentation, GroundTruthFragmenter
from repro.graph import DiGraph
from repro.incremental.maintainer import IncrementalFallback
from repro.refragmentation import LiveRefragmenter, align_layout


def clique_line(blocks=4, size=4):
    graph = DiGraph()
    node_blocks = [list(range(i * size, (i + 1) * size)) for i in range(blocks)]
    for block in node_blocks:
        for i, a in enumerate(block):
            for b in block[i + 1:]:
                graph.add_edge(a, b, 1.0)
                graph.add_edge(b, a, 1.0)
    for i in range(blocks - 1):
        left, right = node_blocks[i][-1], node_blocks[i + 1][0]
        graph.add_edge(left, right, 1.0)
        graph.add_edge(right, left, 1.0)
    return graph, node_blocks


class TestAlignLayout:
    def test_identical_layout_keeps_every_slot(self):
        old = [{(0, 1)}, {(2, 3)}, {(4, 5)}]
        aligned = align_layout(old, [{(4, 5)}, {(0, 1)}, {(2, 3)}])
        assert aligned == old

    def test_partial_overlap_prefers_the_biggest_match(self):
        old = [{(0, 1), (1, 2), (2, 3)}, {(4, 5), (5, 6)}]
        proposed = [{(4, 5), (5, 6), (2, 3)}, {(0, 1), (1, 2)}]
        aligned = align_layout(old, proposed)
        assert aligned[0] == {(0, 1), (1, 2)}
        assert aligned[1] == {(4, 5), (5, 6), (2, 3)}

    def test_shrinking_layout_drops_trailing_ids(self):
        old = [{(0, 1)}, {(2, 3)}, {(4, 5)}]
        aligned = align_layout(old, [{(0, 1), (4, 5)}, {(2, 3)}])
        assert len(aligned) == 2
        assert aligned[0] == {(0, 1), (4, 5)}
        assert aligned[1] == {(2, 3)}

    def test_growing_layout_appends_new_ids(self):
        old = [{(0, 1), (2, 3)}]
        aligned = align_layout(old, [{(0, 1)}, {(2, 3)}])
        assert len(aligned) == 2
        assert aligned[0] == {(0, 1)}  # the bigger-overlap winner keeps slot 0
        assert aligned[1] == {(2, 3)}

    def test_every_proposed_edge_survives_alignment(self):
        old = [{(0, 1)}, {(2, 3), (3, 4)}]
        proposed = [{(3, 4)}, {(0, 1), (2, 3)}]
        aligned = align_layout(old, proposed)
        assert sorted(edge for edges in aligned for edge in edges) == sorted(
            edge for edges in proposed for edge in edges
        )


class TestLiveRefragmenter:
    def _engine(self, graph, blocks):
        fragmentation = GroundTruthFragmenter([set(b) for b in blocks]).fragment(graph)
        return DisconnectionSetEngine(fragmentation)

    def test_untouched_fragments_stay_object_identical(self):
        graph, blocks = clique_line()
        engine = self._engine(graph, blocks)
        before = {site.fragment_id: site for site in engine.catalog.sites()}
        compact_before = {fid: site.compact() for fid, site in before.items()}
        # Move one node between the last two blocks; the first two are untouched.
        new_blocks = [set(blocks[0]), set(blocks[1]), set(blocks[2]) | {12}, set(blocks[3]) - {12}]
        proposed = GroundTruthFragmenter(new_blocks).fragment(graph)
        aligned = align_layout(
            [f.edges for f in engine.catalog.fragmentation.fragments],
            [set(f.edges) for f in proposed.fragments],
        )
        result = LiveRefragmenter(engine).apply(
            Fragmentation(graph, aligned, algorithm=proposed.algorithm)
        )
        assert set(result.unchanged) == {0, 1}
        assert set(result.changed) == {2, 3}
        for fid in result.unchanged:
            assert engine.catalog.site(fid) is before[fid]
            assert engine.catalog.site(fid).compact() is compact_before[fid]
        for fid in result.changed:
            assert engine.catalog.site(fid) is not before[fid]

    def test_answers_match_a_fresh_engine_after_the_redraw(self):
        graph, blocks = clique_line()
        engine = self._engine(graph, blocks)
        new_blocks = [set(blocks[0]) | {4}, set(blocks[1]) - {4}, set(blocks[2]), set(blocks[3])]
        proposed = GroundTruthFragmenter(new_blocks).fragment(graph)
        aligned = align_layout(
            [f.edges for f in engine.catalog.fragmentation.fragments],
            [set(f.edges) for f in proposed.fragments],
        )
        new_fragmentation = Fragmentation(graph, aligned, algorithm=proposed.algorithm)
        LiveRefragmenter(engine).apply(new_fragmentation)
        fresh = DisconnectionSetEngine(new_fragmentation)
        for source, target in [(0, 15), (5, 12), (4, 1), (15, 0), (8, 13)]:
            assert engine.query(source, target).value == pytest.approx(
                fresh.query(source, target).value
            )
            assert engine.query(source, target).value == pytest.approx(
                shortest_path_cost(graph, source, target)
            )

    def test_unchanged_pairs_keep_their_complementary_values(self):
        graph, blocks = clique_line()
        engine = self._engine(graph, blocks)
        info = engine.catalog.complementary
        kept_pair_values = dict(info.values[(0, 1)])
        new_blocks = [set(blocks[0]), set(blocks[1]), set(blocks[2]) | {12}, set(blocks[3]) - {12}]
        proposed = GroundTruthFragmenter(new_blocks).fragment(graph)
        aligned = align_layout(
            [f.edges for f in engine.catalog.fragmentation.fragments],
            [set(f.edges) for f in proposed.fragments],
        )
        result = LiveRefragmenter(engine).apply(
            Fragmentation(graph, aligned, algorithm=proposed.algorithm)
        )
        assert result.pairs_kept >= 1
        assert info.values[(0, 1)] == kept_pair_values
        assert (2, 3) in {pair for pair in result.report.pairs_changed}

    def test_shrinking_redraw_drops_ids_and_sites(self):
        graph, blocks = clique_line(blocks=3)
        engine = self._engine(graph, blocks)
        merged = [set(blocks[0]) | set(blocks[1]), set(blocks[2])]
        proposed = GroundTruthFragmenter(merged).fragment(graph)
        aligned = align_layout(
            [f.edges for f in engine.catalog.fragmentation.fragments],
            [set(f.edges) for f in proposed.fragments],
        )
        result = LiveRefragmenter(engine).apply(
            Fragmentation(graph, aligned, algorithm=proposed.algorithm)
        )
        assert result.dropped == (2,)
        assert len(engine.catalog.sites()) == 2
        fresh = DisconnectionSetEngine(engine.catalog.fragmentation)
        for source, target in [(0, 11), (5, 9), (11, 0)]:
            assert engine.query(source, target).value == pytest.approx(
                fresh.query(source, target).value
            )

    def test_custom_semiring_is_outside_the_envelope(self):
        graph, blocks = clique_line(blocks=2)
        fragmentation = GroundTruthFragmenter([set(b) for b in blocks]).fragment(graph)
        custom = Semiring(
            name="custom",
            zero=float("inf"),
            one=0.0,
            plus=min,
            times=lambda a, b: a + b,
        )
        engine = DisconnectionSetEngine(fragmentation, semiring=custom)
        with pytest.raises(IncrementalFallback):
            LiveRefragmenter(engine)

    def test_routes_cross_the_redrawn_blocks_at_the_whole_graph_cost(self):
        graph, blocks = clique_line()
        engine = self._engine(graph, blocks)
        engine.route(0, 15)  # warm the sites the redraw keeps
        new_blocks = [set(blocks[0]), set(blocks[1]), set(blocks[2]) | {12}, set(blocks[3]) - {12}]
        proposed = GroundTruthFragmenter(new_blocks).fragment(graph)
        aligned = align_layout(
            [f.edges for f in engine.catalog.fragmentation.fragments],
            [set(f.edges) for f in proposed.fragments],
        )
        LiveRefragmenter(engine).apply(Fragmentation(graph, aligned, algorithm=proposed.algorithm))
        # Node 12 moved from block 3 to block 2: route between both blocks and it.
        for source in blocks[2] + blocks[3]:
            for target in (12, blocks[2][0], blocks[3][-1]):
                routed = engine.route(source, target)
                assert routed.cost == pytest.approx(shortest_path_cost(graph, source, target))
                assert routed.route[0] == source and routed.route[-1] == target
                walked = sum(graph.edge_weight(a, b) for a, b in zip(routed.route, routed.route[1:]))
                assert walked == pytest.approx(routed.cost)


class TestDatabaseRefragment:
    def test_scoped_refragment_keeps_the_engine_alive(self):
        graph, blocks = clique_line()
        fragmentation = GroundTruthFragmenter([set(b) for b in blocks]).fragment(graph)
        database = FragmentedDatabase(fragmentation)
        engine = database.engine()
        new_blocks = [set(blocks[0]), set(blocks[1]), set(blocks[2]) | {12}, set(blocks[3]) - {12}]
        database.refragment(GroundTruthFragmenter(new_blocks))
        assert database.engine() is engine
        assert database.statistics.scoped_refragments == 1
        assert database.last_refragment is not None
        record = database.delta_log.last()
        assert record.incremental and record.layout is not None

    def test_layout_replaces_fragmenter(self):
        graph, blocks = clique_line(blocks=2)
        fragmentation = GroundTruthFragmenter([set(b) for b in blocks]).fragment(graph)
        database = FragmentedDatabase(fragmentation)
        database.engine()
        layout = [list(f.edges) for f in fragmentation.fragments]
        database.refragment(layout=layout)
        assert [set(f.edges) for f in database.fragmentation().fragments] == [
            set(edges) for edges in layout
        ]
        with pytest.raises(ValueError):
            database.refragment()

    def test_a_custom_semiring_takes_the_classic_path(self):
        graph, blocks = clique_line(blocks=2)
        fragmentation = GroundTruthFragmenter([set(b) for b in blocks]).fragment(graph)
        database = FragmentedDatabase(fragmentation, semiring=widest_path_semiring())
        engine = database.engine()
        epoch = database.version_vector.epoch
        database.refragment(GroundTruthFragmenter([set(blocks[0]) | {4}, set(blocks[1]) - {4}]))
        assert database.version_vector.epoch == epoch + 1
        assert database.engine() is not engine
        assert database.statistics.refragments == 1
        assert database.statistics.scoped_refragments == 0
