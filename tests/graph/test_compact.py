"""Unit tests for the compact (CSR + interner) graph representation."""

import pickle

import pytest

from repro.exceptions import NodeNotFoundError
from repro.graph import CompactGraph, DiGraph


@pytest.fixture
def sample_graph():
    graph = DiGraph([("a", "b", 2.0), ("b", "c", 1.5), ("c", "a", 3.0), ("b", "d", 0.5)])
    graph.add_node("isolated")
    return graph


class TestConstruction:
    def test_from_digraph_preserves_nodes_and_edges(self, sample_graph):
        compact = CompactGraph.from_digraph(sample_graph)
        assert compact.node_count() == sample_graph.node_count()
        assert compact.edge_count() == sample_graph.edge_count()
        assert sorted(compact.weighted_edges()) == sorted(sample_graph.weighted_edges())

    def test_node_ids_follow_insertion_order(self, sample_graph):
        compact = CompactGraph.from_digraph(sample_graph)
        assert compact.nodes() == sample_graph.nodes()
        for index, node in enumerate(sample_graph.nodes()):
            assert compact.node_id(node) == index
            assert compact.node_of(index) == node

    def test_from_edges_interns_in_first_seen_order(self):
        compact = CompactGraph.from_edges([(5, 7, 1.0), (7, 5, 1.0), (5, 9, 2.0)])
        assert compact.nodes() == [5, 7, 9]

    def test_from_edges_keeps_parallel_edges(self):
        compact = CompactGraph.from_edges([(0, 1, 3.0), (0, 1, 1.0)])
        assert compact.edge_count() == 2
        weights = sorted(weight for _, weight in compact.successor_ids(0))
        assert weights == [1.0, 3.0]

    def test_explicit_node_universe_covers_isolated_nodes(self):
        compact = CompactGraph.from_edges([(0, 1, 1.0)], nodes=[2, 0, 1])
        assert compact.nodes() == [2, 0, 1]
        assert list(compact.successor_ids(compact.node_id(2))) == []


class TestLookups:
    def test_unknown_node_raises(self, sample_graph):
        compact = CompactGraph.from_digraph(sample_graph)
        with pytest.raises(NodeNotFoundError):
            compact.node_id("ghost")

    def test_try_node_id_returns_minus_one(self, sample_graph):
        compact = CompactGraph.from_digraph(sample_graph)
        assert compact.try_node_id("ghost") == -1
        assert compact.try_node_id("a") == compact.node_id("a")

    def test_has_node(self, sample_graph):
        compact = CompactGraph.from_digraph(sample_graph)
        assert compact.has_node("isolated")
        assert not compact.has_node("ghost")


class TestAdjacency:
    def test_successors_match_digraph(self, sample_graph):
        compact = CompactGraph.from_digraph(sample_graph)
        for node in sample_graph.nodes():
            expected = sorted(sample_graph.successor_items(node), key=repr)
            actual = sorted(
                ((compact.node_of(target_id), weight)
                 for target_id, weight in compact.successor_ids(compact.node_id(node))),
                key=repr,
            )
            assert actual == expected

    def test_predecessors_match_digraph(self, sample_graph):
        compact = CompactGraph.from_digraph(sample_graph)
        for node in sample_graph.nodes():
            expected = sorted(sample_graph.predecessor_items(node), key=repr)
            actual = sorted(
                ((compact.node_of(source_id), weight)
                 for source_id, weight in compact.predecessor_ids(compact.node_id(node))),
                key=repr,
            )
            assert actual == expected

    def test_successor_masks_encode_adjacency(self, sample_graph):
        compact = CompactGraph.from_digraph(sample_graph)
        masks = compact.successor_masks()
        for node in sample_graph.nodes():
            node_id = compact.node_id(node)
            for successor in sample_graph.successors(node):
                assert (masks[node_id] >> compact.node_id(successor)) & 1
            assert masks[node_id].bit_count() == sample_graph.out_degree(node)


class TestPlainState:
    def test_state_round_trip(self, sample_graph):
        compact = CompactGraph.from_digraph(sample_graph)
        rebuilt = CompactGraph.from_state(compact.state())
        assert rebuilt.nodes() == compact.nodes()
        assert rebuilt.weighted_edges() == compact.weighted_edges()

    def test_pickle_round_trip(self, sample_graph):
        compact = CompactGraph.from_digraph(sample_graph)
        compact.successor_masks()  # populate the lazy cache; it must not leak
        rebuilt = pickle.loads(pickle.dumps(compact))
        assert rebuilt.weighted_edges() == compact.weighted_edges()
        assert rebuilt.successor_masks() == compact.successor_masks()

    def test_unknown_state_format_rejected(self):
        with pytest.raises(ValueError):
            CompactGraph.from_state({"format": "something-else"})


class TestApplyDelta:
    def test_insert_reaches_new_and_existing_nodes(self, sample_graph):
        from repro.graph import CompactDelta

        compact = CompactGraph.from_digraph(sample_graph)
        compact.successor_masks()
        compact.apply_delta(CompactDelta(inserts=(("d", "e", 4.0), ("a", "d", 1.0))))
        assert compact.has_node("e")
        assert ("d", "e", 4.0) in compact.weighted_edges()
        assert ("a", "d", 1.0) in compact.weighted_edges()
        # Existing ids never move: the interner is reused, new nodes appended.
        assert compact.node_id("a") == sample_graph.nodes().index("a")
        assert compact.node_id("e") == compact.node_count() - 1

    def test_delete_removes_the_pair_and_keeps_the_node_interned(self, sample_graph):
        from repro.graph import CompactDelta

        compact = CompactGraph.from_digraph(sample_graph)
        compact.apply_delta(CompactDelta(deletes=(("b", "d"),)))
        assert ("b", "d", 0.5) not in compact.weighted_edges()
        assert compact.has_node("d")  # isolated ids stay interned on purpose
        assert list(compact.successor_ids(compact.node_id("d"))) == []

    def test_reweight_updates_both_directions(self, sample_graph):
        from repro.graph import CompactDelta

        compact = CompactGraph.from_digraph(sample_graph)
        compact.apply_delta(CompactDelta(reweights=(("a", "b", 9.0),)))
        assert ("a", "b", 9.0) in compact.weighted_edges()
        backwards = dict(
            (source_id, weight)
            for source_id, weight in compact.predecessor_ids(compact.node_id("b"))
        )
        assert backwards[compact.node_id("a")] == 9.0

    def test_delta_matches_a_from_scratch_build(self, sample_graph):
        from repro.graph import CompactDelta

        compact = CompactGraph.from_digraph(sample_graph)
        compact.apply_delta(
            CompactDelta(
                inserts=(("d", "a", 2.0),),
                deletes=(("c", "a"),),
                reweights=(("b", "c", 7.0),),
            )
        )
        mutated = sample_graph.copy()
        mutated.add_edge("d", "a", 2.0)
        mutated.remove_edge("c", "a")
        mutated.add_edge("b", "c", 7.0)
        assert sorted(compact.weighted_edges()) == sorted(mutated.weighted_edges())

    def test_masks_are_invalidated(self, sample_graph):
        from repro.graph import CompactDelta

        compact = CompactGraph.from_digraph(sample_graph)
        before_succ = compact.successor_masks()[compact.node_id("a")]
        compact.predecessor_masks()
        compact.apply_delta(CompactDelta(deletes=(("a", "b"),)))
        after_succ = compact.successor_masks()[compact.node_id("a")]
        assert after_succ != before_succ
        assert not (compact.predecessor_masks()[compact.node_id("b")] >> compact.node_id("a")) & 1

    def test_delete_missing_pair_is_ignored_and_reweight_upserts(self, sample_graph):
        from repro.graph import CompactDelta

        compact = CompactGraph.from_digraph(sample_graph)
        edges_before = sorted(compact.weighted_edges())
        compact.apply_delta(CompactDelta(deletes=(("a", "nope"),)))
        assert sorted(compact.weighted_edges()) == edges_before
        compact.apply_delta(CompactDelta(reweights=(("a", "c", 6.0),)))
        assert ("a", "c", 6.0) in compact.weighted_edges()

    def test_empty_delta_is_a_no_op(self, sample_graph):
        from repro.graph import CompactDelta

        compact = CompactGraph.from_digraph(sample_graph)
        offsets_before = compact.forward_csr[0]
        compact.apply_delta(CompactDelta())
        assert compact.forward_csr[0] is offsets_before

    def test_derived_caches_are_invalidated(self, sample_graph):
        """Update-then-query must never serve pre-delta kernel caches."""
        from repro.closure import (
            KERNEL_BACKENDS,
            chain_index,
            graph_shape,
            numpy_available,
            packed_matrix,
            reachability_rows,
        )
        from repro.graph import CompactDelta

        compact = CompactGraph.from_digraph(sample_graph)
        # Warm every derived structure the backends cache.
        chain_index(compact)
        graph_shape(compact)
        if numpy_available():
            packed_matrix(compact)
        compact.apply_delta(
            CompactDelta(inserts=(("d", "a", 2.0),), deletes=(("a", "b"),))
        )
        fresh = CompactGraph.from_state(
            {k: v for k, v in compact.state().items() if k != "derived"}
        )
        ids = list(range(compact.node_count()))
        for backend in KERNEL_BACKENDS:
            stale_rows, _ = reachability_rows(compact, ids, backend=backend)
            fresh_rows, _ = reachability_rows(fresh, ids, backend=backend)
            assert stale_rows == fresh_rows, backend

    def test_state_round_trip_preserves_derived_caches(self, sample_graph):
        from repro.closure import chain_index
        from repro.closure.backends import CHAIN_KEY

        compact = CompactGraph.from_digraph(sample_graph)
        index = chain_index(compact)
        reloaded = CompactGraph.from_state(compact.state())
        assert reloaded.derived_state(CHAIN_KEY) is not None
        for source_id in range(compact.node_count()):
            assert chain_index(reloaded).reachable_mask(source_id) == index.reachable_mask(
                source_id
            )

    def test_state_without_derived_matches_legacy_format(self, sample_graph):
        compact = CompactGraph.from_digraph(sample_graph)
        assert "derived" not in compact.state()


class TestOverlay:
    def _delta(self):
        from repro.graph import CompactDelta

        return CompactDelta(
            inserts=(("d", "e", 4.0), ("a", "d", 1.0)),
            deletes=(("c", "a"),),
            reweights=(("b", "c", 7.0),),
        )

    def test_small_delta_stays_in_the_overlay(self, sample_graph):
        compact = CompactGraph.from_digraph(sample_graph)
        compact.apply_delta(self._delta())
        assert compact.has_overlay()
        assert compact.overlay_depth() == 4
        mutated = sample_graph.copy()
        mutated.add_edge("d", "e", 4.0)
        mutated.add_edge("a", "d", 1.0)
        mutated.remove_edge("c", "a")
        mutated.add_edge("b", "c", 7.0)
        assert sorted(compact.weighted_edges()) == sorted(mutated.weighted_edges())
        assert compact.edge_count() == mutated.edge_count()

    def test_threshold_triggers_compaction(self, sample_graph):
        from repro.graph import CompactDelta, overlay_compaction_counts

        compact = CompactGraph.from_digraph(sample_graph)
        compact.overlay_threshold = 2
        before = overlay_compaction_counts().get("threshold", 0)
        compact.apply_delta(CompactDelta(inserts=(("a", "d", 1.0), ("d", "a", 2.0))))
        assert not compact.has_overlay()
        assert compact.overlay_depth() == 0
        assert overlay_compaction_counts().get("threshold", 0) == before + 1

    def test_csr_property_access_forces_compaction(self, sample_graph):
        from repro.graph import CompactDelta, overlay_compaction_counts

        compact = CompactGraph.from_digraph(sample_graph)
        compact.apply_delta(CompactDelta(inserts=(("a", "d", 1.0),)))
        assert compact.has_overlay()
        before = overlay_compaction_counts().get("csr_access", 0)
        compact.forward_csr
        assert not compact.has_overlay()
        assert overlay_compaction_counts().get("csr_access", 0) == before + 1

    def test_compaction_matches_a_from_scratch_build(self, sample_graph):
        compact = CompactGraph.from_digraph(sample_graph)
        compact.apply_delta(self._delta())
        compact.compact_now()
        mutated = sample_graph.copy()
        mutated.add_edge("d", "e", 4.0)
        mutated.add_edge("a", "d", 1.0)
        mutated.remove_edge("c", "a")
        mutated.add_edge("b", "c", 7.0)
        fresh = CompactGraph.from_digraph(mutated)
        assert list(compact.forward_csr[0]) == list(fresh.forward_csr[0])
        assert list(compact.forward_csr[1]) == list(fresh.forward_csr[1])
        assert list(compact.forward_csr[2]) == list(fresh.forward_csr[2])
        assert list(compact.backward_csr[0]) == list(fresh.backward_csr[0])
        assert list(compact.backward_csr[1]) == list(fresh.backward_csr[1])

    def test_masks_stay_current_through_the_overlay(self, sample_graph):
        compact = CompactGraph.from_digraph(sample_graph)
        compact.successor_masks()
        compact.predecessor_masks()
        compact.apply_delta(self._delta())
        assert compact.has_overlay()
        control = CompactGraph.from_state(
            {k: v for k, v in compact.state().items() if k != "derived"}
        )
        control.compact_now()
        assert compact.successor_masks() == control.successor_masks()
        assert compact.predecessor_masks() == control.predecessor_masks()

    def test_state_round_trip_with_a_live_overlay(self, sample_graph):
        compact = CompactGraph.from_digraph(sample_graph)
        compact.apply_delta(self._delta())
        assert compact.has_overlay()
        state = compact.state()
        assert "overlay" in state
        rebuilt = CompactGraph.from_state(state)
        assert rebuilt.has_overlay()
        assert rebuilt.overlay_depth() == compact.overlay_depth()
        assert sorted(rebuilt.weighted_edges()) == sorted(compact.weighted_edges())
        assert rebuilt.edge_count() == compact.edge_count()
        via_pickle = pickle.loads(pickle.dumps(compact))
        assert sorted(via_pickle.weighted_edges()) == sorted(compact.weighted_edges())

    def test_captured_state_survives_later_compaction(self, sample_graph):
        compact = CompactGraph.from_digraph(sample_graph)
        compact.apply_delta(self._delta())
        state = compact.state()
        edges_then = sorted(compact.weighted_edges())
        compact.compact_now()
        from repro.graph import CompactDelta

        compact.apply_delta(CompactDelta(deletes=(("a", "b"),)))
        assert sorted(CompactGraph.from_state(state).weighted_edges()) == edges_then

    def test_overlay_routes_kernels_to_bigint(self, sample_graph):
        from repro.closure import select_kernel
        from repro.closure.backends import BACKEND_BIGINT
        from repro.graph import CompactDelta

        compact = CompactGraph.from_digraph(sample_graph)
        compact.apply_delta(CompactDelta(inserts=(("a", "d", 1.0),)))
        assert select_kernel(compact) == BACKEND_BIGINT
        assert compact.has_overlay()  # shape probing must not have compacted

    def test_merge_overlay_metrics_exports_depth_and_compactions(self, sample_graph):
        from repro.graph import (
            OVERLAY_COMPACTIONS_COUNTER,
            OVERLAY_DEPTH_GAUGE,
            merge_overlay_metrics,
        )
        from repro.observability import MetricsRegistry

        compact = CompactGraph.from_digraph(sample_graph)
        compact.apply_delta(self._delta())
        compact.compact_now()
        registry = MetricsRegistry()
        merge_overlay_metrics(registry)
        exported = set(registry.drain())
        assert OVERLAY_DEPTH_GAUGE in exported
        assert OVERLAY_COMPACTIONS_COUNTER in exported

    def test_env_var_overrides_the_default_threshold(self, sample_graph, monkeypatch):
        from repro.graph import ENV_OVERLAY_THRESHOLD
        from repro.graph.compact import overlay_threshold_default

        monkeypatch.setenv(ENV_OVERLAY_THRESHOLD, "7")
        assert overlay_threshold_default() == 7
        compact = CompactGraph.from_digraph(sample_graph)
        assert compact.overlay_threshold == 7
