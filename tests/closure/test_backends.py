"""Kernel backend layer: dispatch, equivalence, caching, persistence."""

import pickle
import random

import pytest

from repro.closure import (
    BACKEND_BIGINT,
    BACKEND_CHAIN,
    BACKEND_NUMPY,
    ChainIndex,
    bitset_reachable,
    chain_index,
    compact_reachability_closure,
    graph_shape,
    numpy_available,
    reachability_rows,
    reachability_semiring,
    seminaive_transitive_closure,
    select_kernel,
    strongly_connected_components,
)
from repro.closure import backends
from repro.closure.backends import CHAIN_KEY, PACKED_KEY, SHAPE_KEY
from repro.graph import CompactDelta, CompactGraph, DiGraph

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend unavailable"
)

ALL_BACKENDS = (BACKEND_BIGINT, BACKEND_NUMPY, BACKEND_CHAIN)


def random_compact(seed: int, n: int = 90, edges: int = 320) -> CompactGraph:
    rng = random.Random(seed)
    return CompactGraph.from_edges(
        [(rng.randrange(n), rng.randrange(n), 1.0) for _ in range(edges)],
        nodes=range(n),
    )


def bigint_rows(graph: CompactGraph) -> dict:
    return {i: bitset_reachable(graph, i) for i in range(graph.node_count())}


def pin_every_dispatch(monkeypatch, backend: str) -> None:
    """Make every ``reachability_rows`` call behave as if ``backend=`` were passed."""
    monkeypatch.setattr(
        "repro.closure.kernels.select_kernel",
        lambda graph, *, override=None: select_kernel(graph, override=backend),
    )


class TestChainIndex:
    def test_scc_numbering_is_reverse_topological(self):
        graph = CompactGraph.from_edges(
            [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 3, 1.0), (3, 4, 1.0)]
        )
        comp_of, comp_count = strongly_connected_components(graph)
        assert comp_count == 3
        # The 0-1-2 cycle is one component; every cross edge points to a
        # smaller component id.
        assert comp_of[0] == comp_of[1] == comp_of[2]
        assert comp_of[2] > comp_of[3] > comp_of[4]

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_reachable_masks_match_bitset_bfs(self, seed):
        graph = random_compact(seed)
        index = ChainIndex.from_graph(graph)
        expected = bigint_rows(graph)
        for source_id in range(graph.node_count()):
            assert index.reachable_mask(source_id) == expected[source_id]

    def test_state_round_trip(self):
        graph = random_compact(9)
        index = ChainIndex.from_graph(graph)
        reloaded = ChainIndex.from_state(index.to_state())
        for source_id in range(graph.node_count()):
            assert reloaded.reachable_mask(source_id) == index.reachable_mask(source_id)

    def test_unknown_state_format_rejected(self):
        with pytest.raises(ValueError):
            ChainIndex.from_state({"format": "something-else"})


@needs_numpy
class TestPackedBitMatrix:
    def test_multi_source_sweep_matches_per_source(self):
        from repro.closure import PackedBitMatrix

        graph = random_compact(21, n=100, edges=300)
        matrix = PackedBitMatrix.from_graph(graph)
        sources = [3, 17, 42, 42, 99]  # duplicates must be fine
        rows = matrix.multi_source_rows(sources)
        for index, source_id in enumerate(sources):
            assert matrix.row_to_mask(rows[index]) == bitset_reachable(graph, source_id)


class TestSelectKernel:
    def test_small_graphs_stay_bigint(self):
        graph = CompactGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0)])
        assert select_kernel(graph) == BACKEND_BIGINT

    def test_small_condensation_prefers_chain(self):
        # A big cyclic blob: the condensation collapses to a handful of SCCs.
        rng = random.Random(3)
        edges = [(i, (i + 1) % 100, 1.0) for i in range(100)]
        edges += [(rng.randrange(100), rng.randrange(100), 1.0) for _ in range(200)]
        graph = CompactGraph.from_edges(edges)
        assert graph_shape(graph)["condensation_ratio"] <= 0.5
        assert select_kernel(graph) == BACKEND_CHAIN

    @pytest.mark.parametrize("n, fanout", [(120, 8), (400, 1)])
    def test_dags_choose_bigint_whatever_their_size_or_fanout(self, n, fanout):
        # A DAG is its own condensation (ratio 1.0): chain labels cannot
        # compress it, and nothing else is on the menu.
        edges = [(i, j, 1.0) for i in range(n) for j in range(i + 1, min(i + 1 + fanout, n))]
        graph = CompactGraph.from_edges(edges)
        assert graph_shape(graph)["condensation_ratio"] == 1.0
        assert select_kernel(graph) == BACKEND_BIGINT
        _, chosen = reachability_rows(graph, list(range(n)))
        assert chosen == BACKEND_BIGINT

    def test_an_overlay_chooses_bigint_until_it_is_compacted(self):
        edges = [(i, (i + 1) % 100, 1.0) for i in range(100)]
        graph = CompactGraph.from_edges(edges)
        assert select_kernel(graph) == BACKEND_CHAIN
        graph.apply_delta(CompactDelta(inserts=((0, 50, 1.0),)))
        assert graph.has_overlay() and select_kernel(graph) == BACKEND_BIGINT
        graph.compact_now()
        assert select_kernel(graph) == BACKEND_CHAIN

    def test_explicit_override_wins(self):
        graph = random_compact(31)
        assert select_kernel(graph, override=BACKEND_BIGINT) == BACKEND_BIGINT
        assert select_kernel(graph, override=BACKEND_CHAIN) == BACKEND_CHAIN
        expected = BACKEND_NUMPY if numpy_available() else BACKEND_BIGINT
        assert select_kernel(graph, override=BACKEND_NUMPY) == expected
        assert select_kernel(graph, override="no-such-backend") == select_kernel(graph)

    def test_the_environment_is_not_consulted(self, monkeypatch):
        graph = random_compact(32)
        chosen = select_kernel(graph)
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", BACKEND_NUMPY)
        monkeypatch.setenv("REPRO_DISABLE_NUMPY", "1")
        assert select_kernel(graph) == chosen
        assert select_kernel(graph, override=BACKEND_CHAIN) == BACKEND_CHAIN

    def test_selection_counter_increments(self):
        graph = random_compact(33)
        counts = backends._selections.series
        before = counts().get((BACKEND_BIGINT, "test-context"), 0)
        reachability_rows(
            graph, [0, 1], backend=BACKEND_BIGINT, context="test-context"
        )
        after = counts()[(BACKEND_BIGINT, "test-context")]
        assert after == before + 1


class TestReachabilityRows:
    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_all_backends_identical(self, seed):
        graph = random_compact(seed)
        expected = bigint_rows(graph)
        ids = list(range(graph.node_count()))
        for backend in ALL_BACKENDS:
            rows, chosen = reachability_rows(graph, ids, backend=backend)
            assert rows == expected
            if backend == BACKEND_NUMPY and not numpy_available():
                assert chosen == BACKEND_BIGINT
            else:
                assert chosen == backend

    def test_partial_sources(self):
        graph = random_compact(44, n=120, edges=360)
        sources = [5, 60, 119]
        expected = {i: bitset_reachable(graph, i) for i in sources}
        for backend in ALL_BACKENDS:
            rows, _ = reachability_rows(graph, sources, backend=backend)
            assert rows == expected

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_closure_facade_matches_baseline(self, backend, monkeypatch):
        rng = random.Random(45)
        graph = DiGraph()
        for i in range(80):
            graph.add_node(i)
        for _ in range(250):
            graph.add_edge(rng.randrange(80), rng.randrange(80), 1.0)
        compact = CompactGraph.from_digraph(graph)
        baseline = compact_reachability_closure(compact)
        pin_every_dispatch(monkeypatch, backend)
        assert compact_reachability_closure(compact).values == baseline.values

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_seminaive_cycle_facts_survive_dispatch(self, backend, monkeypatch):
        pin_every_dispatch(monkeypatch, backend)
        rng = random.Random(46)
        graph = DiGraph()
        for i in range(70):
            graph.add_node(i)
        for _ in range(210):
            graph.add_edge(rng.randrange(70), rng.randrange(70), 1.0)
        dict_result = seminaive_transitive_closure(
            graph, semiring=reachability_semiring(), use_compact=False
        )
        compact_result = seminaive_transitive_closure(
            graph, semiring=reachability_semiring(), use_compact=True
        )
        assert compact_result.values == dict_result.values


class TestDerivedPersistence:
    def test_state_carries_warm_caches(self):
        graph = random_compact(51)
        chain_index(graph)
        graph_shape(graph)
        state = graph.state()
        derived = state.get("derived", {})
        assert CHAIN_KEY in derived and SHAPE_KEY in derived

    def test_reload_answers_without_rebuilding(self):
        graph = random_compact(52)
        index = chain_index(graph)
        reloaded = CompactGraph.from_state(graph.state())
        # The reloaded graph hydrates the persisted labels: identical masks,
        # and the raw state is present before any hydration happens.
        assert reloaded.derived_state(CHAIN_KEY) is not None
        hydrated = chain_index(reloaded)
        for source_id in range(graph.node_count()):
            assert hydrated.reachable_mask(source_id) == index.reachable_mask(source_id)

    def test_pickle_round_trip_keeps_derived(self):
        graph = random_compact(53)
        chain_index(graph)
        clone = pickle.loads(pickle.dumps(graph))
        assert clone.derived_state(CHAIN_KEY) is not None
        rows, chosen = reachability_rows(graph, list(range(graph.node_count())))
        clone_rows, _ = reachability_rows(
            clone, list(range(clone.node_count())), backend=chosen
        )
        assert clone_rows == rows

    def test_unhydrated_state_passes_through_reship(self):
        # A coordinator that never touches a backend must still forward the
        # derived payload to the next hop.
        graph = random_compact(54)
        chain_index(graph)
        hop1 = CompactGraph.from_state(graph.state())
        hop2 = CompactGraph.from_state(hop1.state())
        assert hop2.derived_state(CHAIN_KEY) is not None

    def test_an_old_packed_blob_is_carried_and_never_hydrated(self):
        graph = random_compact(24)
        expected = bigint_rows(graph)
        ids = list(range(graph.node_count()))
        blob = {
            "format": "packed-bit-matrix-v1",
            "node_count": graph.node_count(),
            "words": 2,
            "rows": b"\xff" * (graph.node_count() * 16),  # every bit set: wrong if read
        }
        state = graph.state()
        state["derived"] = {PACKED_KEY: blob}
        old = CompactGraph.from_state(state)
        assert old.state()["derived"][PACKED_KEY] == blob  # carried to the next hop
        for backend in ALL_BACKENDS:
            rows, _ = reachability_rows(old, ids, backend=backend)
            assert rows == expected, backend
        rows, _ = reachability_rows(old, ids)
        assert rows == expected
        # Malformed beyond recognition: still never read.
        state["derived"] = {PACKED_KEY: "garbage"}
        rows, _ = reachability_rows(CompactGraph.from_state(state), ids, backend=BACKEND_NUMPY)
        assert rows == expected
