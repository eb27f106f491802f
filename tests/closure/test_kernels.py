"""Randomized equivalence tests: compact kernels vs the DiGraph algorithms.

The compact kernel layer is only allowed to change *how fast* answers are
produced, never *which* answers: these tests sweep randomized graphs,
fragmentations and query specs through both evaluation paths — closures,
per-fragment local queries, and snapshot round-trips — and require identical
results everywhere.
"""

import random

import pytest

from repro.closure import (
    bfs_closure,
    compact_closure,
    compact_reachability_closure,
    compact_shortest_path_closure,
    dijkstra_closure,
    reachability_semiring,
    seminaive_transitive_closure,
    shortest_path_semiring,
    widest_path_semiring,
)
from repro.disconnection import (
    DisconnectionSetEngine,
    DistributedCatalog,
    LocalQueryEvaluator,
    QueryPlanner,
)
from repro.fragmentation import GroundTruthFragmenter
from repro.graph import CompactGraph, DiGraph
from repro.service import QueryService
from repro.service.snapshot import load_snapshot, save_snapshot

from tests.local_query_oracles import dict_local_query


def random_digraph(seed: int, *, nodes: int = 18, edge_probability: float = 0.14) -> DiGraph:
    """A reproducible random weighted digraph (node keys are strings on purpose)."""
    rng = random.Random(seed)
    graph = DiGraph(nodes=[f"n{i}" for i in range(nodes)])
    for i in range(nodes):
        for j in range(nodes):
            if i != j and rng.random() < edge_probability:
                graph.add_edge(f"n{i}", f"n{j}", round(rng.uniform(0.5, 9.5), 2))
    return graph


def random_two_block_fragmentation(seed: int, *, nodes: int = 20):
    """A random symmetric graph split into two overlapping node blocks."""
    rng = random.Random(seed)
    graph = DiGraph()
    for i in range(nodes - 1):  # a connected backbone plus random chords
        graph.add_symmetric_edge(i, i + 1, round(rng.uniform(0.5, 4.5), 2))
    for _ in range(nodes):
        a, b = rng.sample(range(nodes), 2)
        graph.add_symmetric_edge(a, b, round(rng.uniform(0.5, 4.5), 2))
    cut = nodes // 2
    blocks = [set(range(cut)), set(range(cut, nodes))]
    fragmentation = GroundTruthFragmenter(blocks).fragment(graph)
    return graph, fragmentation


class TestClosureEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_reachability_matches_bfs_closure(self, seed):
        graph = random_digraph(seed)
        compact = CompactGraph.from_digraph(graph)
        assert compact_reachability_closure(compact).values == bfs_closure(graph).values

    @pytest.mark.parametrize("seed", range(8))
    def test_shortest_path_matches_dijkstra_closure(self, seed):
        graph = random_digraph(seed)
        compact = CompactGraph.from_digraph(graph)
        assert compact_shortest_path_closure(compact).values == dijkstra_closure(graph).values

    @pytest.mark.parametrize("seed", range(4))
    def test_source_restriction_matches(self, seed):
        graph = random_digraph(seed)
        compact = CompactGraph.from_digraph(graph)
        sources = ["n0", "n3", "n7", "ghost"]  # unknown sources are skipped
        assert (
            compact_reachability_closure(compact, sources=sources).values
            == bfs_closure(graph, sources=sources).values
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_generic_semiring_matches_seminaive(self, seed):
        graph = random_digraph(seed, nodes=10, edge_probability=0.2)
        compact = CompactGraph.from_digraph(graph)
        semiring = widest_path_semiring()
        kernel = compact_closure(compact, semiring=semiring)
        reference = seminaive_transitive_closure(graph, semiring=semiring)
        assert kernel.values == reference.values
        assert kernel.semiring_name == reference.semiring_name


class TestLocalQueryEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "semiring_factory", [reachability_semiring, shortest_path_semiring]
    )
    def test_compact_matches_dict_path(self, seed, semiring_factory):
        semiring = semiring_factory()
        graph, fragmentation = random_two_block_fragmentation(seed)
        catalog = DistributedCatalog(fragmentation, semiring=semiring)
        planner = QueryPlanner(catalog)
        kernel_eval = LocalQueryEvaluator(semiring=semiring)
        rng = random.Random(seed + 1000)
        nodes = graph.nodes()
        for _ in range(6):
            source, target = rng.sample(nodes, 2)
            for chain_plan in planner.plan(source, target).chains:
                for spec in chain_plan.local_queries:
                    site = catalog.site(spec.fragment_id)
                    dict_result = dict_local_query(site, spec, semiring)
                    kernel_result = kernel_eval.evaluate(site, spec)
                    if semiring.name == "shortest_path":
                        # A search rooted at the exits adds the same edge
                        # weights in the opposite order.
                        assert kernel_result.values == pytest.approx(
                            dict_result.values, rel=1e-9, abs=1e-12
                        )
                    else:
                        assert kernel_result.values == dict_result.values

    @pytest.mark.parametrize("seed", range(3))
    def test_compact_fragment_site_matches_full_site(self, seed):
        semiring = reachability_semiring()
        graph, fragmentation = random_two_block_fragmentation(seed)
        catalog = DistributedCatalog(fragmentation, semiring=semiring)
        planner = QueryPlanner(catalog)
        evaluator = LocalQueryEvaluator(semiring=semiring)
        compact_sites = catalog.compact_sites()
        nodes = graph.nodes()
        rng = random.Random(seed)
        source, target = rng.sample(nodes, 2)
        for chain_plan in planner.plan(source, target).chains:
            for spec in chain_plan.local_queries:
                full = evaluator.evaluate(catalog.site(spec.fragment_id), spec)
                worker = evaluator.evaluate(compact_sites[spec.fragment_id], spec)
                assert worker.values == full.values
                assert (
                    compact_sites[spec.fragment_id].local_iterations()
                    == catalog.site(spec.fragment_id).local_iterations()
                )

    def test_unreachable_target_path_raises(self):
        from repro.closure import array_dijkstra, reconstruct_id_path

        compact = CompactGraph.from_edges([("a", "b", 1.0)], nodes=["a", "b", "c"])
        _, predecessors, _ = array_dijkstra(compact, 0)
        with pytest.raises(ValueError):
            reconstruct_id_path(predecessors, 0, compact.node_id("c"))

    def test_compact_fragment_site_rejects_shortcut_ablation(self):
        _, fragmentation = random_two_block_fragmentation(0)
        catalog = DistributedCatalog(fragmentation, semiring=reachability_semiring())
        compact_site = catalog.compact_sites()[0]
        with pytest.raises(ValueError):
            compact_site.compact(use_shortcuts=False)

    def test_compact_fragment_site_rejects_custom_semirings(self):
        _, fragmentation = random_two_block_fragmentation(0)
        catalog = DistributedCatalog(fragmentation, semiring=reachability_semiring())
        compact_site = catalog.compact_sites()[0]
        evaluator = LocalQueryEvaluator(semiring=widest_path_semiring())
        spec = next(iter(catalog.sites())).border_nodes
        from repro.disconnection.planner import LocalQuerySpec

        with pytest.raises(ValueError):
            evaluator.evaluate(
                compact_site,
                LocalQuerySpec(fragment_id=0, entry_nodes=frozenset(spec), exit_nodes=frozenset(spec)),
            )


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize(
        "semiring_factory", [reachability_semiring, shortest_path_semiring]
    )
    def test_kernel_results_survive_save_load(self, tmp_path, semiring_factory):
        semiring = semiring_factory()
        graph, fragmentation = random_two_block_fragmentation(42)
        engine = DisconnectionSetEngine(fragmentation, semiring=semiring)
        save_snapshot(tmp_path / "snap", engine)
        loaded = load_snapshot(tmp_path / "snap")
        assert set(loaded.compact_sites) == {
            site.fragment_id for site in engine.catalog.sites()
        }
        restored = QueryService.from_snapshot(tmp_path / "snap")
        # The reloaded sites are seeded with the persisted compact form.
        for site in restored.engine().catalog.sites():
            assert site._compact_augmented is not None
        rng = random.Random(7)
        nodes = graph.nodes()
        for _ in range(8):
            source, target = rng.sample(nodes, 2)
            assert restored.query(source, target).value == engine.query(source, target).value

    def test_persisted_compact_state_matches_rebuilt(self, tmp_path):
        graph, fragmentation = random_two_block_fragmentation(3)
        engine = DisconnectionSetEngine(fragmentation, semiring=reachability_semiring())
        save_snapshot(tmp_path / "snap", engine)
        loaded = load_snapshot(tmp_path / "snap")
        for fragment_id, compact_site in loaded.compact_sites.items():
            rebuilt = engine.catalog.site(fragment_id).compact()
            assert compact_site.compact().weighted_edges() == rebuilt.weighted_edges()
