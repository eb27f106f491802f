"""Unit tests for per-fragment local query evaluation."""

import pytest

from repro.closure import reachability_semiring, widest_path_semiring
from repro.disconnection import DistributedCatalog, LocalQueryEvaluator
from repro.disconnection import catalog as catalog_module
from repro.disconnection.planner import LocalQuerySpec
from repro.fragmentation import GroundTruthFragmenter
from repro.generators import two_cluster_dumbbell
from repro.graph import hop_diameter

from tests.local_query_oracles import dict_local_query


@pytest.fixture
def catalog():
    graph = two_cluster_dumbbell(4, bridge_nodes=2)
    fragmentation = GroundTruthFragmenter([set(range(4)), set(range(4, 8))]).fragment(graph)
    return DistributedCatalog(fragmentation)


class TestShortestPathEvaluation:
    def test_entry_to_exit_values(self, catalog):
        site = catalog.site(0)
        spec = LocalQuerySpec(fragment_id=0, entry_nodes=frozenset([2]), exit_nodes=frozenset([0, 1]))
        result = LocalQueryEvaluator().evaluate(site, spec)
        assert result.values[(2, 0)] == 1.0
        assert result.values[(2, 1)] == 1.0
        assert result.values == dict_local_query(site, spec).values

    def test_entry_equals_exit_gives_zero(self, catalog):
        site = catalog.site(0)
        spec = LocalQuerySpec(fragment_id=0, entry_nodes=frozenset([1]), exit_nodes=frozenset([1]))
        result = LocalQueryEvaluator().evaluate(site, spec)
        assert result.values[(1, 1)] == 0.0

    def test_missing_entry_node_yields_empty_result(self, catalog):
        site = catalog.site(1)
        spec = LocalQuerySpec(fragment_id=1, entry_nodes=frozenset(["ghost"]), exit_nodes=frozenset([7]))
        result = LocalQueryEvaluator().evaluate(site, spec)
        assert result.is_empty()

    def test_statistics_and_iterations_populated(self, catalog):
        site = catalog.site(0)
        spec = LocalQuerySpec(fragment_id=0, entry_nodes=frozenset([0]), exit_nodes=frozenset([3]))
        result = LocalQueryEvaluator().evaluate(site, spec)
        assert site.local_iterations() >= 1
        assert result.statistics.tuples_produced >= 1

    def test_evaluations_leave_the_iteration_estimate_to_its_readers(self, catalog, monkeypatch):
        diameters = []

        def counted(graph, **options):
            diameters.append(hop_diameter(graph, **options))
            return diameters[-1]

        monkeypatch.setattr(catalog_module, "hop_diameter", counted)
        site = catalog.site(0)
        spec = LocalQuerySpec(fragment_id=0, entry_nodes=frozenset([0]), exit_nodes=frozenset([3]))
        evaluator = LocalQueryEvaluator(semiring=widest_path_semiring())
        results = [evaluator.evaluate(site, spec) for _ in range(4)]
        assert not diameters  # no evaluation reads the estimate
        assert results[0].backend == "dict"
        assert [site.local_iterations() for _ in range(3)] == [diameters[0] + 1] * 3
        assert len(diameters) == 1  # derived once per site, not once per reader

    def test_shortcuts_can_be_disabled(self, catalog):
        site = catalog.site(0)
        spec = LocalQuerySpec(fragment_id=0, entry_nodes=frozenset([0]), exit_nodes=frozenset([1]))
        with_shortcuts = LocalQueryEvaluator(use_shortcuts=True).evaluate(site, spec)
        without_shortcuts = LocalQueryEvaluator(use_shortcuts=False).evaluate(site, spec)
        assert with_shortcuts.values[(0, 1)] <= without_shortcuts.values[(0, 1)]


class TestOtherSemirings:
    def test_reachability_evaluation(self):
        graph = two_cluster_dumbbell(3, bridge_nodes=1)
        fragmentation = GroundTruthFragmenter([set(range(3)), set(range(3, 6))]).fragment(graph)
        catalog = DistributedCatalog(fragmentation, semiring=reachability_semiring())
        evaluator = LocalQueryEvaluator(semiring=reachability_semiring())
        spec = LocalQuerySpec(fragment_id=0, entry_nodes=frozenset([0]), exit_nodes=frozenset([2]))
        result = evaluator.evaluate(catalog.site(0), spec)
        assert result.values[(0, 2)] is True

    def test_generic_semiring_evaluation(self):
        graph = two_cluster_dumbbell(3, bridge_nodes=1)
        fragmentation = GroundTruthFragmenter([set(range(3)), set(range(3, 6))]).fragment(graph)
        catalog = DistributedCatalog(fragmentation, semiring=widest_path_semiring())
        evaluator = LocalQueryEvaluator(semiring=widest_path_semiring(), use_shortcuts=False)
        spec = LocalQuerySpec(fragment_id=0, entry_nodes=frozenset([0]), exit_nodes=frozenset([2]))
        result = evaluator.evaluate(catalog.site(0), spec)
        assert result.values[(0, 2)] == 1.0
