"""The per-fragment transit table: what fills it, what reads it, what drops it.

A border-to-border local subquery depends on the fragment and its
disconnection sets only, so ``LocalQueryEvaluator`` remembers its result in
the derived store of the site's compact graph.  These tests pin the contract
from below: the table serves only what the graph's current adjacency gives
(refilling after a write from the border rows that survived it, and keeping
what it held before as ``previous``), never leaves the process, and a replayed result is indistinguishable from an evaluated one
apart from ``memoized`` and ``elapsed_seconds``.
"""

import pickle
from dataclasses import replace

import pytest

from repro.closure import (
    BACKEND_BIGINT,
    KERNEL_BACKENDS,
    KERNEL_SELECTIONS_COUNTER,
    Semiring,
    merge_selection_metrics,
    reachability_semiring,
    shortest_path_semiring,
)
from repro.disconnection import (
    CompactFragmentSite,
    DisconnectionSetEngine,
    LocalQueryEvaluator,
    QueryPlanner,
    answer_in_process,
)
from repro.disconnection.local_query import TRANSIT_KEY, TransitTable
from repro.disconnection.planner import LocalQuerySpec
from repro.graph import CompactDelta
from repro.observability import MetricsRegistry

from tests.local_query_oracles import dict_local_query
from tests.transit_layouts import chain_layout, counted_searches, interior, ring_layout


def table_of(site):
    return site.compact().derived_get(TRANSIT_KEY)


def transit_spec(engine, fragment_id):
    """The clockwise border-to-border subquery of a ring fragment."""
    fragmentation = engine.catalog.fragmentation
    count = fragmentation.fragment_count()
    return LocalQuerySpec(
        fragment_id=fragment_id,
        entry_nodes=fragmentation.disconnection_set((fragment_id - 1) % count, fragment_id),
        exit_nodes=fragmentation.disconnection_set(fragment_id, (fragment_id + 1) % count),
    )


def endpoint_spec(engine, layout, fragment_id):
    fragmentation = engine.catalog.fragmentation
    count = fragmentation.fragment_count()
    return LocalQuerySpec(
        fragment_id=fragment_id,
        entry_nodes=frozenset([interior(layout, fragment_id)[0]]),
        exit_nodes=fragmentation.disconnection_set(fragment_id, (fragment_id + 1) % count),
    )


@pytest.fixture
def ring_engine():
    fragmentation, layout = ring_layout()
    return DisconnectionSetEngine(fragmentation), layout


class TestFillAndReplay:
    def test_second_evaluation_is_a_replay_with_the_original_counters(self, ring_engine):
        engine, _ = ring_engine
        evaluator = LocalQueryEvaluator()
        site = engine.catalog.site(2)
        spec = transit_spec(engine, 2)
        first = evaluator.evaluate(site, spec)
        second = evaluator.evaluate(site, spec)
        assert not first.memoized and second.memoized
        assert (evaluator.transit_hits, evaluator.transit_misses) == (1, 1)
        assert second.values == first.values and first.values
        assert second.backend == first.backend == "dijkstra"
        assert replace(second.statistics, elapsed_seconds=0.0) == replace(
            first.statistics, elapsed_seconds=0.0
        )
        assert first.statistics.iterations == len(spec.entry_nodes)
        assert isinstance(table_of(site), TransitTable) and len(table_of(site)) == 1

    def test_a_replayed_result_does_not_alias_the_table(self, ring_engine):
        engine, _ = ring_engine
        evaluator = LocalQueryEvaluator()
        site, spec = engine.catalog.site(2), transit_spec(engine, 2)
        expected = dict(evaluator.evaluate(site, spec).values)
        replayed = evaluator.evaluate(site, spec)
        replayed.values.clear()
        replayed.statistics.delta_sizes.append(99)
        again = evaluator.evaluate(site, spec)
        assert again.values == expected
        assert 99 not in again.statistics.delta_sizes

    def test_endpoint_subqueries_never_touch_the_table(self, ring_engine):
        engine, layout = ring_engine
        evaluator = LocalQueryEvaluator()
        site = engine.catalog.site(2)
        spec = endpoint_spec(engine, layout, 2)
        assert not evaluator.evaluate(site, spec).memoized
        # Memoized all the same: by the border rows, which are another store.
        assert evaluator.evaluate(site, spec).rows_read == len(spec.exit_nodes)
        assert table_of(site) is None
        assert (evaluator.transit_hits, evaluator.transit_misses) == (0, 0)

    def test_a_chain_answer_twice_reports_the_same_work(self, ring_engine):
        engine, layout = ring_engine
        source, target = interior(layout, 0)[0], interior(layout, 3)[0]
        catalog = engine.catalog
        planner, evaluator = QueryPlanner(catalog), LocalQueryEvaluator()
        first, second = (
            answer_in_process(catalog, planner, evaluator, catalog.site, source, target)
            for _ in range(2)
        )
        assert (second.value, second.chain) == (first.value, first.chain)
        assert second.report == first.report

    def test_an_engine_query_reports_only_the_subqueries_it_evaluated(self, ring_engine):
        engine, layout = ring_engine
        source, target = interior(layout, 0)[0], interior(layout, 3)[0]
        first = engine.query(source, target)
        second = engine.query(source, target)  # the arcs the first one read are held
        assert (second.value, second.chain) == (first.value, first.chain)
        assert {f: w.subqueries for f, w in second.report.site_work.items()} == {0: 1, 3: 1}
        assert sum(w.subqueries for w in first.report.site_work.values()) > 2

    def test_both_standard_semirings_keep_their_own_entries(self):
        fragmentation, _ = ring_layout()
        engine = DisconnectionSetEngine(fragmentation)
        site, spec = engine.catalog.site(2), transit_spec(engine, 2)
        shortest = LocalQueryEvaluator(semiring=shortest_path_semiring())
        reach = LocalQueryEvaluator(semiring=reachability_semiring())
        distances = shortest.evaluate(site, spec).values
        flags = reach.evaluate(site, spec).values
        assert set(flags.values()) == {True} and True not in set(distances.values())
        assert shortest.evaluate(site, spec).values == distances
        assert reach.evaluate(site, spec).values == flags
        assert len(table_of(site)) == 2

    def test_a_replay_reports_the_kernel_that_filled_its_rows(self):
        fragmentation, layout = chain_layout()
        engine = DisconnectionSetEngine(fragmentation, semiring=reachability_semiring())
        fragments = engine.catalog.fragmentation
        site = engine.catalog.site(2)
        spec = LocalQuerySpec(
            fragment_id=2,
            entry_nodes=fragments.disconnection_set(1, 2),
            exit_nodes=fragments.disconnection_set(2, 3),
        )
        # The exits' rows again, from a subquery the table does not hold.
        reader = LocalQuerySpec(2, frozenset([interior(layout, 2)[0]]), spec.exit_nodes)
        evaluator = LocalQueryEvaluator(semiring=reachability_semiring())
        merge_selection_metrics(MetricsRegistry())  # drain what earlier work recorded
        first, second = evaluator.evaluate(site, spec), evaluator.evaluate(site, spec)
        third = evaluator.evaluate(site, reader)
        assert first.backend == second.backend == third.backend == BACKEND_BIGINT
        assert first.backend in KERNEL_BACKENDS
        assert (first.memoized, second.memoized, third.memoized) == (False, True, True)
        assert first.values == second.values
        roots = len(spec.exit_nodes)
        assert (first.rows_filled, third.rows_read, third.rows_filled) == (roots, roots, 0)
        # A row fill is one recorded selection; a replay and a row read record none.
        registry = MetricsRegistry()
        merge_selection_metrics(registry)
        series = registry.as_dict()[KERNEL_SELECTIONS_COUNTER]["series"]
        assert {
            (entry["labels"]["backend"], entry["labels"]["context"]): entry["value"]
            for entry in series
        } == {(BACKEND_BIGINT, "local_query"): roots}


class TestWhoStaysOut:
    def test_the_dict_oracle_neither_reads_nor_fills(self, ring_engine):
        engine, _ = ring_engine
        site, spec = engine.catalog.site(2), transit_spec(engine, 2)
        assert not dict_local_query(site, spec).memoized
        assert site._compact_augmented is None, "the oracle must not build a compact graph"
        # A poisoned table is replayed by the evaluator and invisible to the oracle.
        compact = LocalQueryEvaluator()
        honest = compact.evaluate(site, spec).values
        (key,) = table_of(site)
        table_of(site)[key] = table_of(site)[key]._replace(values={})
        assert compact.evaluate(site, spec).values == {}
        assert dict_local_query(site, spec).values == honest

    def test_custom_semirings_neither_read_nor_fill(self, ring_engine):
        engine, _ = ring_engine
        site, spec = engine.catalog.site(2), transit_spec(engine, 2)
        widest = Semiring(
            name="widest_path", zero=0.0, one=float("inf"), plus=max, times=min
        )
        evaluator = LocalQueryEvaluator(semiring=widest)
        evaluator.evaluate(site, spec)
        evaluator.evaluate(site, spec)
        assert (evaluator.transit_hits, evaluator.transit_misses) == (0, 0)

    def test_a_plain_data_site_memoizes_only_when_it_knows_its_borders(self, ring_engine):
        engine, _ = ring_engine
        spec = transit_spec(engine, 2)
        site = engine.catalog.site(2)
        shipped = site.to_compact_site()
        assert shipped.border_nodes == site.border_nodes
        evaluator = LocalQueryEvaluator()
        first = evaluator.evaluate(shipped, spec)
        assert not first.memoized and evaluator.evaluate(shipped, spec).memoized
        assert first.values == LocalQueryEvaluator().evaluate(site, spec).values
        # A hand-built site (no hint) and a pre-hint pickle search as before.
        state = shipped.__getstate__()
        del state["border_nodes"]
        old_pickle = CompactFragmentSite.__new__(CompactFragmentSite)
        old_pickle.__setstate__(state)
        hand_built = CompactFragmentSite(2, shipped.state, shipped.estimated_iterations)
        for plain in (old_pickle, hand_built):
            assert plain.border_nodes is None
            for _ in range(2):
                result = evaluator.evaluate(plain, spec)
                assert not result.memoized and result.values == first.values
            assert plain.derived_get(TRANSIT_KEY) is None
        assert pickle.loads(pickle.dumps(shipped)).border_nodes == site.border_nodes

    def test_the_table_never_leaves_the_process(self, ring_engine):
        engine, layout = ring_engine
        site = engine.catalog.site(2)
        site.derive()
        state_before = site.compact().state()
        shipped_before = site.to_compact_site()
        pickled_before = pickle.dumps(site)
        for target_block in (3, 4, 5):
            engine.query(interior(layout, 0)[0], interior(layout, target_block)[0])
            engine.query(interior(layout, target_block)[0], interior(layout, 0)[0])
        assert table_of(site)
        assert site.compact().state() == state_before
        assert "derived" not in site.compact().state()
        assert site.to_compact_site() == shipped_before
        assert pickle.dumps(site) == pickled_before
        assert table_of(pickle.loads(pickled_before)) is None


class TestWhatDropsIt:
    def test_a_graph_delta_sets_the_table_aside_and_an_empty_one_does_not(self, ring_engine):
        engine, layout = ring_engine
        evaluator = LocalQueryEvaluator()
        site, spec = engine.catalog.site(2), transit_spec(engine, 2)
        evaluated = evaluator.evaluate(site, spec)
        table = table_of(site)
        key = (spec.entry_nodes, spec.exit_nodes, "shortest_path")
        site.compact().apply_delta(CompactDelta())
        assert table_of(site) is table and key in table and not table.previous
        a, b = interior(layout, 2)[:2]
        site.compact().apply_delta(CompactDelta(reweights=((a, b, 1.0),)))
        # Nothing is served across the delta; what was held stays readable.
        assert table_of(site) is table and not table
        assert table.previous == {key: evaluated.values}
        hits = evaluator.transit_hits
        evaluator.evaluate(site, spec)  # refilled from rows, not replayed
        assert evaluator.transit_hits == hits and key in table
        # A delta that interns a node leaves no table, so nothing to compare with.
        site.compact().apply_delta(CompactDelta(inserts=((a, "new", 1.0),)))
        assert table_of(site) is None

    def test_compaction_keeps_the_table(self, ring_engine):
        engine, layout = ring_engine
        evaluator = LocalQueryEvaluator()
        site, spec = engine.catalog.site(2), transit_spec(engine, 2)
        a, b = interior(layout, 2)[:2]
        site.compact().apply_delta(CompactDelta(reweights=((a, b, 1.0),)))
        through_overlay = evaluator.evaluate(site, spec)
        assert through_overlay.overlay
        site.compact().compact_now()
        replayed = evaluator.evaluate(site, spec)
        assert replayed.memoized and not replayed.overlay
        assert replayed.values == through_overlay.values

    def test_prepare_reports_the_rederivation_once(self, ring_engine):
        engine, _ = ring_engine
        evaluator = LocalQueryEvaluator()
        site = engine.catalog.site(2)
        assert evaluator.prepare(site)
        assert not evaluator.prepare(site)
        site._local_iterations = None  # what a write that adds or removes an edge leaves
        assert not evaluator.prepare(site)  # no evaluation reads the estimate
        assert site._local_iterations is None
        site._compact_augmented = None  # what a rebuilt site starts with
        assert evaluator.prepare(site)
        assert not evaluator.prepare(site)

    def test_after_a_write_the_table_refills_from_rows_without_a_search(self, ring_engine):
        engine, layout = ring_engine
        evaluator = LocalQueryEvaluator()
        site, spec = engine.catalog.site(2), transit_spec(engine, 2)
        first = evaluator.evaluate(site, spec)
        assert first.rows_filled == len(spec.entry_nodes)
        graph = site.compact()
        a, b = interior(layout, 2)[:2]
        # Heavier than every path in the ring: it can move no row.
        graph.apply_delta(CompactDelta(inserts=((a, b, 1000.0),)))
        assert not table_of(site)
        with counted_searches() as calls:
            refilled = evaluator.evaluate(site, spec)
        # A table miss, answered by the rows alone (a memo all the same).
        assert not calls and refilled.memoized and refilled.overlay
        assert (refilled.rows_read, refilled.rows_filled) == (len(spec.entry_nodes), 0)
        assert refilled.values == first.values == dict_local_query(site, spec).values
        assert (evaluator.transit_hits, evaluator.transit_misses) == (0, 2)
        assert evaluator.evaluate(site, spec).memoized
