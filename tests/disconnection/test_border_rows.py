"""Border rows: what fills them, what reads them, what drops them.

A shortest-path subquery with a side inside its site's border set is
answered from that side's rows — ``dist(x -> b)`` / ``dist(b -> x)`` for every
node ``x`` of the fragment, one ``array('d')`` per border node ``b`` and
direction, kept in the derived store of the site's compact graph.  These
tests pin the contract from below: a row answer is the dict oracle's answer
(to rounding: a row read sums a path from its border end), a filled row is
never searched for again, a write drops the rows it may have moved and keeps
the rest, the rows never leave the process, and a pool worker reads the very
floats the coordinator would.  ``test_row_survival.py`` checks every row a
random write keeps against a fresh search.
"""

import pickle
from array import array
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.closure import shortest_path_semiring
from repro.disconnection import CompactFragmentSite, LocalQueryEvaluator
from repro.disconnection.local_query import BORDER_ROWS_KEY, BorderRows, border_rows_held
from repro.disconnection.planner import LocalQuerySpec
from repro.graph import CompactDelta

from tests.local_query_oracles import dict_local_query
from tests.transit_layouts import (
    PICK,
    SPEC,
    WRITE,
    apply_write,
    counted_searches,
    fractional_service,
    interior,
    is_transit,
    oracle_value,
    specs_of,
)

WRITES = st.lists(WRITE, max_size=6)


def rows_of(site, *, use_shortcuts=True):
    return site.compact(use_shortcuts=use_shortcuts).derived_get(BORDER_ROWS_KEY)


def row_roots(site, spec):
    """The side of ``spec`` whose rows answer it, or ``None`` when it searches.

    A side inside ``site``'s border set; of two such sides the exits only
    when there are fewer of them.  ``None`` too when a side is empty (a
    write can empty a disconnection set): such a spec reads nothing.
    """
    border = site.border_nodes
    if not spec.entry_nodes or not spec.exit_nodes:
        return None
    exits, entries = spec.exit_nodes <= border, spec.entry_nodes <= border
    if exits and entries:
        return spec.exit_nodes if len(spec.exit_nodes) < len(spec.entry_nodes) else spec.entry_nodes
    if exits or entries:
        return spec.exit_nodes if exits else spec.entry_nodes
    return None


def first_task(service, layout, block=2, neighbour=3):
    """``{an interior node of block} -> DS(block, neighbour)``."""
    site = service.engine().catalog.site(block)
    spec = LocalQuerySpec(
        fragment_id=block,
        entry_nodes=frozenset([interior(layout, block)[0]]),
        exit_nodes=site.disconnection_sets[neighbour],
    )
    return site, spec


def without_clock(statistics):
    return replace(statistics, elapsed_seconds=0.0)


class TestRowAnswers:
    @pytest.mark.parametrize("use_shortcuts", [True, False])
    @pytest.mark.parametrize("kind", ["ring", "chain"])
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(writes=WRITES, draws=st.lists(SPEC, min_size=2, max_size=10))
    def test_rows_answer_what_the_dict_oracle_answers(self, kind, use_shortcuts, writes, draws):
        service, layout = fractional_service(kind, shortest_path_semiring, writes)
        site_of = service.engine().catalog.site
        specs = specs_of(service, layout, draws, ring=kind == "ring")
        evaluator = LocalQueryEvaluator(use_shortcuts=use_shortcuts)
        first = evaluator.evaluate_many(site_of, specs)
        with counted_searches() as calls:
            second = evaluator.evaluate_many(site_of, specs)
        searching = 0
        for spec, filled, read in zip(specs, first, second):
            site = site_of(spec.fragment_id)
            expected = dict_local_query(site, spec, use_shortcuts=use_shortcuts).values
            # Unreachable pairs are absent on both sides, never ``inf``.
            assert filled.values.keys() == expected.keys()
            assert filled.values == pytest.approx(expected, rel=1e-9, abs=1e-12)
            assert read.values == filled.values  # the identical floats
            assert without_clock(read.statistics) == without_clock(filled.statistics)
            touched = filled.rows_read + filled.rows_filled
            roots = row_roots(site, spec)
            if roots is not None:
                assert touched == len(roots)
                # A border-to-border one is replayed from the transit table.
                replayed = is_transit(site, spec.key())
                assert read.rows_read == (0 if replayed else len(roots))
                assert filled.searches == filled.rows_filled
                assert read.memoized and not read.searches
                assert filled.statistics.iterations == len(roots)
            else:
                assert touched == read.rows_read == 0
                searching += read.searches
        # The second pass searched for nothing a row or a table holds.
        assert len(calls) == searching

    def test_a_row_is_the_untargeted_search_and_its_settled_count(self):
        service, layout = fractional_service("ring", shortest_path_semiring, [])
        site, spec = first_task(service, layout)
        with counted_searches() as calls:
            result = LocalQueryEvaluator().evaluate(site, spec)
        rows = rows_of(site)
        assert isinstance(rows, BorderRows) and len(rows) == len(spec.exit_nodes) == len(calls)
        graph = site.compact()
        for (root_id, backward), row in rows.items():
            assert backward and graph.node_of(root_id) in spec.exit_nodes
            assert isinstance(row.distances, array) and row.distances.typecode == "d"
            assert len(row.distances) == graph.node_count()
            assert row.settled in calls and row.distances[root_id] == 0.0
        assert result.statistics.tuples_produced == sum(calls)
        assert border_rows_held(site) == (2, 2 * 8 * graph.node_count()) == (len(rows), rows.nbytes())

    def test_the_store_is_bounded_by_the_border_set(self):
        service, layout = fractional_service("ring", shortest_path_semiring, [])
        catalog = service.engine().catalog
        nodes = sorted(service.database.graph.nodes())
        for source in nodes[::3]:
            for target in nodes[1::4]:
                if source != target:
                    service.query(source, target)
        for site in catalog.sites():
            assert 0 < len(rows_of(site)) <= 2 * len(site.border_nodes)


class TestWhatDropsThem:
    def test_a_graph_delta_drops_the_rows_and_an_empty_one_does_not(self):
        service, layout = fractional_service("ring", shortest_path_semiring, [])
        site, spec = first_task(service, layout)  # rows rooted at the exits, backward
        evaluator = LocalQueryEvaluator()
        first = evaluator.evaluate(site, spec)
        rows = rows_of(site)
        site.compact().apply_delta(CompactDelta())
        assert rows_of(site) is rows
        assert evaluator.evaluate(site, spec).memoized
        a, b = interior(layout, 2)  # a is nearer both exits than b
        service.update_edge(a, b, 0.25)  # leads away from the exits: no row moves
        assert rows_of(site) is rows and len(rows) == len(spec.exit_nodes)
        kept = evaluator.evaluate(site, spec)
        assert kept.memoized and kept.overlay and kept.values == first.values
        assert kept.values == pytest.approx(dict_local_query(site, spec).values, rel=1e-9)
        service.update_edge(b, a, 0.25)  # leads towards them: both rows shorten
        assert not rows_of(site)
        refilled = evaluator.evaluate(site, spec)
        assert refilled.rows_filled == len(spec.exit_nodes) and refilled.overlay
        assert refilled.values == pytest.approx(dict_local_query(site, spec).values, rel=1e-9)

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(writes=st.lists(WRITE, min_size=1, max_size=6), picks=st.lists(PICK, min_size=4, max_size=8))
    def test_no_row_outlives_the_adjacency_it_was_filled_from(self, writes, picks):
        service, layout = fractional_service("ring", shortest_path_semiring, [])
        nodes = sorted(service.database.graph.nodes())
        pairs = [
            (nodes[a % len(nodes)], nodes[b % len(nodes)]) for a, b in zip(picks, picks[1:])
        ]
        for write in writes:
            for source, target in pairs:
                if source != target:
                    service.query(source, target)  # fills rows the write must drop
            apply_write(service, layout, write, ring=True)
            for source, target in pairs:
                if source != target:
                    assert service.query(source, target).value == pytest.approx(
                        oracle_value(service, source, target), rel=1e-9
                    )

    def test_compaction_keeps_the_rows(self):
        service, layout = fractional_service("ring", shortest_path_semiring, [])
        site, spec = first_task(service, layout)
        a, b = interior(layout, 2)
        site.compact().apply_delta(CompactDelta(reweights=((a, b, 0.25),)))
        evaluator = LocalQueryEvaluator()
        through_overlay = evaluator.evaluate(site, spec)
        site.compact().compact_now()
        read = evaluator.evaluate(site, spec)
        assert read.memoized and not read.overlay and read.values == through_overlay.values


class TestWhereTheyLive:
    def test_the_rows_never_leave_the_process(self, tmp_path):
        service, layout = fractional_service("ring", shortest_path_semiring, [])
        catalog = service.engine().catalog
        for site in catalog.sites():
            site.derive()
        states = {site.fragment_id: site.compact().state() for site in catalog.sites()}
        payloads = pickle.dumps(catalog.compact_sites())
        service.snapshot(tmp_path / "cold")
        nodes = sorted(service.database.graph.nodes())
        for source, target in zip(nodes, nodes[7:] + nodes[:7]):
            service.query(source, target)
        assert all(rows_of(site) for site in catalog.sites())
        for site in catalog.sites():
            assert site.compact().state() == states[site.fragment_id]
            assert "derived" not in site.compact().state()
            assert rows_of(pickle.loads(pickle.dumps(site))) is None
        assert pickle.dumps(catalog.compact_sites()) == payloads
        service.snapshot(tmp_path / "warm")
        assert (tmp_path / "warm" / "payload.bin").read_bytes() == (
            tmp_path / "cold" / "payload.bin"
        ).read_bytes()

    def test_the_ablation_graph_keeps_its_own_rows(self):
        service, layout = fractional_service("ring", shortest_path_semiring, [])
        site, spec = first_task(service, layout)
        with_shortcuts = LocalQueryEvaluator().evaluate(site, spec)
        assert rows_of(site) and site._compact_plain is None
        bare = LocalQueryEvaluator(use_shortcuts=False)
        first = bare.evaluate(site, spec)
        assert first.rows_filled == len(spec.exit_nodes)  # not served from the other store
        assert rows_of(site, use_shortcuts=False) is not rows_of(site)
        assert first.values == pytest.approx(
            dict_local_query(site, spec, use_shortcuts=False).values, rel=1e-9
        )
        assert bare.evaluate(site, spec).memoized
        assert LocalQueryEvaluator().evaluate(site, spec).values == with_shortcuts.values

    def test_no_answer_depends_on_the_hint(self):
        service, layout = fractional_service("ring", shortest_path_semiring, [])
        site, spec = first_task(service, layout)
        expected = LocalQueryEvaluator().evaluate(site, spec)
        hinted = site.to_compact_site()
        assert hinted.border_nodes == site.border_nodes
        unhinted = CompactFragmentSite(2, hinted.state, hinted.estimated_iterations)
        stale = CompactFragmentSite(2, hinted.state, hinted.estimated_iterations)
        stale.border_nodes = frozenset(interior(layout, 2)) | {"gone"}
        evaluator = LocalQueryEvaluator()
        same_path = evaluator.evaluate(hinted, spec)
        assert same_path.values == expected.values  # the identical floats
        assert without_clock(same_path.statistics) == without_clock(expected.statistics)
        for plain in (unhinted, stale):
            result = evaluator.evaluate(plain, spec)
            assert result.values == pytest.approx(expected.values, rel=1e-9)
        assert rows_of(unhinted) is None


class TestPooledEqualsInProcess:
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(writes=WRITES, picks=st.lists(PICK, min_size=6, max_size=12))
    def test_a_worker_returns_the_coordinators_floats(self, writes, picks):
        in_process, _ = fractional_service("ring", shortest_path_semiring, writes)
        pooled, _ = fractional_service("ring", shortest_path_semiring, writes, workers=2)
        with pooled:
            nodes = sorted(in_process.database.graph.nodes())
            pairs = [
                (nodes[a % len(nodes)], nodes[b % len(nodes)])
                for a, b in zip(picks, picks[1:])
                if a % len(nodes) != b % len(nodes)
            ]
            for _ in range(2):  # rows filled, then rows read
                for source, target in pairs:
                    assert pooled.query(source, target).value == in_process.query(
                        source, target
                    ).value
                    pooled.cache.clear()
                    in_process.cache.clear()
            assert [answer.value for answer in pooled.query_batch(pairs)] == [
                answer.value for answer in in_process.query_batch(pairs)
            ]
