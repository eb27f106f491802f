"""One task set, one call: which searches run, and that companions change no value.

``LocalQueryEvaluator.evaluate_many`` answers a shortest-path subquery with
a side inside the site's border set from that side's border rows (the
smaller side's, when both are), and roots the searches of every other one at
the smaller of its two node sets.
These tests pin what that may and may not change: a subquery's values and
work counters are a function of the site graph and the subquery alone —
never of its companions, nor of who filled a row — with and without pending
overlay rows, and ``searches`` adds up to the searches that really ran.

Every weight here has a fractional part on purpose: the layouts' integer
weights make every path sum exact, and an inexact sum is what a changed
summation order shows up in.
"""

import queue
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.closure import array_dijkstra, reachability_semiring, shortest_path_semiring
from repro.disconnection import LocalQueryEvaluator, QueryPlanner, collect_task_keys
from repro.disconnection.planner import LocalQuerySpec
from repro.service.pool import _routed_worker_loop, result_from_payload

from tests.local_query_oracles import dict_local_query
from tests.transit_layouts import (
    SPEC,
    WRITE,
    counted_bfs,
    counted_searches,
    fractional_service,
    interior,
    is_transit,
    specs_of,
)

def rooted_at_exits(site, spec):
    """Whether ``spec``'s searches (or the rows read in their place) start at its exits."""
    border = site.border_nodes
    if not (spec.entry_nodes <= border and spec.exit_nodes <= border):
        if spec.exit_nodes <= border:
            return True
        if spec.entry_nodes <= border:
            return False
    if len(spec.exit_nodes) < len(spec.entry_nodes):
        return True
    # Rows (both sides inside the border set) are read backward on a tie too.
    on_border = spec.entry_nodes <= border and spec.exit_nodes <= border
    return on_border and len(spec.exit_nodes) == len(spec.entry_nodes)


def forward_search_values(site, spec):
    """One targeted forward search per entry node (what a forward row must equal)."""
    graph = site.compact()
    exits = [(node, graph.try_node_id(node)) for node in spec.exit_nodes]
    values = {}
    for entry in spec.entry_nodes:
        distances, _, _ = array_dijkstra(
            graph, graph.try_node_id(entry), target_ids=[exit_id for _, exit_id in exits]
        )
        for exit_node, exit_id in exits:
            if distances[exit_id] != float("inf"):
                values[(entry, exit_node)] = distances[exit_id]
    return values


class TestGroupingChangesNoValue:
    @pytest.mark.parametrize("kind", ["ring", "chain"])
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        writes=st.lists(WRITE, max_size=6),
        draws=st.lists(SPEC, min_size=2, max_size=10),
    )
    def test_grouped_equals_one_by_one_equals_the_dict_evaluator(self, kind, writes, draws):
        ring = kind == "ring"
        # Two services from one recipe: the memos live on the site graphs, so
        # one-by-one on the grouped run's sites would only replay.
        grouped_service, layout = fractional_service(kind, shortest_path_semiring, writes)
        single_service, _ = fractional_service(kind, shortest_path_semiring, writes)
        specs = specs_of(grouped_service, layout, draws, ring=ring)
        grouped_site = grouped_service.engine().catalog.site
        single_site = single_service.engine().catalog.site

        with counted_searches() as grouped_calls:
            grouped = LocalQueryEvaluator().evaluate_many(grouped_site, specs)
        single_evaluator = LocalQueryEvaluator()
        with counted_searches() as single_calls:
            single = [
                single_evaluator.evaluate(single_site(spec.fragment_id), spec) for spec in specs
            ]

        for spec, together, alone in zip(specs, grouped, single):
            site = single_site(spec.fragment_id)
            assert together.values == alone.values  # the identical floats
            assert together.backward == alone.backward == rooted_at_exits(site, spec)
            expected = dict_local_query(site, spec)
            assert alone.values == pytest.approx(expected.values, rel=1e-9, abs=1e-12)
            if not alone.backward:
                assert alone.values == forward_search_values(site, spec)
            # Companions decide neither the work booked nor who searched.
            assert replace(together.statistics, elapsed_seconds=0.0) == replace(
                alone.statistics, elapsed_seconds=0.0
            )
            assert (together.searches, together.rows_read, together.memoized) == (
                alone.searches, alone.rows_read, alone.memoized
            )
        assert grouped_calls == single_calls
        assert sum(result.searches for result in grouped) == len(grouped_calls)
        for spec, together in zip(specs, grouped):
            if is_transit(grouped_site(spec.fragment_id), spec.key()):
                # A first evaluation: one row per root, searched for only
                # when no companion filled it first.
                roots = min(len(spec.entry_nodes), len(spec.exit_nodes))
                assert together.rows_read + together.rows_filled == roots
                assert together.searches == together.rows_filled

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(writes=st.lists(WRITE, max_size=4), draws=st.lists(SPEC, min_size=2, max_size=8))
    def test_reachability_reads_its_rows_in_the_same_direction_grouped_or_alone(
        self, writes, draws
    ):
        grouped_service, layout = fractional_service("chain", reachability_semiring, writes)
        single_service, _ = fractional_service("chain", reachability_semiring, writes)
        specs = specs_of(grouped_service, layout, draws, ring=False)
        semiring = reachability_semiring()
        grouped_site = grouped_service.engine().catalog.site
        with counted_bfs() as grouped_calls:
            grouped = LocalQueryEvaluator(semiring=semiring).evaluate_many(grouped_site, specs)
        evaluator = LocalQueryEvaluator(semiring=semiring)
        with counted_bfs() as single_calls:
            single = [
                evaluator.evaluate(single_service.engine().catalog.site(spec.fragment_id), spec)
                for spec in specs
            ]
        for spec, together, alone in zip(specs, grouped, single):
            site = single_service.engine().catalog.site(spec.fragment_id)
            assert together.values == alone.values
            assert together.values == dict_local_query(site, spec, semiring).values
            # The shortest-path direction rule, rows on a border side included.
            on_border = spec.entry_nodes <= site.border_nodes or spec.exit_nodes <= site.border_nodes
            assert together.backward == alone.backward == (
                on_border and rooted_at_exits(site, spec)
            )
            assert (together.searches, together.rows_read, together.rows_filled) == (
                alone.searches, alone.rows_read, alone.rows_filled
            )
            assert together.searches == together.rows_filled
        # Companions change no BFS: the same roots in the same order, each
        # row filled once (the rest are the keyhole BFS of row-less specs).
        assert grouped_calls == single_calls
        assert sum(result.rows_filled for result in grouped) <= len(grouped_calls)

    def test_a_write_leaves_overlay_rows_the_searches_read_through(self):
        service, layout = fractional_service("ring", shortest_path_semiring, [("insert", 2, 9, 0.31)])
        site = service.engine().catalog.site(2)
        assert site.compact().has_overlay()
        spec = LocalQuerySpec(
            fragment_id=2,
            entry_nodes=service.engine().catalog.fragmentation.disconnection_set(1, 2),
            exit_nodes=frozenset([interior(layout, 2)[0]]),
        )
        result = LocalQueryEvaluator().evaluate(site, spec)
        # One forward row per node of the entry set, filled through the overlay.
        assert not result.backward and result.overlay and result.rows_filled == 2
        expected = dict_local_query(site, spec)
        assert result.values == pytest.approx(expected.values, rel=1e-9, abs=1e-12)


def endpoint_tasks(service, source, target):
    """The tasks of one ring query that are not border-to-border: both chains' ends."""
    catalog = service.engine().catalog
    tasks, _ = collect_task_keys([QueryPlanner(catalog).plan(source, target)])
    return [task for task in tasks if not is_transit(catalog.site(task[0]), task)]


class TestWhichSearchesRun:
    def test_endpoint_subqueries_fill_their_border_rows_once(self):
        service, layout = fractional_service("ring", shortest_path_semiring, [])
        catalog = service.engine().catalog
        source, target = interior(layout, 0)[1], interior(layout, 2)[1]
        tasks = endpoint_tasks(service, source, target)
        assert len(tasks) == 4  # source -> either set, either set -> target
        specs = [LocalQuerySpec(*task) for task in tasks]
        evaluator = LocalQueryEvaluator()
        with counted_searches() as calls:
            first = evaluator.evaluate_many(catalog.site, specs)
        # One row per border node of the two endpoint fragments, no more.
        assert len(calls) == len(catalog.site(0).border_nodes | catalog.site(2).border_nodes)
        with counted_searches() as calls:
            second = evaluator.evaluate_many(catalog.site, specs)
        assert not calls
        for task, filled, read in zip(tasks, first, second):
            assert filled.backward == read.backward == (len(task[1]) == 1)
            assert filled.values == read.values and read.values
            assert (filled.searches, filled.rows_filled, filled.memoized) == (2, 2, False)
            assert (read.searches, read.rows_read, read.memoized) == (0, 2, True)
            # The work booked does not say who filled the rows.
            assert replace(filled.statistics, elapsed_seconds=0.0) == replace(
                read.statistics, elapsed_seconds=0.0
            )
            assert read.statistics.tuples_produced > 0

    def test_a_same_fragment_query_still_searches(self):
        service, layout = fractional_service("ring", shortest_path_semiring, [])
        site = service.engine().catalog.site(1)
        a, b = interior(layout, 1)
        spec = LocalQuerySpec(fragment_id=1, entry_nodes=frozenset([a]), exit_nodes=frozenset([b]))
        evaluator = LocalQueryEvaluator()
        for _ in range(2):
            with counted_searches() as calls:
                result = evaluator.evaluate(site, spec)
            assert len(calls) == result.searches == 1
            assert not (result.memoized or result.rows_read or result.rows_filled)

    def test_a_placed_worker_reads_the_rows_the_coordinator_would(self):
        service, layout = fractional_service("ring", shortest_path_semiring, [])
        catalog = service.engine().catalog
        tasks = endpoint_tasks(service, interior(layout, 0)[1], interior(layout, 2)[1])
        inbox, replies = queue.Queue(), []
        inbox.put(("evaluate", 7, tasks, None))
        inbox.put(("evaluate", 8, tasks, None))
        inbox.put(("stop",))

        class Pipe:
            send = staticmethod(replies.append)

        with counted_searches() as calls:
            _routed_worker_loop(
                0, "shortest_path", inbox, Pipe, list(catalog.compact_sites().values())
            )
        assert len(calls) == 8  # the first message's fills; the second runs nothing
        evaluator = LocalQueryEvaluator()
        for request_id, (reply_id, _, kind, reply) in zip((7, 8), replies):
            assert (reply_id, kind) == (request_id, "evaluated")
            warm = request_id == 8
            for task, payload in reply["payloads"]:
                shipped = result_from_payload(task, payload)
                alone = evaluator.evaluate(catalog.site(task[0]), LocalQuerySpec(*task))
                assert shipped.values == alone.values  # the identical floats
                assert shipped.backward == alone.backward == (len(task[1]) == 1)
                assert shipped.statistics.tuples_produced == alone.statistics.tuples_produced
                assert (shipped.memoized, shipped.searches) == (warm, 0 if warm else 2)
                assert (shipped.rows_read, shipped.rows_filled) == ((2, 0) if warm else (0, 2))
            lookups = reply["metrics"]["repro_border_row_lookups_total"]["series"]
            assert {entry["labels"]["outcome"]: entry["value"] for entry in lookups} == (
                {"read": 8.0} if warm else {"fill": 8.0}
            )
