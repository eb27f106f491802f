"""One task set, one call: which searches run, and that grouping changes no value.

``LocalQueryEvaluator.evaluate_many`` roots a shortest-path subquery's
searches at the smaller of its two node sets and lets the subqueries of one
task set that start at the same node of a fragment, in the same direction,
read one search.  These tests pin what that may and may not change: a
subquery's values are a function of the site graph and the subquery alone —
never of its companions — with and without pending overlay rows, and the
work counters of a task set add up to the searches that really ran.

Every weight here has a fractional part on purpose: the layouts' integer
weights make every path sum exact, and an inexact sum is what a changed
summation order shows up in.
"""

import queue
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.disconnection.local_query as local_query_module
from repro.closure import array_dijkstra, reachability_semiring, shortest_path_semiring
from repro.disconnection import LocalQueryEvaluator, QueryPlanner, collect_task_keys
from repro.disconnection.planner import LocalQuerySpec
from repro.graph import DiGraph
from repro.service import QueryService
from repro.service.pool import _routed_worker_loop, result_from_payload

from tests.local_query_oracles import dict_local_query
from tests.transit_layouts import fragment, interior, is_transit, layout_graph

BLOCKS, SIZE = 5, 6
PICK = st.integers(min_value=0, max_value=10**6)
WRITE = st.tuples(
    st.sampled_from(("insert", "reweight", "delete")),
    st.sampled_from(range(BLOCKS)),
    PICK,
    st.integers(min_value=1, max_value=97).map(lambda tenths: tenths / 10 + 0.01),
)
SPEC = st.tuples(
    st.sampled_from(("first", "last", "single", "transit", "border-to-set")),
    st.sampled_from(range(BLOCKS)),
    st.integers(min_value=0, max_value=2),  # few distinct roots: task sets must collide
    st.integers(min_value=0, max_value=2),
    st.booleans(),
)


def build(kind, semiring_factory, writes):
    """A service over the ring or the one-way chain, with ``writes`` pending as overlay rows."""
    ring = kind == "ring"
    exact, layout = layout_graph(BLOCKS, SIZE, ring=ring, directed=not ring)
    graph = DiGraph(
        [(a, b, weight + ((a + b) % 7) / 10 + 0.01) for a, b, weight in exact.weighted_edges()]
    )
    service = QueryService(fragment(graph, layout), semiring=semiring_factory())
    for site in service.engine().catalog.sites():
        site.compact()  # a write to a site without a compact form rebuilds, not overlays
    current = service.database.graph
    for action, block, pick, weight in writes:
        nodes = layout[block]
        a = nodes[pick % len(nodes)]
        b = nodes[(pick // len(nodes)) % len(nodes)]
        if a == b:
            continue
        if not ring and a > b:
            a, b = b, a
        if current.has_edge(a, b):
            if action == "delete":
                service.update_edge(a, b, delete=True)
            else:
                service.update_edge(a, b, weight)
        elif action == "insert":
            service.update_edge(a, b, weight)
    return service, layout


def specs_of(service, layout, draws, *, ring):
    fragmentation = service.engine().catalog.fragmentation
    count = fragmentation.fragment_count()
    specs = {}
    for where, block, pick_a, pick_b, clockwise in draws:
        step = 1 if clockwise or not ring else -1
        before, after = (block - step) % count, (block + step) % count
        if not ring and (block == 0 or block == count - 1):
            before = after = 1 if block == 0 else count - 2
        inside = interior(layout, block)
        a, b = inside[pick_a % len(inside)], inside[pick_b % len(inside)]
        incoming = fragmentation.disconnection_set(before, block)
        outgoing = fragmentation.disconnection_set(block, after)
        if where == "first":
            entries, exits = frozenset([a]), outgoing
        elif where == "last":
            entries, exits = incoming, frozenset([b])
        elif where == "single":
            entries, exits = frozenset([a]), frozenset([b])
        elif where == "transit":
            entries, exits = incoming, outgoing
        else:  # a query that starts on a border node
            entries, exits = frozenset([sorted(incoming)[pick_a % len(incoming)]]), outgoing
        spec = LocalQuerySpec(fragment_id=block, entry_nodes=entries, exit_nodes=exits)
        specs.setdefault(spec.key(), spec)
    return list(specs.values())


@contextmanager
def counted_searches():
    """Patch the evaluator's kernel; yields the settled count of every call made."""
    calls = []
    real = local_query_module.array_dijkstra

    def counting(*args, **kwargs):
        found = real(*args, **kwargs)
        calls.append(found[2])
        return found

    local_query_module.array_dijkstra = counting
    try:
        yield calls
    finally:
        local_query_module.array_dijkstra = real


def forward_search_values(site, spec):
    """The parent commit's algorithm: one forward search per entry node."""
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
        # Two services from one recipe: the transit tables live on the site
        # graphs, so one-by-one on the grouped run's sites would only replay.
        grouped_service, layout = build(kind, shortest_path_semiring, writes)
        single_service, _ = build(kind, shortest_path_semiring, writes)
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
            assert together.values == alone.values  # the identical floats
            assert together.backward == alone.backward == (
                len(spec.exit_nodes) < len(spec.entry_nodes)
            )
            expected = dict_local_query(single_site(spec.fragment_id), spec)
            assert alone.values == pytest.approx(expected.values, rel=1e-9, abs=1e-12)
            if not alone.backward:
                assert alone.values == forward_search_values(
                    single_site(spec.fragment_id), spec
                )
        # Sharing only ever removes searches, and the counters say which ran.
        assert len(grouped_calls) <= len(single_calls)
        assert sum(result.searches for result in grouped) == len(grouped_calls)
        assert sum(result.statistics.tuples_produced for result in grouped) == sum(grouped_calls)
        for spec, together in zip(specs, grouped):
            if is_transit(grouped_site(spec.fragment_id), spec.key()):
                # Never shared: its own searches, one per root.
                assert together.searches == min(len(spec.entry_nodes), len(spec.exit_nodes))

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(writes=st.lists(WRITE, max_size=4), draws=st.lists(SPEC, min_size=2, max_size=8))
    def test_reachability_goes_through_the_grouped_entry_point_unchanged(self, writes, draws):
        grouped_service, layout = build("chain", reachability_semiring, writes)
        single_service, _ = build("chain", reachability_semiring, writes)
        specs = specs_of(grouped_service, layout, draws, ring=False)
        semiring = reachability_semiring()
        grouped = LocalQueryEvaluator(semiring=semiring).evaluate_many(
            grouped_service.engine().catalog.site, specs
        )
        evaluator = LocalQueryEvaluator(semiring=semiring)
        for spec, together in zip(specs, grouped):
            site = single_service.engine().catalog.site(spec.fragment_id)
            assert together.values == evaluator.evaluate(site, spec).values
            assert together.values == dict_local_query(site, spec, semiring).values
            assert together.searches == 0 and not together.backward

    def test_a_write_leaves_overlay_rows_the_searches_read_through(self):
        service, layout = build("ring", shortest_path_semiring, [("insert", 2, 9, 0.31)])
        site = service.engine().catalog.site(2)
        assert site.compact().has_overlay()
        spec = LocalQuerySpec(
            fragment_id=2,
            entry_nodes=service.engine().catalog.fragmentation.disconnection_set(1, 2),
            exit_nodes=frozenset([interior(layout, 2)[0]]),
        )
        result = LocalQueryEvaluator().evaluate(site, spec)
        assert result.backward and result.overlay and result.searches == 1
        expected = dict_local_query(site, spec)
        assert result.values == pytest.approx(expected.values, rel=1e-9, abs=1e-12)


def endpoint_tasks(service, source, target):
    """The tasks of one ring query that are not border-to-border: both chains' ends."""
    catalog = service.engine().catalog
    tasks, _ = collect_task_keys([QueryPlanner(catalog).plan(source, target)])
    return [task for task in tasks if not is_transit(catalog.site(task[0]), task)]


class TestWhichSearchesRun:
    def test_both_chains_endpoint_subqueries_share_two_searches(self):
        service, layout = build("ring", shortest_path_semiring, [])
        source, target = interior(layout, 0)[1], interior(layout, 2)[1]
        tasks = endpoint_tasks(service, source, target)
        assert len(tasks) == 4  # source -> either set, either set -> target
        with counted_searches() as calls:
            results = LocalQueryEvaluator().evaluate_many(
                service.engine().catalog.site, [LocalQuerySpec(*task) for task in tasks]
            )
        assert len(calls) == 2
        # Each search is on the books of the first subquery that needed it.
        assert sorted(result.searches for result in results) == [0, 0, 1, 1]
        assert [result.backward for result in results] == [
            len(task[2]) < len(task[1]) for task in tasks
        ]
        for result in results:
            if not result.searches:
                assert result.statistics.tuples_produced == 0 and result.values

    def test_a_placed_worker_runs_one_message_as_one_task_set(self):
        service, layout = build("ring", shortest_path_semiring, [])
        catalog = service.engine().catalog
        tasks = endpoint_tasks(service, interior(layout, 0)[1], interior(layout, 2)[1])
        inbox, replies = queue.Queue(), []
        inbox.put(("evaluate", 7, tasks, None))
        inbox.put(("stop",))

        class Pipe:
            send = staticmethod(replies.append)

        with counted_searches() as calls:
            _routed_worker_loop(
                0, "shortest_path", inbox, Pipe, list(catalog.compact_sites().values())
            )
        (request_id, _, kind, reply), = replies
        assert (request_id, kind) == (7, "evaluated")
        assert len(calls) == 2
        evaluator = LocalQueryEvaluator()
        for task, payload in reply["payloads"]:
            assert payload["backward"] == (len(task[2]) < len(task[1]))
            shipped = result_from_payload(task, payload)
            alone = evaluator.evaluate(catalog.site(task[0]), LocalQuerySpec(*task))
            assert shipped.values == alone.values
            assert (shipped.searches, shipped.backward) == (payload["searches"], alone.backward)
        assert sum(payload["searches"] for _, payload in reply["payloads"]) == 2
