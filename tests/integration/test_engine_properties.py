"""Property-based integration tests: the disconnection set approach is lossless.

For every randomly generated clustered graph, every fragmentation produced by
the paper's algorithms, and every source/destination pair drawn, the answer
must equal the centralised Dijkstra answer — the "correct and precise"
requirement of Sec. 2.1.

Every drawn pair is asked of all five callers of the query core.
``QueryService.query``, ``QueryService.query_batch`` and the engine answer
through the border graph: on every layout, cyclic grids included, their
value is the whole-graph oracle's, and all three give the same value, chain
and error.  The hierarchical engine answers through fragment chains: it
gives the oracle's value, or, on a cyclic grid layout, flags a pair
(``PlanTruncatedError``) when more chains connect the endpoints than its
planner enumerates; a pair whose fragments are not adjacent it plans over
its backbone instead (three fragments whatever the layout), and never
flags.  A shortest-path pair is also asked of ``engine.route``: the same
cost, chain and error as ``query``, and a walk over base-graph edges that
adds up to that cost.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.closure import reachability_semiring, shortest_path_cost
from repro.disconnection import DisconnectionSetEngine, HierarchicalEngine
from repro.exceptions import (
    DisconnectedError,
    DisconnectionSetError,
    NoChainError,
    PlanTruncatedError,
)
from repro.fragmentation import (
    BondEnergyFragmenter,
    CenterBasedFragmenter,
    Fragmentation,
    LinearFragmenter,
)
from repro.graph import DiGraph, Point, is_reachable
from repro.graph.shortest_path import shortest_path_length
from repro.service import QueryService

from tests.transit_layouts import grid_layout

SETTINGS = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _clustered_graph(seed: int, cluster_count: int, cluster_size: int) -> DiGraph:
    """A connected, clustered, symmetric weighted graph with coordinates."""
    rng = random.Random(seed)
    graph = DiGraph()
    for cluster in range(cluster_count):
        offset = cluster * 30.0
        members = [cluster * cluster_size + index for index in range(cluster_size)]
        for node in members:
            graph.set_coordinate(node, Point(offset + rng.uniform(0, 10), rng.uniform(0, 10)))
        # Spanning path + random chords inside the cluster.
        for a, b in zip(members, members[1:]):
            graph.add_symmetric_edge(a, b, rng.uniform(1, 5))
        for _ in range(cluster_size):
            a, b = rng.choice(members), rng.choice(members)
            if a != b:
                graph.add_symmetric_edge(a, b, rng.uniform(1, 5))
    # Chain the clusters with one or two border edges.
    for cluster in range(cluster_count - 1):
        left = cluster * cluster_size + cluster_size - 1
        right = (cluster + 1) * cluster_size
        graph.add_symmetric_edge(left, right, rng.uniform(3, 8))
        if rng.random() < 0.5:
            graph.add_symmetric_edge(left - 1, right + 1, rng.uniform(3, 8))
    return graph


def ask_every_caller(fragmentation, source, target, semiring=None):
    """``caller -> (value, chain, error)`` for one pair, from each caller of the core.

    Also returns whether the hierarchical engine plans the pair over its
    backbone.
    """
    engine = DisconnectionSetEngine(fragmentation, semiring=semiring)
    service = QueryService(
        fragmentation, semiring=semiring, complementary=engine.catalog.complementary
    )
    callers = [("engine", engine.query), ("service.query", service.query)]
    shortest_path = engine.semiring.name == "shortest_path"
    if shortest_path:
        hierarchical = HierarchicalEngine(fragmentation)
        callers.append(("hierarchical", hierarchical.query))
    outcomes = {}
    for name, ask in callers:
        try:
            answer = ask(source, target)
            outcomes[name] = (answer.value, answer.chain, None)
        except DisconnectionSetError as error:
            outcomes[name] = (None, None, error)
    if shortest_path:
        try:
            outcomes["engine.route"] = engine.route(source, target)
        except (DisconnectionSetError, DisconnectedError) as error:
            outcomes["engine.route"] = error
    service.cache.clear()
    (answer,) = service.query_batch([(source, target)])
    outcomes["service.query_batch"] = (answer.value, answer.chain, answer.error)
    backbone = False
    if shortest_path:
        try:
            backbone = -1 in hierarchical.plan(source, target).chains[0].chain
        except DisconnectionSetError:
            pass
    return outcomes, backbone


def assert_route_is_the_query_answer(outcomes, graph, source, target):
    """``engine.route`` answers with ``query``'s cost, chain and error, over base edges."""
    value, chain, error = outcomes["engine"]
    routed = outcomes["engine.route"]
    if error is not None:
        assert type(routed) is type(error)
        return
    if value is None:
        assert isinstance(routed, DisconnectedError)
        return
    assert not isinstance(routed, Exception), routed
    assert (routed.cost, routed.chain) == (value, chain)
    assert routed.route[0] == source and routed.route[-1] == target
    assert all(graph.has_edge(a, b) for a, b in zip(routed.route, routed.route[1:]))
    walked = sum(graph.edge_weight(a, b) for a, b in zip(routed.route, routed.route[1:]))
    assert walked == pytest.approx(routed.cost)


def assert_callers_agree(outcomes, backbone, expected, fragmentation, source, target):
    """The service and the engine give the oracle's answer; the hierarchical engine the oracle's value or a flag.

    ``expected`` is the whole-graph value (``None``: no path).
    """
    value, chain, error = outcomes["service.query"]
    assert error is None or (isinstance(error, NoChainError) and expected is None)
    if expected is None:
        assert value is None
    else:
        assert value == pytest.approx(expected)
        if source != target:
            assert chain[0] in fragmentation.fragments_of_node(source)
            assert chain[-1] in fragmentation.fragments_of_node(target)
    message = None if error is None else str(error)
    assert outcomes["service.query_batch"] == (value, chain, message)
    engine_value, engine_chain, engine_error = outcomes["engine"]
    assert (engine_value, engine_chain) == (value, chain)
    assert type(engine_error) is type(error) and str(engine_error) == str(error)
    if "hierarchical" not in outcomes:
        return
    hierarchical_value, hierarchical_chain, hierarchical_error = outcomes["hierarchical"]
    if isinstance(hierarchical_error, PlanTruncatedError):
        assert not backbone
        return
    assert hierarchical_error is None or (
        isinstance(hierarchical_error, NoChainError) and expected is None
    )
    if expected is None:
        assert hierarchical_value is None
    else:
        assert hierarchical_value == pytest.approx(expected)
    if backbone:
        assert hierarchical_chain is not None and hierarchical_chain[1] == -1


@st.composite
def engine_cases(draw):
    seed = draw(st.integers(min_value=0, max_value=2_000))
    cluster_count = draw(st.integers(min_value=2, max_value=4))
    cluster_size = draw(st.integers(min_value=4, max_value=7))
    graph = _clustered_graph(seed, cluster_count, cluster_size)
    fragmenter_name = draw(st.sampled_from(["center", "bond", "linear"]))
    if fragmenter_name == "center":
        fragmenter = CenterBasedFragmenter(cluster_count, center_selection="distributed")
    elif fragmenter_name == "bond":
        fragmenter = BondEnergyFragmenter(cluster_count, restarts=2)
    else:
        fragmenter = LinearFragmenter(cluster_count)
    node_count = cluster_count * cluster_size
    source = draw(st.integers(min_value=0, max_value=node_count - 1))
    target = draw(st.integers(min_value=0, max_value=node_count - 1))
    return graph, fragmenter, source, target


class TestEngineMatchesCentralized:
    @SETTINGS
    @given(case=engine_cases())
    def test_shortest_path_answers_are_lossless(self, case):
        graph, fragmenter, source, target = case
        fragmentation = fragmenter.fragment(graph)
        fragmentation.validate()
        try:
            expected = shortest_path_cost(graph, source, target)
        except DisconnectedError:
            expected = None
        outcomes, backbone = ask_every_caller(fragmentation, source, target)
        value, _, error = outcomes["engine"]
        assert error is None or isinstance(error, NoChainError)
        if expected is None:
            assert value is None
        else:
            assert value == pytest.approx(expected)
        assert_callers_agree(outcomes, backbone, expected, fragmentation, source, target)
        assert_route_is_the_query_answer(outcomes, graph, source, target)

    @SETTINGS
    @given(case=engine_cases())
    def test_reachability_answers_are_lossless(self, case):
        graph, fragmenter, source, target = case
        fragmentation = fragmenter.fragment(graph)
        semiring = reachability_semiring()
        engine = DisconnectionSetEngine(fragmentation, semiring=semiring)
        expected = is_reachable(graph, source, target)
        assert engine.is_connected(source, target) == expected
        outcomes, backbone = ask_every_caller(fragmentation, source, target, semiring)
        expected_value = semiring.one if expected else None
        assert_callers_agree(outcomes, backbone, expected_value, fragmentation, source, target)


@st.composite
def grid_cases(draw):
    side = draw(st.sampled_from([3, 4]))
    fragmentation, _ = grid_layout(side, side, seed=draw(st.integers(0, 50)))
    nodes = sorted(fragmentation.graph.nodes())
    source = draw(st.sampled_from(nodes))
    target = draw(st.sampled_from(nodes))
    return side, fragmentation, source, target


class TestCyclicGridLayouts:
    """3 x 3 blocks stay under the chain planner's cap; 4 x 4 blocks go over it.

    Only the hierarchical engine plans chains: the engine is exact on both.
    """

    @SETTINGS
    @given(case=grid_cases())
    def test_shortest_paths_are_exact_or_flagged(self, case):
        side, fragmentation, source, target = case
        expected = shortest_path_length(fragmentation.graph, source, target)
        outcomes, backbone = ask_every_caller(fragmentation, source, target)
        value, _, error = outcomes["engine"]
        assert error is None and value == expected
        error = outcomes["hierarchical"][2]
        if error is not None:
            assert isinstance(error, PlanTruncatedError)
            assert side == 4, "a 3 x 3 grid has at most 12 chains a query"
            assert (error.source, error.target, error.max_chains) == (source, target, 32)
        assert_callers_agree(outcomes, backbone, expected, fragmentation, source, target)
        assert_route_is_the_query_answer(outcomes, fragmentation.graph, source, target)

    @SETTINGS
    @given(case=grid_cases())
    def test_reachability_is_always_true(self, case):
        _, fragmentation, source, target = case
        semiring = reachability_semiring()
        engine = DisconnectionSetEngine(fragmentation, semiring=semiring)
        assert engine.is_connected(source, target)  # the grid is connected
        outcomes, backbone = ask_every_caller(fragmentation, source, target, semiring)
        assert_callers_agree(outcomes, backbone, semiring.one, fragmentation, source, target)


SERVICE_GRID = {}


def service_grid(side, seed):
    """One shared service a grid layout (built once: the 8 x 8 one has 64 fragments)."""
    if (side, seed) not in SERVICE_GRID:
        SERVICE_GRID[(side, seed)] = QueryService(grid_layout(side, side, seed=seed)[0])
    return SERVICE_GRID[(side, seed)]


@SETTINGS
@given(
    side=st.sampled_from([3, 4, 8]),
    seed=st.integers(0, 2),
    picks=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), min_size=1, max_size=8),
)
def test_the_service_answers_every_grid_pair_with_the_oracle_value(side, seed, picks):
    """Up to 8 x 8 blocks (64 fragments): exact, never flagged, alone and in a batch."""
    service = service_grid(side, seed)
    nodes = sorted(service.database.graph.nodes())
    pairs = [(nodes[a % len(nodes)], nodes[b % len(nodes)]) for a, b in picks]
    service.cache.clear()
    batch = service.query_batch(pairs)
    service.cache.clear()
    for (source, target), batched in zip(pairs, batch):
        expected = shortest_path_length(service.database.graph, source, target)
        answer = service.query(source, target)
        assert answer.value == batched.value == expected
        assert batched.error is None and answer.chain == batched.chain


def _leave_and_re_enter_layout(spurs=()) -> Fragmentation:
    """Fragment F is the path a0-a1-a2-a3-a4 (weights 1, 100, 100, 1); G, K, H detour a0 to a4.

    DS(F, G) = {a0} and DS(F, H) = {a4}: the cheap way from a1 to a3 leaves F
    through one disconnection set and re-enters through the other.  Each
    ``(a, b, weight)`` of ``spurs`` adds one more one-edge fragment.
    """
    graph = DiGraph()
    path = [("a0", "a1", 1.0), ("a1", "a2", 100.0), ("a2", "a3", 100.0), ("a3", "a4", 1.0)]
    detour = [("a0", "g", 2.0), ("g", "h", 3.0), ("h", "a4", 2.0), *spurs]
    for a, b, weight in path + detour:
        graph.add_symmetric_edge(a, b, weight)
    fragment_f = {edge for a, b, _ in path for edge in ((a, b), (b, a))}
    return Fragmentation(graph, [fragment_f] + [{(a, b), (b, a)} for a, b, _ in detour])


def test_the_service_answers_a_path_that_leaves_and_re_enters_its_fragment():
    fragmentation = _leave_and_re_enter_layout()
    assert shortest_path_length(fragmentation.graph, "a1", "a3") == 9.0
    answer = QueryService(fragmentation).query("a1", "a3")
    # Out of F through DS(F, G), round the detour, back in through DS(F, H).
    assert answer.value == 9.0
    assert answer.chain[0] == answer.chain[-1] == 0 and len(answer.chain) == 5


@pytest.mark.parametrize("leaving_first", [True, False])
def test_a_batch_answers_each_same_fragment_pair_against_its_own_rows(leaving_first):
    """A batch pair inside F is checked against its own rows to F's border, not another pair's.

    The spur fragment Q (a0-q1, weight 1000) gives the pair (q1, a0) a source
    row whose one value is no better than anything inside F.
    """
    fragmentation = _leave_and_re_enter_layout(spurs=[("a0", "q1", 1000.0)])
    service = QueryService(fragmentation)
    pairs = [("a1", "a3"), ("q1", "a0")]
    if not leaving_first:
        pairs.reverse()
    answers = {(a.source, a.target): a for a in service.query_batch(pairs)}
    assert answers[("a1", "a3")].value == 9.0
    assert answers[("q1", "a0")].value == 1000.0
    logged = {(e.source, e.target): set(e.fragments) for e in service.query_log.recent()}
    detour = {fragmentation.fragments_of_node(node)[0] for node in ("g", "h")}
    assert logged[("a1", "a3")] >= {0} | detour


def test_the_engine_answers_and_routes_a_path_that_leaves_and_re_enters_its_fragment():
    fragmentation = _leave_and_re_enter_layout()
    engine = DisconnectionSetEngine(fragmentation)
    answer = engine.query("a1", "a3")
    assert answer.value == 9.0  # the chain pipeline's single chain [F] gives 200.0
    assert answer.chain == QueryService(fragmentation).query("a1", "a3").chain
    routed = engine.route("a1", "a3")
    assert (routed.cost, routed.chain) == (9.0, answer.chain)
    assert routed.route == ["a1", "a0", "g", "h", "a4", "a3"]
