"""Property-based integration tests: the disconnection set approach is lossless.

For every randomly generated clustered graph, every fragmentation produced by
the paper's algorithms, and every source/destination pair drawn, the engine's
answer must equal the centralised Dijkstra answer — the "correct and precise"
requirement of Sec. 2.1.  On cyclic grid layouts an answer may instead be
flagged (``PlanTruncatedError``) when more chains connect the endpoints than
the planner enumerates; it is never a plain wrong value.

Every drawn pair is asked of all four callers of the query core — the
engine, ``QueryService.query``, ``QueryService.query_batch`` and, for
shortest paths, the hierarchical engine — and they must agree on value,
chain and error.  The hierarchical engine plans a pair whose fragments are not adjacent over its
backbone instead: three fragments whatever the layout, so it answers (the
oracle's value) where the chain planner flags a cut plan.  A shortest-path
pair is also asked of ``engine.route``: the same cost, chain and error as
``query``, and a walk over base-graph edges that adds up to that cost.
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


def assert_callers_agree(outcomes, backbone, expected):
    """The engine's answer is every caller's; a backbone answer is the oracle's.

    ``expected`` is the whole-graph value (``None``: no path).
    """
    value, chain, error = outcomes["engine"]
    message = None if error is None else str(error)
    assert outcomes["service.query"][:2] == (value, chain)
    assert type(outcomes["service.query"][2]) is type(error)
    assert outcomes["service.query_batch"] == (value, chain, message)
    if "hierarchical" not in outcomes:
        return
    hierarchical_value, hierarchical_chain, hierarchical_error = outcomes["hierarchical"]
    if not backbone:
        assert (hierarchical_value, hierarchical_chain) == (value, chain)
        assert type(hierarchical_error) is type(error)
        return
    assert hierarchical_error is None
    if expected is None:
        assert hierarchical_value is None
    else:
        assert hierarchical_value == pytest.approx(expected)
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
        assert_callers_agree(outcomes, backbone, expected)
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
        assert_callers_agree(outcomes, backbone, semiring.one if expected else None)


@st.composite
def grid_cases(draw):
    side = draw(st.sampled_from([3, 4]))
    fragmentation, _ = grid_layout(side, side, seed=draw(st.integers(0, 50)))
    nodes = sorted(fragmentation.graph.nodes())
    source = draw(st.sampled_from(nodes))
    target = draw(st.sampled_from(nodes))
    return side, fragmentation, source, target


class TestCyclicGridLayouts:
    """3 x 3 blocks stay under the chain cap; 4 x 4 blocks go over it."""

    @SETTINGS
    @given(case=grid_cases())
    def test_shortest_paths_are_exact_or_flagged(self, case):
        side, fragmentation, source, target = case
        expected = shortest_path_length(fragmentation.graph, source, target)
        outcomes, backbone = ask_every_caller(fragmentation, source, target)
        value, _, error = outcomes["engine"]
        if error is not None:
            assert isinstance(error, PlanTruncatedError)
            assert side == 4, "a 3 x 3 grid has at most 12 chains a query"
            assert (error.source, error.target, error.max_chains) == (source, target, 32)
        else:
            assert value == expected
        assert_callers_agree(outcomes, backbone, expected)
        assert_route_is_the_query_answer(outcomes, fragmentation.graph, source, target)

    @SETTINGS
    @given(case=grid_cases())
    def test_reachability_is_true_or_flagged_never_false(self, case):
        side, fragmentation, source, target = case
        semiring = reachability_semiring()
        engine = DisconnectionSetEngine(fragmentation, semiring=semiring)
        try:
            assert engine.is_connected(source, target)  # the grid is connected
        except PlanTruncatedError:
            assert side == 4
        outcomes, backbone = ask_every_caller(fragmentation, source, target, semiring)
        assert_callers_agree(outcomes, backbone, semiring.one)


def _leave_and_re_enter_layout() -> Fragmentation:
    """Fragment F is the path a0-a1-a2-a3-a4 (weights 1, 100, 100, 1); G, K, H detour a0 to a4.

    DS(F, G) = {a0} and DS(F, H) = {a4}: the cheap way from a1 to a3 leaves F
    through one disconnection set and re-enters through the other.
    """
    graph = DiGraph()
    path = [("a0", "a1", 1.0), ("a1", "a2", 100.0), ("a2", "a3", 100.0), ("a3", "a4", 1.0)]
    detour = [("a0", "g", 2.0), ("g", "h", 3.0), ("h", "a4", 2.0)]
    for a, b, weight in path + detour:
        graph.add_symmetric_edge(a, b, weight)
    fragment_f = {edge for a, b, _ in path for edge in ((a, b), (b, a))}
    return Fragmentation(graph, [fragment_f] + [{(a, b), (b, a)} for a, b, _ in detour])


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: a same-fragment plan is the single chain [F], and F's shortcuts "
    "only join border nodes of one disconnection set; the border graph fixes this",
)
def test_a_path_that_leaves_and_re_enters_its_fragment():
    fragmentation = _leave_and_re_enter_layout()
    assert shortest_path_length(fragmentation.graph, "a1", "a3") == 9.0
    engine_value = DisconnectionSetEngine(fragmentation).query("a1", "a3").value
    service_value = QueryService(fragmentation).query("a1", "a3").value
    assert (engine_value, service_value) == (9.0, 9.0)  # both answer 200.0 today
