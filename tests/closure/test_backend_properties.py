"""Property tests: every kernel backend answers every graph identically.

Hypothesis drives adversarial shapes — self-loops, empty graphs, single
nodes, dense cliques, long chains, disconnected components — through the two
dispatched reachability backends and the pinned-only numpy one, and through
the dict fixpoint, for both standard semirings.  Any divergence is a
dispatcher bug by definition: callers never choose a backend, so the backends
must be indistinguishable.
"""

from __future__ import annotations

import random
from typing import List, Tuple
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.closure import (
    BACKEND_BIGINT,
    BACKEND_CHAIN,
    BACKEND_NUMPY,
    bitset_reachable,
    reachability_rows,
    reachability_semiring,
    select_kernel,
    seminaive_transitive_closure,
    shortest_path_semiring,
)
from repro.graph import CompactGraph, DiGraph

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

BACKENDS = (BACKEND_BIGINT, BACKEND_NUMPY, BACKEND_CHAIN)

Edge = Tuple[int, int, float]


def _random_edges(rng: random.Random, n: int, m: int, self_loops: bool) -> List[Edge]:
    edges: List[Edge] = []
    for _ in range(m):
        a, b = rng.randrange(n), rng.randrange(n)
        if not self_loops and a == b:
            continue
        edges.append((a, b, float(rng.randint(1, 9))))
    return edges


@st.composite
def adversarial_graphs(draw) -> Tuple[int, List[Edge]]:
    """Return ``(node_count, edges)`` biased toward kernel corner cases."""
    shape = draw(
        st.sampled_from(
            ["empty", "single", "chain", "clique", "islands", "random", "loops"]
        )
    )
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    if shape == "empty":
        return draw(st.integers(min_value=0, max_value=6)), []
    if shape == "single":
        n = 1
        return n, [(0, 0, 1.0)] if draw(st.booleans()) else []
    if shape == "chain":
        n = draw(st.integers(min_value=2, max_value=70))
        edges = [(i, i + 1, 1.0) for i in range(n - 1)]
        if draw(st.booleans()):
            edges.append((n - 1, 0, 1.0))  # close the chain into one big cycle
        return n, edges
    if shape == "clique":
        n = draw(st.integers(min_value=2, max_value=14))
        return n, [
            (a, b, float(rng.randint(1, 5)))
            for a in range(n)
            for b in range(n)
            if a != b
        ]
    if shape == "islands":
        sizes = draw(
            st.lists(st.integers(min_value=1, max_value=8), min_size=2, max_size=5)
        )
        edges: List[Edge] = []
        base = 0
        for size in sizes:
            members = list(range(base, base + size))
            for a, b in zip(members, members[1:]):
                edges.append((a, b, 1.0))
            if size > 1 and rng.random() < 0.5:
                edges.append((members[-1], members[0], 1.0))
            base += size
        return base, edges
    if shape == "loops":
        n = draw(st.integers(min_value=1, max_value=30))
        edges = _random_edges(rng, n, 2 * n, self_loops=False)
        edges += [(i, i, 1.0) for i in range(n) if rng.random() < 0.4]
        return n, edges
    n = draw(st.integers(min_value=1, max_value=60))
    return n, _random_edges(rng, n, draw(st.integers(min_value=0, max_value=180)), True)


def _compact(n: int, edges: List[Edge]) -> CompactGraph:
    return CompactGraph.from_edges(edges, nodes=range(n))


def _digraph(n: int, edges: List[Edge]) -> DiGraph:
    graph = DiGraph()
    for i in range(n):
        graph.add_node(i)
    for a, b, w in edges:
        graph.add_edge(a, b, w)
    return graph


@SETTINGS
@given(adversarial_graphs())
def test_backends_agree_on_whole_graph_rows(case):
    n, edges = case
    graph = _compact(n, edges)
    ids = list(range(n))
    expected = {i: bitset_reachable(graph, i) for i in ids}
    for backend in BACKENDS:
        rows, _ = reachability_rows(graph, ids, backend=backend)
        assert rows == expected, backend


@SETTINGS
@given(adversarial_graphs(), st.integers(min_value=0, max_value=10_000))
def test_backends_agree_on_source_subsets(case, pick_seed):
    n, edges = case
    if n == 0:
        return
    graph = _compact(n, edges)
    rng = random.Random(pick_seed)
    sources = sorted({rng.randrange(n) for _ in range(min(n, 5))})
    expected = {i: bitset_reachable(graph, i) for i in sources}
    for backend in BACKENDS:
        rows, _ = reachability_rows(graph, sources, backend=backend)
        assert rows == expected, backend


@SETTINGS
@given(adversarial_graphs(), st.sampled_from(BACKENDS))
def test_reachability_closure_matches_dict_fixpoint(case, backend):
    n, edges = case
    digraph = _digraph(n, edges)
    dict_result = seminaive_transitive_closure(
        digraph, semiring=reachability_semiring(), use_compact=False
    )
    with mock.patch(
        "repro.closure.kernels.select_kernel",
        lambda graph, *, override=None: select_kernel(graph, override=backend),
    ):
        compact_result = seminaive_transitive_closure(
            digraph, semiring=reachability_semiring(), use_compact=True
        )
    assert compact_result.values == dict_result.values


@SETTINGS
@given(adversarial_graphs())
def test_shortest_path_closure_matches_dict_fixpoint(case):
    n, edges = case
    digraph = _digraph(n, edges)
    dict_result = seminaive_transitive_closure(
        digraph, semiring=shortest_path_semiring(), use_compact=False
    )
    compact_result = seminaive_transitive_closure(
        digraph, semiring=shortest_path_semiring(), use_compact=True
    )
    assert compact_result.values == dict_result.values
