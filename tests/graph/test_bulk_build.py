"""Bulk ``DiGraph`` derivations and CSR builds against the per-edge loops.

``DiGraph(edges, nodes=, coordinates=)``, ``copy``, ``subgraph`` and
``edge_subgraph`` fill adjacency rows directly, and
``CompactGraph.from_digraph`` reads them directly.  Row order is observable
(``neighbors()`` order feeds the center scores' float sums, CSR order feeds
every kernel), so each is compared with its loop in
``tests/graph_build_oracles.py`` on order, not just content.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import EdgeNotFoundError
from repro.graph import CompactGraph, DiGraph, Point
from tests import graph_build_oracles as oracles

# No bools or floats among the nodes: ``1 == True == 1.0`` would be one node
# with three spellings.
NODE = st.one_of(
    st.integers(min_value=0, max_value=6),
    st.sampled_from(["a", "b", "c", "d"]),
    st.tuples(st.sampled_from(["x", "y"]), st.integers(min_value=0, max_value=2)),
)
WEIGHT = st.one_of(
    st.integers(min_value=1, max_value=9),
    st.floats(min_value=0.5, max_value=9.0, allow_nan=False),
)
POINT = st.one_of(
    st.tuples(st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3)),
    st.builds(Point, st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=-3.0, max_value=3.0)),
)
SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def graphs(draw):
    """A graph grown by an arbitrary interleaving of the per-edge calls.

    Nodes, edges, re-added edges, removed edges and coordinates arrive in any
    order, so predecessor rows are generally *not* in node order, some nodes
    are isolated and only some carry a coordinate.
    """
    pool = draw(st.lists(NODE, min_size=1, max_size=8, unique=True))
    node = st.sampled_from(pool)
    edge = st.tuples(st.just("edge"), node, node, WEIGHT)
    step = st.one_of(
        st.tuples(st.just("node"), node),
        edge,
        edge,  # listed twice: most steps should add an edge
        st.tuples(st.just("unlink"), node, node),
        st.tuples(st.just("point"), node, POINT),
    )
    graph = DiGraph()
    for kind, *args in draw(st.lists(step, max_size=30)):
        if kind == "node":
            graph.add_node(*args)
        elif kind == "edge":
            graph.add_edge(*args)
        elif kind == "point":
            graph.set_coordinate(*args)
        elif graph.has_edge(*args):
            graph.remove_edge(*args)
    return graph


def layout(graph: DiGraph):
    """Everything observable about a graph, order included."""

    def typed(items):
        return [(node, weight, type(weight)) for node, weight in items]

    nodes = graph.nodes()
    return (
        nodes,
        [typed(graph.successor_items(node)) for node in nodes],
        [typed(graph.predecessor_items(node)) for node in nodes],
        list(graph.coordinates().items()),
    )


def assert_shares_no_row(derived: DiGraph, source: DiGraph) -> None:
    """Write into every row of ``derived``; ``source`` must not notice."""
    before = layout(source)
    for node in derived.nodes():
        derived.add_edge(node, "fresh", 7.0)
        derived.add_edge("fresh", node, 7.0)
    derived.set_coordinate("fresh", (9.0, 9.0))
    assert layout(source) == before


@SETTINGS
@given(graphs())
def test_copy_matches_the_per_edge_loop(graph):
    copy = graph.copy()
    assert layout(copy) == layout(oracles.copy_by_edges(graph))
    assert_shares_no_row(copy, graph)


@SETTINGS
@given(graphs(), st.lists(NODE, max_size=10))
def test_subgraph_matches_the_per_edge_loop(graph, keep):
    # ``keep`` mixes nodes of the graph with nodes it never had.
    sub = graph.subgraph(keep)
    assert layout(sub) == layout(oracles.subgraph_by_edges(graph, keep))
    assert_shares_no_row(sub, graph)


@SETTINGS
@given(st.data())
def test_edge_subgraph_matches_the_per_edge_loop(data):
    graph = data.draw(graphs())
    present = graph.edges()
    # Any order, with repeats: node order is first appearance in ``edges``.
    edges = data.draw(st.lists(st.sampled_from(present), max_size=12)) if present else []
    sub = graph.edge_subgraph(edges)
    assert layout(sub) == layout(oracles.edge_subgraph_by_edges(graph, edges))
    assert_shares_no_row(sub, graph)


@SETTINGS
@given(st.data())
def test_edge_subgraph_raises_what_the_per_edge_loop_raises(data):
    graph = data.draw(graphs())
    missing = data.draw(st.tuples(NODE, NODE).filter(lambda pair: not graph.has_edge(*pair)))
    present = graph.edges()
    edges = data.draw(st.lists(st.sampled_from(present), max_size=6)) if present else []
    edges.insert(data.draw(st.integers(min_value=0, max_value=len(edges))), missing)
    with pytest.raises(EdgeNotFoundError) as bulk:
        graph.edge_subgraph(edges)
    with pytest.raises(EdgeNotFoundError) as loop:
        oracles.edge_subgraph_by_edges(graph, edges)
    assert (bulk.value.source, bulk.value.target) == (loop.value.source, loop.value.target)
    assert str(bulk.value) == str(loop.value)


RAW_EDGE = st.one_of(st.tuples(NODE, NODE), st.tuples(NODE, NODE, WEIGHT))


@SETTINGS
@given(
    st.lists(RAW_EDGE, max_size=20),
    st.none() | st.lists(NODE, max_size=8),
    st.none() | st.dictionaries(NODE, POINT, max_size=6),
)
def test_constructor_matches_the_per_edge_loop(edges, nodes, coordinates):
    # Repeated edges (the later weight wins, the first position stays),
    # repeated nodes, default weights, coordinates of otherwise unknown nodes.
    bulk = DiGraph(edges, nodes=nodes, coordinates=coordinates)
    assert layout(bulk) == layout(oracles.build_by_edges(edges, nodes=nodes, coordinates=coordinates))


@pytest.mark.parametrize("edge", [("a",), ("a", "b", 1.0, "extra")])
def test_constructor_rejects_a_malformed_edge_like_the_loop(edge):
    with pytest.raises(ValueError) as bulk:
        DiGraph([("a", "b"), edge])
    with pytest.raises(ValueError) as loop:
        oracles.build_by_edges([("a", "b"), edge])
    assert str(bulk.value) == str(loop.value)


@SETTINGS
@given(graphs())
def test_from_digraph_builds_the_arrays_of_from_edges(graph):
    bulk = CompactGraph.from_digraph(graph)
    loop = CompactGraph.from_edges(graph.weighted_edges(), nodes=graph.nodes())
    assert bulk.nodes() == loop.nodes()
    for built, expected in zip(
        bulk.forward_csr + bulk.backward_csr, loop.forward_csr + loop.backward_csr
    ):
        assert built.typecode == expected.typecode
        assert built == expected
