"""The generator is a pure function of (name, seed); the oracle agrees with repro.graph."""

from __future__ import annotations

import io
import random

import pytest

import graphs
import oracle


@pytest.mark.parametrize("name", ["ring-4x30-sym", "chain-4x30-dir"])
def test_generator_is_deterministic_per_seed(name):
    first = graphs.generate(name, 7)
    assert first == graphs.generate(name, 7)
    other = graphs.generate(name, 8)
    assert first.arcs != other.arcs and first.points != other.points


def test_generator_shape():
    graph = graphs.generate("ring-5x40-sym", 3)
    assert graph.node_count == 200
    assert [len(cluster) for cluster in graph.clusters] == [40] * 5
    assert len(graph.connecting) == 5 * graphs.CONNECTING_EDGES
    arcs = {(a, b) for a, b, _ in graph.arcs}
    assert all((b, a) in arcs for a, b in arcs), "sym stores every edge both ways"
    endpoints = [node for pair in graph.connecting for node in pair]
    assert len(set(endpoints)) == len(endpoints), "disconnection sets stay at 2 nodes"
    # every cluster is connected on its own
    reference = oracle.Oracle(
        (a, b, w) for a, b, w in graph.arcs if a // 40 == b // 40
    )
    for cluster in graph.clusters:
        assert reference.reachable(cluster[0]) == set(cluster)


def test_directed_chain_points_forward():
    graph = graphs.generate("chain-4x30-dir", 3)
    assert all(a // 30 + 1 == b // 30 for a, b in graph.connecting)
    arcs = {(a, b) for a, b, _ in graph.arcs}
    assert all((b, a) not in arcs for a, b in graph.connecting)
    # the third cluster of a dir graph is 100 % one-way: low x to high x only
    third = [(a, b) for a, b in arcs if a // 30 == 2 and b // 30 == 2]
    assert all(graph.points[a][0] <= graph.points[b][0] for a, b in third)


@pytest.mark.parametrize("name", ["ring-2x30-sym", "ring-4x3-sym", "grid-4x30-sym", "ring-4x30"])
def test_bad_names_are_refused(name):
    with pytest.raises(ValueError):
        graphs.generate(name, 1)


def test_edge_list_round_trip():
    graph = graphs.generate("chain-3x12-dir", 5)
    stream = io.StringIO()
    graphs.write_edge_list(graph.arcs, stream, comment="round trip")
    text = stream.getvalue()
    assert text.startswith("# round trip\n# Nodes: 36 Edges:")
    assert graphs.read_edge_list(io.StringIO(text)) == list(graph.arcs)


def test_edge_list_reads_snap_files_and_rejects_garbage():
    snap = "# Directed graph\n# FromNodeId\tToNodeId\n0\t9\n0\t40\n\n3\t4\t2.5\n"
    assert graphs.read_edge_list(io.StringIO(snap)) == [(0, 9, 1.0), (0, 40, 1.0), (3, 4, 2.5)]
    for bad in ("0\n", "a\tb\n", "1\t2\t3\t4\n", "1\t2\tx\n"):
        with pytest.raises(ValueError):
            graphs.read_edge_list(io.StringIO(bad))


@pytest.mark.parametrize("name", ["ring-4x30-sym", "chain-4x30-dir"])
def test_oracle_agrees_with_repro_graph(name):
    from repro.graph import DiGraph, bfs_levels, dijkstra

    graph = graphs.generate(name, 4)
    digraph = DiGraph()
    for a, b, w in graph.arcs:
        digraph.add_edge(a, b, w)
    reference = oracle.Oracle(graph.arcs)
    rng = random.Random(1)
    for source in rng.sample(range(graph.node_count), 12):
        distances, _ = dijkstra(digraph, source)
        mine = reference.distances(source)
        assert set(mine) == set(distances)
        assert all(oracle.agrees(oracle.SHORTEST_PATH, distances[n], mine[n]) for n in mine)
        assert reference.reachable(source) == set(bfs_levels(digraph, source))


def test_oracle_mirrors_writes_and_check_log_counts_mismatches():
    arcs = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)]
    log = [
        (("query", 0, 2), 2.0),
        (("write", "reweight", 1, 2, 9.0, False), None),
        (("query", 0, 2), 5.0),
        (("write", "delete", 0, 2, 0.0, False), None),
        (("batch", ((0, 2), (2, 0))), [10.0, None]),
        (("write", "insert", 2, 0, 1.0, True), None),
        (("raw", 2, 1), 2.0),
        (("query", 0, 2), 999.0),  # wrong on purpose
    ]
    assert oracle.check_log(arcs, oracle.SHORTEST_PATH, log, lambda source: True) == (6, 1)
    only_zero = oracle.check_log(arcs, oracle.SHORTEST_PATH, log, lambda source: source == 2)
    assert only_zero == (2, 0)
