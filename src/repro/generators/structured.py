"""Deterministic structured graphs used in tests, examples and ablations.

These small generators produce graphs whose transitive closures and shortest
paths are known in closed form, which makes them the backbone of the unit and
property-based tests: chains (worst-case diameter), cycles, grids (the shape
of many transportation networks), stars, complete graphs and layered DAGs.
"""

from __future__ import annotations

from typing import Tuple

from ..exceptions import FragmenterConfigurationError
from ..graph import DiGraph, Point

Node = int


def chain_graph(length: int, *, symmetric: bool = True) -> DiGraph:
    """Return a path ``0 - 1 - ... - length-1`` with unit weights and coordinates along the x-axis.

    Raises:
        FragmenterConfigurationError: if ``length`` is not positive.
    """
    if length <= 0:
        raise FragmenterConfigurationError("length must be positive")
    graph = DiGraph()
    for node in range(length):
        graph.set_coordinate(node, Point(float(node), 0.0))
    for node in range(length - 1):
        if symmetric:
            graph.add_symmetric_edge(node, node + 1)
        else:
            graph.add_edge(node, node + 1)
    return graph


def cycle_graph(length: int, *, symmetric: bool = True) -> DiGraph:
    """Return a cycle of ``length`` nodes with unit weights laid out on a circle."""
    import math

    if length < 3:
        raise FragmenterConfigurationError("a cycle needs at least 3 nodes")
    graph = DiGraph()
    for node in range(length):
        angle = 2.0 * math.pi * node / length
        graph.set_coordinate(node, Point(math.cos(angle) * length, math.sin(angle) * length))
    for node in range(length):
        successor = (node + 1) % length
        if symmetric:
            graph.add_symmetric_edge(node, successor)
        else:
            graph.add_edge(node, successor)
    return graph


def grid_graph(rows: int, columns: int) -> DiGraph:
    """Return a ``rows x columns`` grid with unit edge weights and planar coordinates.

    Node ``r * columns + c`` sits at ``(c, r)``: the grid spacing is 1.
    """
    if rows <= 0 or columns <= 0:
        raise FragmenterConfigurationError("rows and columns must be positive")
    graph = DiGraph()

    def node_id(r: int, c: int) -> Node:
        return r * columns + c

    for r in range(rows):
        for c in range(columns):
            graph.set_coordinate(node_id(r, c), Point(float(c), float(r)))
    for r in range(rows):
        for c in range(columns):
            if c + 1 < columns:
                graph.add_symmetric_edge(node_id(r, c), node_id(r, c + 1))
            if r + 1 < rows:
                graph.add_symmetric_edge(node_id(r, c), node_id(r + 1, c))
    return graph


def star_graph(leaves: int) -> DiGraph:
    """Return a star: node 0 in the middle connected to ``leaves`` outer nodes."""
    import math

    if leaves <= 0:
        raise FragmenterConfigurationError("leaves must be positive")
    graph = DiGraph()
    graph.set_coordinate(0, Point(0.0, 0.0))
    for leaf in range(1, leaves + 1):
        angle = 2.0 * math.pi * leaf / leaves
        graph.set_coordinate(leaf, Point(math.cos(angle), math.sin(angle)))
        graph.add_symmetric_edge(0, leaf)
    return graph


def complete_graph(node_count: int) -> DiGraph:
    """Return the complete graph on ``node_count`` nodes (all pairs adjacent)."""
    import math

    if node_count <= 0:
        raise FragmenterConfigurationError("node_count must be positive")
    graph = DiGraph()
    for node in range(node_count):
        angle = 2.0 * math.pi * node / max(node_count, 1)
        graph.set_coordinate(node, Point(math.cos(angle), math.sin(angle)))
    for a in range(node_count):
        for b in range(a + 1, node_count):
            graph.add_symmetric_edge(a, b)
    return graph


def layered_dag(layers: int, width: int) -> DiGraph:
    """Return a layered DAG of unit weights: layer ``i`` points to every node of layer ``i+1``.

    Layered DAGs model bill-of-material style part hierarchies, one of the
    motivating applications for transitive closure in the paper's
    introduction.
    """
    if layers <= 0 or width <= 0:
        raise FragmenterConfigurationError("layers and width must be positive")
    graph = DiGraph()

    def node_id(layer: int, slot: int) -> Node:
        return layer * width + slot

    for layer in range(layers):
        for slot in range(width):
            graph.set_coordinate(node_id(layer, slot), Point(float(layer), float(slot)))
    for layer in range(layers - 1):
        for a in range(width):
            for b in range(width):
                graph.add_edge(node_id(layer, a), node_id(layer + 1, b))
    return graph


def two_cluster_dumbbell(
    cluster_size: int,
    *,
    bridge_nodes: int = 1,
) -> DiGraph:
    """Return two cliques joined by ``bridge_nodes`` parallel bridges.

    This is the smallest interesting input for fragmentation algorithms: the
    ideal fragmentation puts one clique in each fragment with the bridge
    endpoints in the disconnection set.
    """
    if cluster_size <= 1:
        raise FragmenterConfigurationError("cluster_size must be at least 2")
    if bridge_nodes <= 0 or bridge_nodes > cluster_size:
        raise FragmenterConfigurationError("bridge_nodes must be between 1 and cluster_size")
    graph = DiGraph()
    left = list(range(cluster_size))
    right = list(range(cluster_size, 2 * cluster_size))
    for index, node in enumerate(left):
        graph.set_coordinate(node, Point(float(index % 3), float(index // 3)))
    for index, node in enumerate(right):
        graph.set_coordinate(node, Point(10.0 + float(index % 3), float(index // 3)))
    for cluster in (left, right):
        for i, a in enumerate(cluster):
            for b in cluster[i + 1:]:
                graph.add_symmetric_edge(a, b)
    for offset in range(bridge_nodes):
        graph.add_symmetric_edge(left[offset], right[offset])
    return graph


def european_railway_example() -> Tuple[DiGraph, dict]:
    """Return the small Europe-like railway network used in the examples.

    The graph has three "countries" (Holland, Germany, Italy) whose cities
    form dense regional networks, connected by a few border crossings — a
    hand-built instance of the Amsterdam-to-Milan scenario in Sec. 2.1 of the
    paper.  Returns the graph and a mapping from country name to its city
    list.
    """
    countries = {
        "holland": ["amsterdam", "utrecht", "rotterdam", "eindhoven", "arnhem", "enschede"],
        "germany": ["duisburg", "cologne", "frankfurt", "stuttgart", "munich", "mannheim"],
        "italy": ["bolzano", "verona", "milan", "venice", "bologna", "florence"],
    }
    coordinates = {
        "amsterdam": (4.9, 52.4), "utrecht": (5.1, 52.1), "rotterdam": (4.5, 51.9),
        "eindhoven": (5.5, 51.4), "arnhem": (5.9, 52.0), "enschede": (6.9, 52.2),
        "duisburg": (6.8, 51.4), "cologne": (7.0, 50.9), "frankfurt": (8.7, 50.1),
        "mannheim": (8.5, 49.5), "stuttgart": (9.2, 48.8), "munich": (11.6, 48.1),
        "bolzano": (11.3, 46.5), "verona": (11.0, 45.4), "milan": (9.2, 45.5),
        "venice": (12.3, 45.4), "bologna": (11.3, 44.5), "florence": (11.3, 43.8),
    }
    # Regional connections (weights are rough rail distances in tens of km).
    regional = [
        ("amsterdam", "utrecht", 4), ("utrecht", "rotterdam", 6), ("utrecht", "arnhem", 6),
        ("utrecht", "eindhoven", 9), ("rotterdam", "eindhoven", 11), ("arnhem", "enschede", 9),
        ("eindhoven", "arnhem", 7), ("amsterdam", "rotterdam", 7),
        ("duisburg", "cologne", 6), ("cologne", "frankfurt", 19), ("frankfurt", "mannheim", 8),
        ("mannheim", "stuttgart", 12), ("stuttgart", "munich", 22), ("frankfurt", "stuttgart", 20),
        ("cologne", "mannheim", 24), ("duisburg", "frankfurt", 22),
        ("bolzano", "verona", 15), ("verona", "milan", 16), ("verona", "venice", 12),
        ("verona", "bologna", 14), ("bologna", "florence", 10), ("bologna", "venice", 15),
        ("milan", "bologna", 21), ("milan", "venice", 27),
    ]
    # Border crossings (few, as the disconnection set approach assumes).
    crossings = [
        ("arnhem", "duisburg", 7), ("enschede", "duisburg", 9), ("eindhoven", "cologne", 12),
        ("munich", "bolzano", 28), ("stuttgart", "bolzano", 40),
    ]
    graph = DiGraph()
    for city, (x, y) in coordinates.items():
        graph.set_coordinate(city, Point(x * 10.0, y * 10.0))
    for a, b, distance in regional + crossings:
        graph.add_symmetric_edge(a, b, float(distance))
    return graph, countries
