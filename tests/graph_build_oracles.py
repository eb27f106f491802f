"""The per-edge ``DiGraph`` building loops, kept as reference implementations.

These are the loops the constructor and the whole-graph derivations ran
before they filled adjacency rows in bulk: one ``add_node`` / ``add_edge`` /
``set_coordinate`` call per item.  They define node order, successor and
predecessor row order, weights, coordinates and exceptions; the production
code must reproduce them exactly.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Optional, Tuple

from repro.graph import DiGraph, Point

Node = Hashable
Edge = Tuple[Node, Node]


def build_by_edges(
    edges: Optional[Iterable[tuple]] = None,
    *,
    nodes: Optional[Iterable[Node]] = None,
    coordinates: Optional[Mapping[Node, Point | Tuple[float, float]]] = None,
) -> DiGraph:
    """``DiGraph(edges, nodes=, coordinates=)`` one call per item."""
    graph = DiGraph()
    if nodes is not None:
        for node in nodes:
            graph.add_node(node)
    if edges is not None:
        for edge in edges:
            if len(edge) == 3:
                source, target, weight = edge
                graph.add_edge(source, target, weight)
            else:
                source, target = edge
                graph.add_edge(source, target)
    if coordinates is not None:
        for node, point in coordinates.items():
            graph.set_coordinate(node, point)
    return graph


def copy_by_edges(graph: DiGraph) -> DiGraph:
    clone = DiGraph()
    for node in graph.nodes():
        clone.add_node(node)
    for source, target, weight in graph.weighted_edges():
        clone.add_edge(source, target, weight)
    for node, point in graph.coordinates().items():
        clone.set_coordinate(node, point)
    return clone


def subgraph_by_edges(graph: DiGraph, nodes: Iterable[Node]) -> DiGraph:
    keep = set(nodes)
    sub = DiGraph()
    for node in graph.nodes():
        if node in keep:
            sub.add_node(node)
            point = graph.coordinate(node)
            if point is not None:
                sub.set_coordinate(node, point)
    for source, target, weight in graph.weighted_edges():
        if source in keep and target in keep:
            sub.add_edge(source, target, weight)
    return sub


def edge_subgraph_by_edges(graph: DiGraph, edges: Iterable[Edge]) -> DiGraph:
    sub = DiGraph()
    for source, target in edges:
        sub.add_edge(source, target, graph.edge_weight(source, target))
    for node in sub.nodes():
        point = graph.coordinate(node)
        if point is not None:
            sub.set_coordinate(node, point)
    return sub
