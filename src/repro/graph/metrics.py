"""Structural graph metrics used throughout the fragmentation study.

The paper's workload model (Sec. 2.2) boils the cost of a per-fragment
transitive closure down to two ingredients: the *diameter* of the fragment
(number of semi-naive iterations) and the *number of tuples* (size of the
intermediate results, driven by connectivity).  This module computes those
quantities plus the auxiliary statistics the evaluation tables report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Sequence

from .digraph import DiGraph
from .shortest_path import hop_diameter
from .traversal import weakly_connected_components

Node = Hashable


@dataclass(frozen=True)
class GraphSummary:
    """A compact structural summary of a graph."""

    node_count: int
    edge_count: int
    undirected_edge_count: int
    weak_component_count: int
    diameter: int
    average_degree: float
    density: float

    def as_dict(self) -> Dict[str, float]:
        """Return the summary as a plain dictionary (for reporting)."""
        return {
            "node_count": self.node_count,
            "edge_count": self.edge_count,
            "undirected_edge_count": self.undirected_edge_count,
            "weak_component_count": self.weak_component_count,
            "diameter": self.diameter,
            "average_degree": self.average_degree,
            "density": self.density,
        }


def summarize(graph: DiGraph) -> GraphSummary:
    """Return a :class:`GraphSummary` for ``graph``."""
    n = graph.node_count()
    directed_edges = graph.edge_count()
    undirected_edges = graph.undirected_edge_count()
    components = len(weakly_connected_components(graph))
    diameter = hop_diameter(graph) if n else 0
    average_degree = (2.0 * undirected_edges / n) if n else 0.0
    possible = n * (n - 1)
    density = (directed_edges / possible) if possible else 0.0
    return GraphSummary(
        node_count=n,
        edge_count=directed_edges,
        undirected_edge_count=undirected_edges,
        weak_component_count=components,
        diameter=diameter,
        average_degree=average_degree,
        density=density,
    )


def average_degree(graph: DiGraph) -> float:
    """Return the mean undirected degree (0.0 for an empty graph)."""
    nodes = graph.nodes()
    if not nodes:
        return 0.0
    return sum(graph.undirected_degree(node) for node in nodes) / len(nodes)


def mean(values: Sequence[float]) -> float:
    """Return the arithmetic mean of ``values`` (0.0 when empty)."""
    return sum(values) / len(values) if values else 0.0


def mean_absolute_deviation(values: Sequence[float]) -> float:
    """Return the mean absolute deviation from the mean.

    This is the deviation measure the paper's Tables 1-3 report as ``AF``
    (deviation of fragment sizes) and ``ADS`` (deviation of disconnection set
    sizes): the average distance of each observation from the average.
    """
    if not values:
        return 0.0
    centre = mean(values)
    return sum(abs(value - centre) for value in values) / len(values)


def diameter(graph: DiGraph) -> int:
    """Return the hop diameter of ``graph`` (longest shortest path, in edges)."""
    return hop_diameter(graph)


def clustering_ratio(graph: DiGraph, clusters: List[set]) -> float:
    """Return the fraction of undirected edges that stay inside a cluster.

    Transportation graphs are characterised by a high intra-cluster ratio;
    the generator tests use this to verify the produced structure.
    """
    pairs = graph.to_undirected_pairs()
    if not pairs:
        return 0.0
    membership: Dict[Node, int] = {}
    for index, cluster in enumerate(clusters):
        for node in cluster:
            membership[node] = index
    internal = sum(
        1
        for a, b in pairs
        if a in membership and b in membership and membership[a] == membership[b]
    )
    return internal / len(pairs)
