"""Random graph generation with the paper's distance-biased probability.

Section 4.1 of the paper generates test graphs as follows: nodes receive
coordinates evenly spread over an interval, and an edge between nodes ``p``
and ``q`` is created with probability::

    P(p, q) = (c1 / n^2) * exp(-c2 * d(p, q))

where ``d`` is the Euclidean distance, ``c1`` controls the expected number of
edges (connectivity) and ``c2`` how strongly long edges are suppressed.  The
general-graph experiments of Table 3 use exactly this generator with a single
cluster of 100 nodes; the transportation-graph generator builds on it
per cluster.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..exceptions import FragmenterConfigurationError
from ..graph import DiGraph, Point

Node = int


@dataclass(frozen=True)
class RandomGraphConfig:
    """Parameters of the distance-biased random graph generator.

    Attributes:
        node_count: number of nodes ``n``.
        c1: connectivity parameter; the expected number of undirected edges is
            roughly ``c1 / 2`` when ``c2`` is small (each of the ~``n^2/2``
            pairs is accepted with probability about ``c1/n^2``).
        c2: locality parameter; larger values suppress long edges more.
        extent: side length of the square the coordinates are spread over.
        symmetric: create both directions of each generated adjacency, the
            natural reading of an undirected transportation network.
        connect: when ``True``, extra shortest-available edges are added so
            the generated graph is weakly connected (the paper's test graphs
            are connected networks).

    Edge weights are the Euclidean distance between the endpoints.
    """

    node_count: int
    c1: float
    c2: float
    extent: float = 100.0
    symmetric: bool = True
    connect: bool = True

    def __post_init__(self) -> None:
        if self.node_count <= 0:
            raise FragmenterConfigurationError("node_count must be positive")
        if self.c1 <= 0:
            raise FragmenterConfigurationError("c1 must be positive")
        if self.c2 < 0:
            raise FragmenterConfigurationError("c2 must be non-negative")
        if self.extent <= 0:
            raise FragmenterConfigurationError("extent must be positive")


def edge_probability(config: RandomGraphConfig, distance: float) -> float:
    """Return ``P(p, q)`` for a pair at Euclidean ``distance``, capped at 1.0."""
    raw = (config.c1 / float(config.node_count) ** 2) * math.exp(-config.c2 * distance)
    return min(1.0, raw)


def generate_coordinates(
    node_count: int,
    rng: random.Random,
    *,
    extent: float = 100.0,
    offset: Tuple[float, float] = (0.0, 0.0),
    node_offset: int = 0,
) -> Dict[Node, Point]:
    """Return evenly spread random coordinates for ``node_count`` nodes.

    Nodes are numbered ``node_offset .. node_offset + node_count - 1`` so that
    several clusters generated independently do not collide.
    """
    return {
        node_offset + index: Point(
            offset[0] + rng.uniform(0.0, extent),
            offset[1] + rng.uniform(0.0, extent),
        )
        for index in range(node_count)
    }


def generate_random_graph(config: RandomGraphConfig, *, seed: int = 0) -> DiGraph:
    """Generate a random graph according to ``config``.

    The generator is fully deterministic given ``seed``.
    """
    rng = random.Random(seed)
    coordinates = generate_coordinates(config.node_count, rng, extent=config.extent)
    return graph_from_coordinates(config, coordinates, rng)


def graph_from_coordinates(
    config: RandomGraphConfig,
    coordinates: Dict[Node, Point],
    rng: random.Random,
) -> DiGraph:
    """Generate the edges of a random graph over pre-assigned coordinates.

    Exposed separately so the transportation-graph generator can place each
    cluster in its own region of the plane and still use the same edge
    process.
    """
    graph = DiGraph(coordinates=coordinates)
    nodes: List[Node] = sorted(coordinates)
    for i, p in enumerate(nodes):
        for q in nodes[i + 1:]:
            distance = coordinates[p].distance_to(coordinates[q])
            if rng.random() < edge_probability(config, distance):
                if config.symmetric:
                    graph.add_symmetric_edge(p, q, distance)
                else:
                    graph.add_edge(p, q, distance)
    if config.connect:
        _connect_components(graph, config)
    return graph


def _connect_components(graph: DiGraph, config: RandomGraphConfig) -> None:
    """Add the shortest available inter-component edges until the graph is connected."""
    from ..graph import weakly_connected_components

    components = weakly_connected_components(graph)
    while len(components) > 1:
        coordinates = graph.coordinates()
        best: Optional[Tuple[float, Node, Node]] = None
        anchor = components[0]
        for other in components[1:]:
            for a in anchor:
                for b in other:
                    distance = coordinates[a].distance_to(coordinates[b])
                    if best is None or distance < best[0]:
                        best = (distance, a, b)
        if best is None:
            break
        distance, a, b = best
        if config.symmetric:
            graph.add_symmetric_edge(a, b, distance)
        else:
            graph.add_edge(a, b, distance)
        components = weakly_connected_components(graph)
