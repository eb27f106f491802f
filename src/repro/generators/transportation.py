"""Transportation graph generation (Fig. 3 of the paper).

A *transportation graph* consists of a number of clusters, each highly
connected internally, with only a few edges between clusters — think regional
railway networks joined by a handful of intercity lines, or dense local
telephone networks joined by a few optic fibres.  Section 4.1 generates these
by first generating each cluster with the distance-biased random process and
then wiring the clusters together with a user-specified number of
inter-cluster edges.

The generator records the ground-truth cluster of every node so experiments
can compare discovered fragmentations against the intended structure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..exceptions import FragmenterConfigurationError
from ..graph import DiGraph, Point
from .random_graph import RandomGraphConfig, generate_coordinates, graph_from_coordinates

Node = int


@dataclass(frozen=True)
class TransportationGraphConfig:
    """Parameters for the transportation-graph generator.

    Attributes:
        cluster_count: number of clusters (the paper's tables use 4).
        nodes_per_cluster: nodes in each cluster (25 in Table 1, 150 in Table 2).
        cluster_c1, cluster_c2: the random-graph parameters used inside each
            cluster.
        cluster_extent: side length of the square each cluster occupies.
        cluster_spacing: distance between the origins of adjacent cluster
            regions; keeping it larger than ``cluster_extent`` makes clusters
            geometrically separated, as in Fig. 3.
        inter_cluster_edges: number of connecting edges per pair of adjacent
            clusters (the paper reports an average of 2.25 connecting edges).
        topology: which cluster pairs are connected.  ``"chain"`` connects
            cluster ``i`` to ``i+1`` (the shape of Fig. 1/Fig. 3);
            ``"cycle"`` additionally closes the loop; ``"complete"`` connects
            every pair.

    Edge weights are Euclidean distances, inside a cluster and between
    clusters.
    """

    cluster_count: int = 4
    nodes_per_cluster: int = 25
    cluster_c1: float = 800.0
    cluster_c2: float = 0.03
    cluster_extent: float = 100.0
    cluster_spacing: float = 150.0
    inter_cluster_edges: int = 2
    topology: str = "chain"

    def __post_init__(self) -> None:
        if self.cluster_count <= 0:
            raise FragmenterConfigurationError("cluster_count must be positive")
        if self.nodes_per_cluster <= 0:
            raise FragmenterConfigurationError("nodes_per_cluster must be positive")
        if self.inter_cluster_edges <= 0:
            raise FragmenterConfigurationError("inter_cluster_edges must be positive")
        if self.topology not in ("chain", "cycle", "complete"):
            raise FragmenterConfigurationError(
                f"topology must be 'chain', 'cycle' or 'complete', got {self.topology!r}"
            )


@dataclass
class TransportationGraph:
    """A generated transportation graph together with its ground truth."""

    graph: DiGraph
    clusters: List[Set[Node]]
    inter_cluster_pairs: List[Tuple[Node, Node]] = field(default_factory=list)

    def border_nodes(self) -> Set[Node]:
        """Return the nodes incident to an inter-cluster edge."""
        border: Set[Node] = set()
        for a, b in self.inter_cluster_pairs:
            border.add(a)
            border.add(b)
        return border


def _cluster_origin(config: TransportationGraphConfig, index: int) -> Tuple[float, float]:
    """Place cluster regions on a two-row grid, as in the paper's Fig. 3.

    Clusters 0, 2, 4, ... occupy the bottom row and 1, 3, 5, ... the top row,
    so the overall shape is a compact two-dimensional arrangement rather than
    a thin left-to-right chain.  (A purely linear layout would make the
    coordinate-sweep fragmenter trivially optimal, which is not the situation
    the paper evaluates.)
    """
    column = index // 2
    row = index % 2
    return (column * config.cluster_spacing, row * config.cluster_spacing)


def _connected_cluster_pairs(config: TransportationGraphConfig) -> List[Tuple[int, int]]:
    pairs: List[Tuple[int, int]] = []
    if config.topology in ("chain", "cycle"):
        pairs = [(i, i + 1) for i in range(config.cluster_count - 1)]
        if config.topology == "cycle" and config.cluster_count > 2:
            pairs.append((config.cluster_count - 1, 0))
    else:  # complete
        pairs = [
            (i, j)
            for i in range(config.cluster_count)
            for j in range(i + 1, config.cluster_count)
        ]
    return pairs


def generate_transportation_graph(
    config: TransportationGraphConfig,
    *,
    seed: int = 0,
) -> TransportationGraph:
    """Generate a transportation graph according to ``config`` (deterministic per seed)."""
    rng = random.Random(seed)
    graph = DiGraph()
    clusters: List[Set[Node]] = []
    coordinates_by_cluster: List[Dict[Node, Point]] = []

    cluster_config = RandomGraphConfig(
        node_count=config.nodes_per_cluster,
        c1=config.cluster_c1,
        c2=config.cluster_c2,
        extent=config.cluster_extent,
        symmetric=True,
        connect=True,
    )

    for index in range(config.cluster_count):
        offset = _cluster_origin(config, index)
        node_offset = index * config.nodes_per_cluster
        coordinates = generate_coordinates(
            config.nodes_per_cluster,
            rng,
            extent=config.cluster_extent,
            offset=offset,
            node_offset=node_offset,
        )
        cluster_graph = graph_from_coordinates(cluster_config, coordinates, rng)
        for node, point in cluster_graph.coordinates().items():
            graph.set_coordinate(node, point)
        for source, target, weight in cluster_graph.weighted_edges():
            graph.add_edge(source, target, weight)
        clusters.append(set(coordinates))
        coordinates_by_cluster.append(coordinates)

    inter_cluster_pairs: List[Tuple[Node, Node]] = []
    for i, j in _connected_cluster_pairs(config):
        pairs = _closest_cross_pairs(
            coordinates_by_cluster[i], coordinates_by_cluster[j], config.inter_cluster_edges, rng
        )
        for a, b in pairs:
            weight = graph.coordinate(a).distance_to(graph.coordinate(b))  # type: ignore[union-attr]
            graph.add_symmetric_edge(a, b, weight)
            inter_cluster_pairs.append((a, b))

    return TransportationGraph(graph=graph, clusters=clusters, inter_cluster_pairs=inter_cluster_pairs)


def _closest_cross_pairs(
    left: Dict[Node, Point],
    right: Dict[Node, Point],
    count: int,
    rng: random.Random,
) -> List[Tuple[Node, Node]]:
    """Pick ``count`` connecting pairs between two clusters.

    Real transportation networks connect clusters through geographically close
    border points; we therefore rank all cross pairs by distance and sample the
    requested number from the closest candidates, with a little randomness so
    different seeds give different borders.
    """
    candidates: List[Tuple[float, Node, Node]] = [
        (left[a].distance_to(right[b]), a, b) for a in left for b in right
    ]
    candidates.sort(key=lambda item: item[0])
    pool_size = max(count, min(len(candidates), count * 3))
    pool = candidates[:pool_size]
    rng.shuffle(pool)
    chosen = pool[:count]
    return [(a, b) for _, a, b in chosen]


def paper_table1_config() -> TransportationGraphConfig:
    """Configuration approximating the Table 1 workload.

    Table 1 uses transportation graphs of 4 clusters with 25 nodes each, an
    average of 429 (undirected) edges in total and about 2.25 inter-cluster
    edges.  429 total edges over 4 clusters means roughly 105 intra-cluster
    edges per 25-node cluster, i.e. very dense clusters; ``cluster_c1`` below
    is calibrated to that density.
    """
    return TransportationGraphConfig(
        cluster_count=4,
        nodes_per_cluster=25,
        cluster_c1=700.0,
        cluster_c2=0.025,
        cluster_extent=100.0,
        cluster_spacing=150.0,
        inter_cluster_edges=2,
        topology="chain",
    )


def paper_table2_config() -> TransportationGraphConfig:
    """Configuration approximating the Table 2 workload.

    Table 2 uses 4 clusters of 150 nodes and 3167 edges in total, i.e. about
    790 intra-cluster edges per 150-node cluster.
    """
    return TransportationGraphConfig(
        cluster_count=4,
        nodes_per_cluster=150,
        cluster_c1=4950.0,
        cluster_c2=0.025,
        cluster_extent=100.0,
        cluster_spacing=150.0,
        inter_cluster_edges=2,
        topology="chain",
    )
