"""Harness-owned graph source: clustered generator and edge-list files.

The program under test only ever sees what this module produces: a list of
``(source, target, weight)`` arcs and the node clusters the serving layout is
drawn along.  Nothing here imports ``repro``.

Graph names follow ``<ring|chain>-<C>x<P>-<sym|dir>``:

* ``C`` clusters of ``P`` nodes, each cluster a unit square of points on a
  jittered grid (one point per cell, displaced by up to ``JITTER`` of the
  cell) joined to their nearest neighbours (weight = Euclidean distance) —
  3 in ``sym`` graphs, 5 in ``dir`` graphs; stray components of the neighbour
  graph are tied to the cluster's largest component, so every cluster is
  weakly connected.  A jittered grid, not uniform points: with uniform
  points the cost of a query swings by a fifth from seed to seed (where the
  border nodes happen to fall decides how far every Dijkstra runs), which is
  wider than the regression bounds the benchmark has to resolve;
* 2 connecting edges per adjacent cluster pair; ``ring`` closes the cluster
  sequence into a cycle (every query has exactly two fragment chains),
  ``chain`` leaves it open (acyclic fragmentation graph, the paper's loosely
  connected case);
* ``sym`` stores every edge both ways; ``dir`` makes a share of each cluster's
  edges one-way from low x to high x — 50 %, 90 %, 100 % cycling per cluster —
  and stores the rest both ways, so fragment shapes span cyclic, nearly
  acyclic and acyclic.  Connecting edges in ``dir`` always point to the next
  cluster.  (With 3 or 4 neighbours a one-way cluster sits at the directed
  percolation threshold: the share of reachable pairs swings between 2 % and
  38 % from seed to seed.  At 5 it holds near 45 %.)

Neighbour search is grid-bucketed, so generation is O(n * k), and the output
is a pure function of ``(name, seed)``.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, TextIO, Tuple

Arc = Tuple[int, int, float]

NEIGHBOURS = {"sym": 3, "dir": 5}
CONNECTING_EDGES = 2
JITTER = 0.35  # of a grid cell, each way; below 0.5 keeps points in their cells
ONE_WAY_SHARES = (0.5, 0.9, 1.0)

_NAME = re.compile(r"^(ring|chain)-(\d+)x(\d+)-(sym|dir)$")


@dataclass(frozen=True)
class ClusteredGraph:
    """One generated graph.

    Attributes:
        name: the ``<shape>-<C>x<P>-<mode>`` name it was generated from.
        arcs: directed ``(source, target, weight)`` triples, no duplicates.
        clusters: node ids per cluster; cluster ``c`` holds
            ``range(c * P, (c + 1) * P)``.
        connecting: the ``(source, target)`` pairs of the connecting edges
            (one direction each; ``sym`` graphs also store the reverse arc).
        points: node id -> ``(x, y)``.
    """

    name: str
    arcs: Tuple[Arc, ...]
    clusters: Tuple[Tuple[int, ...], ...]
    connecting: Tuple[Tuple[int, int], ...]
    points: Tuple[Tuple[float, float], ...]

    @property
    def node_count(self) -> int:
        return len(self.points)


def parse_name(name: str) -> Tuple[str, int, int, str]:
    """Split a graph name into ``(shape, clusters, nodes_per_cluster, mode)``."""
    match = _NAME.match(name)
    if match is None:
        raise ValueError(
            f"bad graph name {name!r}: expected <ring|chain>-<C>x<P>-<sym|dir>"
        )
    shape, clusters, per_cluster, mode = match.groups()
    if int(clusters) < 2 or int(per_cluster) < 2 * CONNECTING_EDGES + NEIGHBOURS[mode]:
        raise ValueError(f"graph {name!r} is too small to connect its clusters")
    if shape == "ring" and int(clusters) < 3:
        raise ValueError(f"graph {name!r}: a ring needs at least 3 clusters")
    return shape, int(clusters), int(per_cluster), mode


def generate(name: str, seed: int) -> ClusteredGraph:
    """Generate the graph ``name`` from ``seed`` (same inputs, same graph)."""
    shape, cluster_count, per_cluster, mode = parse_name(name)
    rng = random.Random(f"{name}/{seed}")
    centres = _cluster_centres(shape, cluster_count)
    points: List[Tuple[float, float]] = []
    side = math.ceil(math.sqrt(per_cluster))
    for cx, cy in centres:
        for index in range(per_cluster):
            column, row = index % side, index // side
            points.append(
                (
                    cx - 0.5 + (column + 0.5 + rng.uniform(-JITTER, JITTER)) / side,
                    cy - 0.5 + (row + 0.5 + rng.uniform(-JITTER, JITTER)) / side,
                )
            )

    arcs: Dict[Tuple[int, int], float] = {}
    clusters = []
    for cluster in range(cluster_count):
        members = range(cluster * per_cluster, (cluster + 1) * per_cluster)
        clusters.append(tuple(members))
        one_way = ONE_WAY_SHARES[cluster % len(ONE_WAY_SHARES)] if mode == "dir" else 0.0
        for a, b in _cluster_edges(members, points, NEIGHBOURS[mode]):
            weight = math.dist(points[a], points[b])
            if rng.random() < one_way:
                low, high = (a, b) if points[a][0] <= points[b][0] else (b, a)
                arcs[(low, high)] = weight
            else:
                arcs[(a, b)] = weight
                arcs[(b, a)] = weight

    pairs = [(c, c + 1) for c in range(cluster_count - 1)]
    if shape == "ring":
        pairs.append((cluster_count - 1, 0))
    connecting: List[Tuple[int, int]] = []
    used: set = set()
    for left, right in pairs:
        lefts = _nearest_unused(clusters[left], points, centres[right], used)
        rights = _nearest_unused(clusters[right], points, centres[left], used)
        for a, b in zip(lefts, rights):
            weight = math.dist(points[a], points[b])
            arcs[(a, b)] = weight
            if mode == "sym":
                arcs[(b, a)] = weight
            connecting.append((a, b))

    return ClusteredGraph(
        name=name,
        arcs=tuple((a, b, w) for (a, b), w in arcs.items()),
        clusters=tuple(clusters),
        connecting=tuple(connecting),
        points=tuple(points),
    )


def _cluster_centres(shape: str, count: int) -> List[Tuple[float, float]]:
    """Cluster centres two units apart: on a line (chain) or a circle (ring)."""
    if shape == "chain":
        return [(2.0 * c, 0.0) for c in range(count)]
    radius = 1.0 / math.sin(math.pi / count)  # adjacent centres 2 apart
    return [
        (radius * math.cos(2 * math.pi * c / count), radius * math.sin(2 * math.pi * c / count))
        for c in range(count)
    ]


def _nearest_unused(
    members: Sequence[int],
    points: Sequence[Tuple[float, float]],
    towards: Tuple[float, float],
    used: set,
) -> List[int]:
    """The ``CONNECTING_EDGES`` members nearest ``towards`` not yet an endpoint.

    Keeping the endpoints of different cluster pairs distinct keeps every
    disconnection set at exactly ``CONNECTING_EDGES`` nodes.
    """
    ranked = sorted(
        (node for node in members if node not in used),
        key=lambda node: math.dist(points[node], towards),
    )
    chosen = ranked[:CONNECTING_EDGES]
    used.update(chosen)
    return chosen


def _cluster_edges(
    members: range, points: Sequence[Tuple[float, float]], neighbours: int
) -> List[Tuple[int, int]]:
    """Undirected nearest-neighbour edges of one cluster, made connected."""
    cells: Dict[Tuple[int, int], List[int]] = {}
    # About two points per cell: a neighbour search reads a handful of cells.
    cell = math.sqrt(2.0 / len(members))
    for node in members:
        x, y = points[node]
        cells.setdefault((int(x // cell), int(y // cell)), []).append(node)

    edges: Dict[Tuple[int, int], None] = {}
    for node in members:
        for other in _nearest_in_grid(node, points, cells, cell, neighbours):
            edges.setdefault((node, other) if node < other else (other, node), None)

    # Tie stray components to the largest one through their members nearest
    # the cluster's centre of mass.
    parent = {node: node for node in members}

    def find(node: int) -> int:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for a, b in edges:
        parent[find(a)] = find(b)
    components: Dict[int, List[int]] = {}
    for node in members:
        components.setdefault(find(node), []).append(node)
    if len(components) > 1:
        cx = sum(points[node][0] for node in members) / len(members)
        cy = sum(points[node][1] for node in members) / len(members)

        def central(nodes: List[int]) -> int:
            return min(nodes, key=lambda node: math.dist(points[node], (cx, cy)))

        ordered = sorted(components.values(), key=lambda nodes: (-len(nodes), nodes[0]))
        anchor = central(ordered[0])
        for nodes in ordered[1:]:
            stray = central(nodes)
            edges.setdefault((anchor, stray) if anchor < stray else (stray, anchor), None)
    return list(edges)


def _nearest_in_grid(
    node: int,
    points: Sequence[Tuple[float, float]],
    cells: Dict[Tuple[int, int], List[int]],
    cell: float,
    neighbours: int,
) -> List[int]:
    """The ``neighbours`` nearest other nodes, searching outward ring by ring."""
    x, y = points[node]
    home_x, home_y = int(x // cell), int(y // cell)
    found: List[Tuple[float, int]] = []
    ring = 0
    while True:
        for gx in range(home_x - ring, home_x + ring + 1):
            for gy in range(home_y - ring, home_y + ring + 1):
                if max(abs(gx - home_x), abs(gy - home_y)) != ring:
                    continue
                for other in cells.get((gx, gy), ()):
                    if other != node:
                        found.append((math.dist(points[other], (x, y)), other))
        # Anything outside the searched square is at least ``ring * cell`` away.
        if len(found) >= neighbours:
            found.sort()
            if found[neighbours - 1][0] <= ring * cell:
                return [other for _, other in found[:neighbours]]
        ring += 1
        if ring * cell > 4.0:  # past the whole unit-square cluster
            found.sort()
            return [other for _, other in found[:neighbours]]


# ------------------------------------------------------------- edge-list files


def write_edge_list(arcs: Iterable[Arc], stream: TextIO, *, comment: str = "") -> None:
    """Write arcs as tab-separated ``From\\tTo\\tWeight`` lines under ``#`` headers.

    The layout is the one SNAP / krongen emit and the SSC2 exemplar reads, so
    generated graphs and downloaded ones are interchangeable.
    """
    arcs = list(arcs)
    nodes = {node for a, b, _ in arcs for node in (a, b)}
    stream.write(f"# {comment or 'Directed graph'}\n")
    stream.write(f"# Nodes: {len(nodes)} Edges: {len(arcs)}\n")
    stream.write("# FromNodeId\tToNodeId\tWeight\n")
    for a, b, weight in arcs:
        stream.write(f"{a}\t{b}\t{weight!r}\n")


def read_edge_list(stream: TextIO) -> List[Arc]:
    """Read ``From\\tTo[\\tWeight]`` lines; ``#`` lines and blanks are skipped.

    A missing weight reads as 1.0.

    Raises:
        ValueError: on a line that is neither a comment nor 2-3 fields of
            ``int int [float]``.
    """
    arcs: List[Arc] = []
    for number, line in enumerate(stream, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        fields = text.split()
        if len(fields) not in (2, 3):
            raise ValueError(f"line {number}: expected From<TAB>To[<TAB>Weight], got {text!r}")
        try:
            weight = float(fields[2]) if len(fields) == 3 else 1.0
            arcs.append((int(fields[0]), int(fields[1]), weight))
        except ValueError:
            raise ValueError(f"line {number}: not int/int[/float]: {text!r}") from None
    return arcs
