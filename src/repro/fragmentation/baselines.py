"""Baseline fragmenters the paper's algorithms are compared against.

The paper's evaluation compares its three algorithms with each other; for the
benchmarks and the ablation study we additionally provide the trivial
fragmentations a parallel database would fall back on without any
graph-awareness:

* :class:`HashFragmenter` — hash-partition the edges over the sites (the
  standard horizontal fragmentation of a parallel DBMS); disconnection sets
  degenerate to almost every node.
* :class:`GroundTruthFragmenter` — use the generator's known clusters
  (available only for synthetic transportation graphs); this is the oracle the
  heuristics are measured against.
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Optional, Sequence, Set

from ..exceptions import FragmenterConfigurationError
from ..graph import DiGraph
from .base import Edge, Fragmentation, fragmentation_from_node_blocks
from .protocols import Fragmenter

Node = Hashable


class HashFragmenter(Fragmenter):
    """Hash-partition the edges over ``fragment_count`` sites.

    Each edge goes to the fragment ``hash((source, target)) mod n``.  This is
    what a relational DBMS does when it knows nothing about the graph
    structure; it produces maximal disconnection sets and serves as the
    worst-case baseline for the disconnection-set metrics.
    """

    name = "hash"

    def __init__(self, fragment_count: int) -> None:
        if fragment_count <= 0:
            raise FragmenterConfigurationError("fragment_count must be positive")
        self.fragment_count = fragment_count

    def fragment(self, graph: DiGraph) -> Fragmentation:
        if graph.edge_count() == 0:
            raise FragmenterConfigurationError("cannot fragment a graph with no edges")
        buckets: List[Set[Edge]] = [set() for _ in range(self.fragment_count)]
        for source, target in graph.edges():
            # repr-based hashing keeps the assignment stable across Python runs
            # (the built-in hash of str is salted per process).
            bucket = hash((repr(source), repr(target))) % self.fragment_count
            buckets[bucket].add((source, target))
        populated = [bucket for bucket in buckets if bucket]
        return Fragmentation(graph, populated, algorithm=self.name)


class GroundTruthFragmenter(Fragmenter):
    """Fragment along the generator's known clusters (oracle baseline).

    Args:
        clusters: the ground-truth node clusters, e.g.
            :attr:`repro.generators.transportation.TransportationGraph.clusters`.
    """

    name = "ground-truth"

    def __init__(self, clusters: Sequence[Iterable[Node]]) -> None:
        if not clusters:
            raise FragmenterConfigurationError("clusters must not be empty")
        self.clusters = [set(cluster) for cluster in clusters]

    def fragment(self, graph: DiGraph) -> Fragmentation:
        if graph.edge_count() == 0:
            raise FragmenterConfigurationError("cannot fragment a graph with no edges")
        covered = set().union(*self.clusters) if self.clusters else set()
        extra = [node for node in graph.nodes() if node not in covered]
        blocks = [set(cluster) for cluster in self.clusters]
        if extra:
            blocks[0] |= set(extra)
        return fragmentation_from_node_blocks(graph, blocks, algorithm=self.name)
