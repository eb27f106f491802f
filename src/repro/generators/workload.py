"""Query workload generators.

The paper's performance claims are about *queries*: "Is A connected to B?",
"what is the shortest path from Amsterdam to Milan?".  The speed-up and
query-cost benchmarks therefore need streams of source/destination pairs with
controllable locality (within one fragment vs. across fragments).  These
generators produce such workloads deterministically from a seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Hashable, List, Optional, Sequence, Tuple

from ..exceptions import FragmenterConfigurationError
from ..graph import DiGraph

Node = Hashable


@dataclass(frozen=True)
class PathQuery:
    """A single source/destination query.

    Attributes:
        source: the start node.
        target: the destination node.
        kind: ``"reachability"`` ("is A connected to B?") or
            ``"shortest_path"`` ("what is the cheapest path from A to B?").
    """

    source: Node
    target: Node
    kind: str = "shortest_path"

    def __post_init__(self) -> None:
        if self.kind not in ("reachability", "shortest_path"):
            raise FragmenterConfigurationError(
                f"query kind must be 'reachability' or 'shortest_path', got {self.kind!r}"
            )


def cross_cluster_queries(
    clusters: Sequence[set],
    count: int,
    *,
    seed: int = 0,
    minimum_cluster_distance: int = 1,
) -> List[PathQuery]:
    """Return shortest-path queries whose endpoints lie in different clusters.

    ``minimum_cluster_distance`` is the minimum difference between the cluster
    indices (clusters are assumed to be laid out as a chain, as in the
    transportation generator), so a value of ``len(clusters) - 1`` forces
    end-to-end queries across the whole chain.
    """
    rng = random.Random(seed)
    if len(clusters) < 2:
        raise FragmenterConfigurationError("need at least two clusters for cross-cluster queries")
    queries: List[PathQuery] = []
    while len(queries) < count:
        i, j = rng.randrange(len(clusters)), rng.randrange(len(clusters))
        if abs(i - j) < max(1, minimum_cluster_distance):
            continue
        source = rng.choice(sorted(clusters[i], key=repr))
        target = rng.choice(sorted(clusters[j], key=repr))
        queries.append(PathQuery(source=source, target=target))
    return queries


def intra_cluster_queries(
    clusters: Sequence[set],
    count: int,
    *,
    seed: int = 0,
) -> List[PathQuery]:
    """Return shortest-path queries whose endpoints lie in the same cluster.

    These are the "shortest path between two Dutch cities" queries that the
    disconnection set approach can answer at a single site.
    """
    rng = random.Random(seed)
    queries: List[PathQuery] = []
    eligible = [cluster for cluster in clusters if len(cluster) >= 2]
    if not eligible:
        raise FragmenterConfigurationError("need at least one cluster with two or more nodes")
    while len(queries) < count:
        cluster = sorted(rng.choice(eligible), key=repr)
        source, target = rng.sample(cluster, 2)
        queries.append(PathQuery(source=source, target=target))
    return queries


def mixed_workload(
    graph: DiGraph,
    clusters: Sequence[set],
    count: int,
    *,
    cross_fraction: float = 0.5,
    seed: int = 0,
) -> List[PathQuery]:
    """Return a shortest-path workload mixing intra- and cross-cluster queries.

    Args:
        graph: the graph being queried (used only for validation).
        clusters: the ground-truth or discovered clusters.
        count: total number of queries.
        cross_fraction: fraction of queries that cross clusters.
        seed: RNG seed.
    """
    if not 0.0 <= cross_fraction <= 1.0:
        raise FragmenterConfigurationError("cross_fraction must be between 0 and 1")
    cross_count = int(round(count * cross_fraction))
    intra_count = count - cross_count
    queries: List[PathQuery] = []
    if cross_count:
        queries.extend(cross_cluster_queries(clusters, cross_count, seed=seed))
    if intra_count:
        queries.extend(intra_cluster_queries(clusters, intra_count, seed=seed + 1))
    rng = random.Random(seed + 2)
    rng.shuffle(queries)
    return queries
