"""Center scores: the weighted neighbourhood formula of Sec. 3.1.

The center-based fragmentation algorithm selects "centers" — gravity points of
the graph, "very much like spiders in a web" — using a variation of Hoede's
status score.  For a node ``i`` the score is::

    score(i) = grade(i) + a * sum_j nb(j, 1) + a^2 * sum_j nb(j, 2) + a^3 * sum_j nb(j, 3)

where ``grade(i)`` is the number of edges adjacent to ``i``, ``nb(j, d)`` is
the grade of node ``j`` at exactly ``d`` edges from ``i``, and ``a < 1`` is an
attenuation factor.  The paper truncates the sum at distance 3.  Both are
module constants: ``a`` = :data:`DEFAULT_ATTENUATION` (0.5) and the radius
:data:`DEFAULT_RADIUS` (3).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Hashable, List, Sequence

from .digraph import DiGraph

Node = Hashable

DEFAULT_ATTENUATION = 0.5
DEFAULT_RADIUS = 3


# ``[a^0 .. a^radius]``, the weight of each ring of neighbours.
_RING_WEIGHTS = [DEFAULT_ATTENUATION ** distance for distance in range(DEFAULT_RADIUS + 1)]


def _ball_score(
    node: Node,
    neighbours: Callable[[Node], Sequence[Node]],
    weights: Sequence[float],
) -> float:
    """Score ``node`` from a breadth-first search that stops after ``len(weights) - 1`` rings.

    Nodes are visited in plain BFS discovery order and the terms are added in
    that order, so the float sum is the one a whole-graph BFS followed by a
    distance filter produces — only the work beyond the ball is skipped.
    """
    score = float(len(neighbours(node)))
    levels: Dict[Node, int] = {node: 0}
    queue: deque = deque([node])
    while queue:
        current = queue.popleft()
        distance = levels[current] + 1
        if distance >= len(weights):
            break
        weight = weights[distance]
        for other in neighbours(current):
            if other not in levels:
                levels[other] = distance
                score += weight * len(neighbours(other))
                queue.append(other)
    return score


def status_scores(graph: DiGraph) -> Dict[Node, float]:
    """Return the center score of every node in the graph.

    Every node's neighbour list (and with it its grade) is read once, so the
    cost is the summed size of the radius-:data:`DEFAULT_RADIUS` balls, not
    ``n`` whole graph traversals.
    """
    neighbours = {node: graph.neighbors(node) for node in graph.nodes()}
    return {node: _ball_score(node, neighbours.__getitem__, _RING_WEIGHTS) for node in neighbours}


def rank_by_status(graph: DiGraph) -> List[Node]:
    """Return all nodes ordered by decreasing center score.

    Ties are broken deterministically by node ``repr`` so that repeated runs
    on the same graph return the same ranking.
    """
    scores = status_scores(graph)
    return sorted(scores, key=lambda node: (-scores[node], repr(node)))


def top_candidates(
    graph: DiGraph,
    count: int,
    *,
    pool_factor: float = 3.0,
) -> Sequence[Node]:
    """Return a candidate pool of high-score nodes for center selection.

    The paper first computes a *group of possible centers* with the weight
    function and then selects the actual centers from that group (randomly in
    the first variant, coordinate-spread in the "distributed centers"
    variant).  ``pool_factor`` controls how much larger than ``count`` the
    candidate pool is.
    """
    if count <= 0:
        return []
    pool_size = max(count, int(round(count * pool_factor)))
    ranking = rank_by_status(graph)
    return ranking[:pool_size]
