"""The quadratic preparation loops, kept as reference implementations.

These are the loops the preparation path ran before it became near-linear:
a whole-graph BFS per scored node, a rescan of every fragment node per growth
round, a dict BFS per node for the diameter.  They define the answers; the
production code must reproduce them exactly (``==`` on floats included).
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, List, Set, Tuple

from repro.graph import DiGraph, bfs_levels, centroid

Node = Hashable
Edge = Tuple[Node, Node]


def hop_diameter_by_bfs(graph: DiGraph) -> int:
    """Longest undirected hop distance over reachable pairs: one dict BFS per node."""
    best = 0
    for node in graph.nodes():
        levels = bfs_levels(graph, node, undirected=True)
        best = max(best, max(levels.values()))
    return best


def status_score_by_full_bfs(graph: DiGraph, node: Node) -> float:
    """Center score (a = 0.5, three rings) from a whole-graph BFS filtered afterwards."""
    levels = bfs_levels(graph, node, undirected=True)
    score = float(graph.undirected_degree(node))
    for other, distance in levels.items():
        if other == node or distance > 3:
            continue
        score += (0.5 ** distance) * graph.undirected_degree(other)
    return score


def status_scores_by_full_bfs(graph: DiGraph) -> Dict[Node, float]:
    return {node: status_score_by_full_bfs(graph, node) for node in graph.nodes()}


def rank_by_full_bfs(graph: DiGraph) -> List[Node]:
    scores = status_scores_by_full_bfs(graph)
    return sorted(scores, key=lambda node: (-scores[node], repr(node)))


def _incident_edges(graph: DiGraph, node: Node) -> List[Edge]:
    incident: List[Edge] = [(node, target) for target in graph.successors(node)]
    incident.extend((source, node) for source in graph.predecessors(node))
    return incident


def grow_fragments_by_rescan(graph: DiGraph, centers: List[Node]) -> List[Set[Edge]]:
    """Fig. 4 growth that rescans every node of every fragment each round."""
    count = len(centers)
    fragment_nodes: List[Set[Node]] = [set() for _ in range(count)]
    fragment_edges: List[Set[Edge]] = [set() for _ in range(count)]
    unassigned: Set[Edge] = set(graph.edges())

    # Initialisation: each fragment takes its center and the edges adjacent to it.
    for index, center in enumerate(centers):
        fragment_nodes[index].add(center)
        adjacent = {edge for edge in _incident_edges(graph, center) if edge in unassigned}
        fragment_edges[index] |= adjacent
        unassigned -= adjacent
        for source, target in adjacent:
            fragment_nodes[index].add(source)
            fragment_nodes[index].add(target)

    stalled_rounds = 0
    while unassigned:
        progress = False
        for index in range(count):
            if _expand_once(graph, fragment_nodes[index], fragment_edges[index], unassigned):
                progress = True
        if not progress:
            stalled_rounds += 1
            # Remaining edges are unreachable from every center (other weak
            # component): seed them into the currently smallest fragment.
            if stalled_rounds > 1 or not _seed_disconnected_edge(
                fragment_nodes, fragment_edges, unassigned
            ):
                break
        else:
            stalled_rounds = 0
    return fragment_edges


def _expand_once(graph: DiGraph, nodes: Set[Node], edges: Set[Edge], unassigned: Set[Edge]) -> bool:
    """Add every still-unassigned edge touching the fragment's node set."""
    frontier_edges: Set[Edge] = set()
    for node in nodes:
        for edge in _incident_edges(graph, node):
            if edge in unassigned:
                frontier_edges.add(edge)
    if not frontier_edges:
        return False
    edges |= frontier_edges
    unassigned -= frontier_edges
    for source, target in frontier_edges:
        nodes.add(source)
        nodes.add(target)
    return True


def _seed_disconnected_edge(
    fragment_nodes: List[Set[Node]], fragment_edges: List[Set[Edge]], unassigned: Set[Edge]
) -> bool:
    """Assign one unreachable edge to the smallest fragment to restart growth."""
    if not unassigned:
        return False
    smallest = min(range(len(fragment_edges)), key=lambda index: (len(fragment_edges[index]), index))
    edge = min(unassigned, key=repr)
    unassigned.discard(edge)
    fragment_edges[smallest].add(edge)
    fragment_nodes[smallest].add(edge[0])
    fragment_nodes[smallest].add(edge[1])
    return True


def spread_out_by_rescan(coordinates, candidates, count: int) -> List[Node]:
    """Farthest-point selection recomputing every min-distance on every pick."""
    pool = list(candidates)
    center_of_mass = centroid(coordinates[node] for node in pool)
    first = max(
        range(len(pool)),
        key=lambda idx: (coordinates[pool[idx]].distance_to(center_of_mass), -idx),
    )
    selected = [pool.pop(first)]
    while pool and len(selected) < count:
        best_idx = max(
            range(len(pool)),
            key=lambda idx: (
                min(coordinates[pool[idx]].distance_to(coordinates[s]) for s in selected),
                -idx,
            ),
        )
        selected.append(pool.pop(best_idx))
    return selected


def spread_by_hops_by_rescan(graph: DiGraph, candidates, count: int) -> List[Node]:
    """Farthest-first selection on hop distance, one BFS per center per pick."""
    selected: List[Node] = [candidates[0]]
    while len(selected) < count:
        distance_to_selected: Dict[Node, int] = {}
        for center in selected:
            levels = bfs_levels(graph, center, undirected=True)
            for node in candidates:
                hops = levels.get(node, graph.node_count() + 1)
                if node not in distance_to_selected or hops < distance_to_selected[node]:
                    distance_to_selected[node] = hops
        remaining = [node for node in candidates if node not in selected]
        if not remaining:
            break
        best = max(remaining, key=lambda node: (distance_to_selected.get(node, 0), repr(node)))
        selected.append(best)
    return selected


def center_based_layout_by_rescan(fragmenter, graph: DiGraph) -> Tuple[List[Node], List[Set[Edge]]]:
    """``(centers, populated fragment edge sets)`` of a ``CenterBasedFragmenter``, the old way."""
    count = min(fragmenter.fragment_count, max(1, graph.node_count()))
    distributed = fragmenter.center_selection == "distributed"
    pool_size = max(count, int(round(count * (32.0 if distributed else 3.0))))
    candidates = rank_by_full_bfs(graph)[:pool_size]
    if len(candidates) <= count:
        centers = candidates
    elif distributed and graph.has_coordinates():
        centers = spread_out_by_rescan(graph.coordinates(), candidates, count)
    elif distributed:
        centers = spread_by_hops_by_rescan(graph, candidates, count)
    else:
        centers = random.Random(fragmenter.seed).sample(candidates, count)
    grown = grow_fragments_by_rescan(graph, centers)
    return centers, [edges for edges in grown if edges]


# ------------------------------------------------------------ shared inputs


def random_digraph(seed: int, node_count: int, edge_count: int, *, symmetric_share: float = 0.5,
                   coordinates: bool = False) -> DiGraph:
    """A random graph that may be disconnected and may hold isolated nodes."""
    rng = random.Random(seed)
    graph = DiGraph(nodes=range(node_count))
    if coordinates:
        for node in range(node_count):
            # A coarse lattice, so equal distances (tie-breaks) do occur.
            graph.set_coordinate(node, (float(rng.randrange(6)), float(rng.randrange(6))))
    for _ in range(edge_count if node_count else 0):
        a, b = rng.randrange(node_count), rng.randrange(node_count)
        if rng.random() < symmetric_share:
            graph.add_symmetric_edge(a, b, float(rng.randint(1, 9)))
        else:
            graph.add_edge(a, b, float(rng.randint(1, 9)))
    return graph
