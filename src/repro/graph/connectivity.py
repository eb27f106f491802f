"""Connectivity analysis: k-connectivity and "relevant" cut nodes.

Section 3 of the paper describes a first, ultimately rejected idea for
fragmentation: investigate the *k-connectivity* of the graph (the smallest
number of node-distinct paths between any pair of nodes) and mark the nodes
whose removal would decrease it as "relevant" candidates for disconnection
sets.  The paper rejects the idea because it is computation intensive and
confused by cycles in the fragmentation graph — but it is part of the system
description, so we implement it (it also powers the
:class:`~repro.fragmentation.kconnectivity.KConnectivityFragmenter` ablation).

The implementation uses max-flow with unit node capacities (node splitting)
via BFS augmentation (Edmonds-Karp), which is adequate for the graph sizes in
the paper's evaluation (up to a few hundred nodes).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, List, Optional, Set, Tuple

from .digraph import DiGraph
from .traversal import weakly_connected_components

Node = Hashable

# Seed of the pair sample ``k_connectivity(sample_pairs=...)`` draws.
PAIR_SAMPLE_SEED = 0


def _unit_capacity_flow_network(graph: DiGraph, source: Node, target: Node) -> Dict[object, Dict[object, int]]:
    """Build a node-split flow network for vertex-disjoint path counting.

    Every node ``v`` other than the terminals becomes ``(v, 'in')`` and
    ``(v, 'out')`` joined by a unit-capacity arc; every undirected adjacency
    becomes two unit-capacity arcs between the corresponding out/in copies.
    """
    capacity: Dict[object, Dict[object, int]] = {}

    def add_arc(u: object, v: object, cap: int) -> None:
        capacity.setdefault(u, {})[v] = capacity.get(u, {}).get(v, 0) + cap
        capacity.setdefault(v, {}).setdefault(u, 0)

    for node in graph.nodes():
        if node in (source, target):
            continue
        add_arc((node, "in"), (node, "out"), 1)

    def out_copy(node: Node) -> object:
        return "SRC" if node == source else "SNK" if node == target else (node, "out")

    def in_copy(node: Node) -> object:
        return "SRC" if node == source else "SNK" if node == target else (node, "in")

    for a, b in graph.to_undirected_pairs():
        # Undirected adjacency: allow flow in both directions.
        big = graph.node_count() + 1
        if a == source or b == target:
            add_arc(out_copy(a), in_copy(b), big if (a == source and b == target) else 1)
        add_arc(out_copy(a), in_copy(b), 0)
        add_arc(out_copy(b), in_copy(a), 0)
        # Unit capacity for traversing the adjacency either way.
        capacity[out_copy(a)][in_copy(b)] = max(capacity[out_copy(a)][in_copy(b)], 1)
        capacity[out_copy(b)][in_copy(a)] = max(capacity[out_copy(b)][in_copy(a)], 1)
    return capacity


def _max_flow(capacity: Dict[object, Dict[object, int]], source: object, sink: object) -> int:
    """Edmonds-Karp max flow on an adjacency-dict capacity network."""
    flow = 0
    while True:
        # BFS for an augmenting path.
        parents: Dict[object, object] = {source: source}
        queue: deque = deque([source])
        while queue and sink not in parents:
            u = queue.popleft()
            for v, cap in capacity.get(u, {}).items():
                if cap > 0 and v not in parents:
                    parents[v] = u
                    queue.append(v)
        if sink not in parents:
            return flow
        # Find bottleneck.
        bottleneck = None
        v = sink
        while v != source:
            u = parents[v]
            cap = capacity[u][v]
            bottleneck = cap if bottleneck is None else min(bottleneck, cap)
            v = u
        # Augment.
        v = sink
        while v != source:
            u = parents[v]
            capacity[u][v] -= bottleneck  # type: ignore[operator]
            capacity.setdefault(v, {}).setdefault(u, 0)
            capacity[v][u] += bottleneck  # type: ignore[operator]
            v = u
        flow += bottleneck  # type: ignore[assignment]


def vertex_disjoint_path_count(graph: DiGraph, source: Node, target: Node) -> int:
    """Return the number of internally node-disjoint paths between two nodes.

    Adjacent nodes are considered to have ``node_count`` disjoint paths (their
    direct edge cannot be cut by removing other nodes); this mirrors Menger's
    theorem convention and keeps :func:`k_connectivity` well defined.
    """
    if source == target:
        raise ValueError("source and target must differ")
    undirected_pairs = graph.to_undirected_pairs()
    key = (source, target) if repr(source) <= repr(target) else (target, source)
    if key in undirected_pairs:
        return graph.node_count()
    capacity = _unit_capacity_flow_network(graph, source, target)
    return _max_flow(capacity, "SRC", "SNK")


def k_connectivity(graph: DiGraph, *, sample_pairs: Optional[int] = None) -> int:
    """Return the vertex connectivity of the (undirected view of the) graph.

    This is the paper's *k-connectivity*: the smallest number of node-distinct
    paths over all node pairs.  For graphs that are not connected the result
    is 0.  ``sample_pairs`` bounds the number of pairs examined (uniformly
    sampled with :data:`PAIR_SAMPLE_SEED`) because exact computation over all pairs is
    quadratic in Dijkstra-sized flow computations — the very cost that made
    the paper abandon this approach.
    """
    import random

    nodes = graph.nodes()
    if len(nodes) <= 1:
        return 0
    if len(weakly_connected_components(graph)) > 1:
        return 0
    pairs: List[Tuple[Node, Node]] = [
        (nodes[i], nodes[j]) for i in range(len(nodes)) for j in range(i + 1, len(nodes))
    ]
    if sample_pairs is not None and sample_pairs < len(pairs):
        rng = random.Random(PAIR_SAMPLE_SEED)
        pairs = rng.sample(pairs, sample_pairs)
    best = None
    for source, target in pairs:
        count = vertex_disjoint_path_count(graph, source, target)
        count = min(count, len(nodes) - 2) if count >= len(nodes) else count
        best = count if best is None else min(best, count)
        if best == 1:
            break
    return best if best is not None else 0


def relevant_nodes(graph: DiGraph, *, sample_pairs: Optional[int] = None) -> Set[Node]:
    """Return the nodes whose removal decreases the graph's k-connectivity.

    These are the "relevant" nodes of the paper's rejected first idea: good
    candidates for disconnection sets because they sit on every minimal
    node-cut.  Articulation points are always relevant; for higher
    connectivity we test node removals explicitly.
    """
    base = k_connectivity(graph, sample_pairs=sample_pairs)
    relevant: Set[Node] = set()
    for node in graph.nodes():
        trial = graph.copy()
        trial.remove_node(node)
        if trial.node_count() <= 1:
            continue
        if k_connectivity(trial, sample_pairs=sample_pairs) < base:
            relevant.add(node)
    return relevant


def articulation_points(graph: DiGraph) -> Set[Node]:
    """Return the articulation points of the undirected view of the graph.

    A node is an articulation point if its removal increases the number of
    weakly connected components.  Computed with the linear-time Hopcroft-
    Tarjan low-link algorithm (iterative).
    """
    adjacency: Dict[Node, List[Node]] = {node: graph.neighbors(node) for node in graph.nodes()}
    visited: Set[Node] = set()
    depth: Dict[Node, int] = {}
    low: Dict[Node, int] = {}
    parent: Dict[Node, Optional[Node]] = {}
    points: Set[Node] = set()

    for root in adjacency:
        if root in visited:
            continue
        stack: List[Tuple[Node, int]] = [(root, 0)]
        parent[root] = None
        order: List[Node] = []
        while stack:
            node, child_index = stack.pop()
            if child_index == 0:
                visited.add(node)
                depth[node] = low[node] = len(order)
                order.append(node)
            children = adjacency[node]
            if child_index < len(children):
                stack.append((node, child_index + 1))
                child = children[child_index]
                if child not in visited:
                    parent[child] = node
                    stack.append((child, 0))
                elif child != parent.get(node):
                    low[node] = min(low[node], depth[child])
            else:
                p = parent.get(node)
                if p is not None:
                    low[p] = min(low[p], low[node])
                    if low[node] >= depth[p] and parent.get(p) is not None:
                        points.add(p)
        # Root is an articulation point if it has more than one DFS child.
        root_children = sum(1 for node in adjacency if parent.get(node) == root)
        if root_children > 1:
            points.add(root)
    return points
