"""Graph traversals: breadth-first search and connected components.

These are the building blocks the fragmentation algorithms and the metrics
module use: fragment growth is a breadth-first expansion from seed nodes, and
the fragmentation graph's cycle analysis needs connected components.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Hashable, Iterable, List, Set

from .digraph import DiGraph

Node = Hashable


def bfs_order(graph: DiGraph, source: Node, *, undirected: bool = False) -> List[Node]:
    """Return the nodes reachable from ``source`` in breadth-first order.

    Args:
        graph: the graph to traverse.
        source: the start node.
        undirected: when ``True`` edges are followed in both directions, which
            is how fragments grow in the fragmentation algorithms.
    """
    neighbour_fn: Callable[[Node], List[Node]] = graph.neighbors if undirected else graph.successors
    visited: Set[Node] = {source}
    order: List[Node] = [source]
    queue: deque = deque([source])
    while queue:
        node = queue.popleft()
        for neighbour in neighbour_fn(node):
            if neighbour not in visited:
                visited.add(neighbour)
                order.append(neighbour)
                queue.append(neighbour)
    return order


def bfs_levels(graph: DiGraph, source: Node, *, undirected: bool = False) -> Dict[Node, int]:
    """Return the hop distance from ``source`` to every reachable node."""
    neighbour_fn: Callable[[Node], List[Node]] = graph.neighbors if undirected else graph.successors
    levels: Dict[Node, int] = {source: 0}
    queue: deque = deque([source])
    while queue:
        node = queue.popleft()
        for neighbour in neighbour_fn(node):
            if neighbour not in levels:
                levels[neighbour] = levels[node] + 1
                queue.append(neighbour)
    return levels


def is_reachable(graph: DiGraph, source: Node, target: Node) -> bool:
    """Return ``True`` if ``target`` is reachable from ``source`` along edge directions."""
    if source == target:
        return graph.has_node(source)
    visited: Set[Node] = {source}
    queue: deque = deque([source])
    while queue:
        node = queue.popleft()
        for neighbour in graph.successors(node):
            if neighbour == target:
                return True
            if neighbour not in visited:
                visited.add(neighbour)
                queue.append(neighbour)
    return False


def weakly_connected_components(graph: DiGraph) -> List[Set[Node]]:
    """Return the weakly connected components of the graph.

    Two nodes are in the same weak component when they are connected by a path
    that ignores edge direction.  Components are returned in order of their
    smallest-index node (insertion order of the graph).
    """
    remaining: Set[Node] = set(graph.nodes())
    components: List[Set[Node]] = []
    for node in graph.nodes():
        if node not in remaining:
            continue
        component = set(bfs_order(graph, node, undirected=True))
        components.append(component)
        remaining -= component
    return components


def is_weakly_connected(graph: DiGraph) -> bool:
    """Return ``True`` if the graph has at most one weak component."""
    return len(weakly_connected_components(graph)) <= 1


def strongly_connected_components(graph: DiGraph) -> List[Set[Node]]:
    """Return the strongly connected components (iterative Tarjan algorithm)."""
    index_counter = 0
    indices: Dict[Node, int] = {}
    lowlinks: Dict[Node, int] = {}
    on_stack: Set[Node] = set()
    stack: List[Node] = []
    components: List[Set[Node]] = []

    for root in graph.nodes():
        if root in indices:
            continue
        work: List[tuple] = [(root, iter(graph.successors(root)))]
        indices[root] = lowlinks[root] = index_counter
        index_counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for successor in successors:
                if successor not in indices:
                    indices[successor] = lowlinks[successor] = index_counter
                    index_counter += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(graph.successors(successor))))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlinks[node] = min(lowlinks[node], indices[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
            if lowlinks[node] == indices[node]:
                component: Set[Node] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
    return components


def undirected_cycle_count(graph: DiGraph) -> int:
    """Return the number of independent cycles of the underlying undirected graph.

    This is the circuit rank ``|E| - |V| + C`` (with ``C`` the number of weak
    components and ``|E|`` counting each symmetric pair once).  The paper uses
    the presence of cycles in the *fragmentation graph* as one of its three
    design criteria; the circuit rank quantifies "how cyclic" a fragmentation
    graph is.
    """
    edge_count = len(graph.to_undirected_pairs())
    node_count = graph.node_count()
    component_count = len(weakly_connected_components(graph))
    return max(0, edge_count - node_count + component_count)
