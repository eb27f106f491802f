"""The whole-graph constructions of the write path, kept as reference implementations.

These are what one ``update_edge`` ran before its cost followed the change:
two whole-graph searches per changed edge for the repair probes, a
from-scratch ``Fragmentation`` of every fragment's edge set, and a diff of a
site's two complete augmented edge dicts.  They define the answers; the
production code must reproduce them exactly.
"""

from __future__ import annotations

from math import inf
from typing import Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional, Set, Tuple

from repro.closure.kernels import array_dijkstra, bitset_reachable
from repro.disconnection.catalog import FragmentSite
from repro.disconnection.complementary import ComplementaryInformation
from repro.disconnection.maintenance import FragmentedDatabase
from repro.fragmentation import Fragmentation
from repro.graph.compact import CompactDelta, CompactGraph
from repro.incremental.delta import EdgeChange
from repro.incremental.repair import _tolerance

Node = Hashable
FragmentPair = Tuple[int, int]
BorderSets = Mapping[FragmentPair, FrozenSet[Node]]
Marked = Dict[FragmentPair, Set[Node]]
EdgeWeights = Dict[Tuple[Node, Node], float]


# ------------------------------------------------------------ repair probes


def whole_graph_probe(
    graph: CompactGraph, source: Node, target: Node, *, reachability: bool
) -> Optional[Tuple[Dict[Node, float], Dict[Node, float]]]:
    """Every node's distance to ``source`` and from ``target``, no radius, no early stop.

    For reachability the distances are all ``0.0``; an absent node is one the
    search did not reach.  ``None`` when the graph does not hold the edge's
    endpoints.
    """
    source_id = graph.try_node_id(source)
    target_id = graph.try_node_id(target)
    if source_id < 0 or target_id < 0:
        return None
    if reachability:
        reaches = bitset_reachable(graph, source_id, backward=True)
        reached = bitset_reachable(graph, target_id)
        to_edge = [0.0 if (reaches >> i) & 1 else inf for i in range(graph.node_count())]
        from_edge = [0.0 if (reached >> i) & 1 else inf for i in range(graph.node_count())]
    else:
        to_edge, _, _ = array_dijkstra(graph, source_id, backward=True)
        from_edge, _, _ = array_dijkstra(graph, target_id)
    return (
        {graph.node_of(i): d for i, d in enumerate(to_edge) if d != inf},
        {graph.node_of(i): d for i, d in enumerate(from_edge) if d != inf},
    )


def suspects_unbounded(
    semiring_name: str,
    info: ComplementaryInformation,
    old_graph: CompactGraph,
    changes: Iterable[EdgeChange],
    border_sets: BorderSets,
) -> Marked:
    """Border sources whose stored values may degrade, from whole-graph searches."""
    reachability = semiring_name == "reachability"
    suspects: Marked = {}
    for change in changes:
        if change.op == "insert":
            continue
        if change.op == "reweight":
            if reachability or change.old_weight is None or change.weight <= change.old_weight:
                continue
        edge_weight = change.old_weight if change.old_weight is not None else 0.0
        probe = whole_graph_probe(
            old_graph, change.source, change.target, reachability=reachability
        )
        if probe is None:
            continue
        to_edge, from_edge = probe
        for pair, border in border_sets.items():
            stored = info.values.get(pair, {})
            for a in border:
                for b in border:
                    if a == b or (a, b) not in stored or a not in to_edge or b not in from_edge:
                        continue
                    incumbent = float(stored[(a, b)])
                    if reachability or (
                        to_edge[a] + edge_weight + from_edge[b] <= incumbent + _tolerance(incumbent)
                    ):
                        suspects.setdefault(pair, set()).add(a)
    return suspects


def improvements_unbounded(
    semiring_name: str,
    info: ComplementaryInformation,
    new_graph: CompactGraph,
    changes: Iterable[EdgeChange],
    border_sets: BorderSets,
) -> Marked:
    """Border sources whose values may improve, from whole-graph searches."""
    reachability = semiring_name == "reachability"
    improved: Marked = {}
    for change in changes:
        if change.op == "delete":
            continue
        if change.op == "reweight":
            if reachability:
                continue
            if change.old_weight is not None and change.weight >= change.old_weight:
                continue
        probe = whole_graph_probe(
            new_graph, change.source, change.target, reachability=reachability
        )
        if probe is None:
            continue
        to_edge, from_edge = probe
        for pair, border in border_sets.items():
            stored = info.values.get(pair, {})
            for a in border:
                for b in border:
                    if a == b or a not in to_edge or b not in from_edge:
                        continue
                    incumbent = stored.get((a, b))
                    if incumbent is None:
                        improved.setdefault(pair, set()).add(a)
                    elif not reachability and (
                        to_edge[a] + change.weight + from_edge[b]
                        < float(incumbent) + _tolerance(float(incumbent))
                    ):
                        improved.setdefault(pair, set()).add(a)
    return improved


# ------------------------------------------------------------ fragmentation


def constructed_fragmentation(database: FragmentedDatabase) -> Fragmentation:
    """The database's current fragmentation, every fragment re-frozen."""
    populated = [edges for edges in database._fragment_edges if edges]
    return Fragmentation(database.graph, populated, algorithm=database._algorithm)


def choose_owner_by_scan(database: FragmentedDatabase, source: Node, target: Node) -> int:
    """The owner of a new edge, from the node set of every fragment."""
    both: List[int] = []
    either: List[int] = []
    for index, edges in enumerate(database._fragment_edges):
        nodes = {node for edge in edges for node in edge}
        if source in nodes and target in nodes:
            both.append(index)
        elif source in nodes or target in nodes:
            either.append(index)
    if both or either:
        return (both or either)[0]
    sizes = [len(edges) for edges in database._fragment_edges]
    return sizes.index(min(sizes))


def owner_of_edge_by_scan(database: FragmentedDatabase, source: Node, target: Node) -> Optional[int]:
    for index, edges in enumerate(database._fragment_edges):
        if (source, target) in edges:
            return index
    return None


# --------------------------------------------------------------- site delta


def compact_edges(graph: CompactGraph) -> EdgeWeights:
    return {(source, target): weight for source, target, weight in graph.weighted_edges()}


def augmented_edges(site: FragmentSite) -> EdgeWeights:
    """What a from-scratch augmented graph of the site's current state holds."""
    return {
        (source, target): weight
        for source, target, weight in site.augmented_subgraph().weighted_edges()
    }


def full_diff_delta(old: EdgeWeights, new: EdgeWeights) -> CompactDelta:
    """The delta between two complete augmented edge dicts."""
    inserts = [(s, t, w) for (s, t), w in new.items() if (s, t) not in old]
    reweights = [(s, t, w) for (s, t), w in new.items() if (s, t) in old and old[(s, t)] != w]
    deletes = [edge for edge in old if edge not in new]
    return CompactDelta(
        inserts=tuple(inserts), deletes=tuple(deletes), reweights=tuple(reweights)
    )


def as_sets(delta: CompactDelta) -> Tuple[Set, Set, Set]:
    return set(delta.inserts), set(delta.deletes), set(delta.reweights)
