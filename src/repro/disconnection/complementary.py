"""Complementary information for disconnection sets.

To make the disconnection set approach produce *correct and precise* answers,
each pair of adjacent fragments stores complementary information about its
disconnection set (Sec. 2.1): for the shortest path problem, the shortest path
in the **whole graph** between any two border nodes of the disconnection set.
A path between two nodes of a chain of fragments may briefly leave the chain;
its contribution is exactly what the precomputed border-to-border values
capture (footnote 3 of the paper).

The complementary information depends on the path problem (semiring); the
precomputation therefore takes the semiring as a parameter, defaulting to
shortest paths.  Only values are stored: a route that takes a shortcut is
expanded on demand by :mod:`repro.disconnection.routes`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import Dict, Hashable, List, Optional, Set, Tuple

from ..closure import (
    Semiring,
    array_dijkstra,
    bitset_reachable,
    reachability_rows,
    seminaive_closure_ids,
    shortest_path_semiring,
)
from ..fragmentation import Fragmentation
from ..graph import CompactGraph

Node = Hashable
FragmentPair = Tuple[int, int]
BorderPair = Tuple[Node, Node]


@dataclass
class ComplementaryInformation:
    """Precomputed border-to-border path values for every disconnection set.

    Attributes:
        semiring_name: which path problem the values solve.
        values: per fragment pair ``(i, j)`` (with ``i < j``), a mapping from
            ordered border-node pairs to the best path value between them in
            the full graph.  Pairs with no connecting path are absent.
        precompute_work: number of elementary search steps (settled nodes)
            spent building the information; reported by the benchmarks as the
            preprocessing cost the paper warns about.
    """

    semiring_name: str
    values: Dict[FragmentPair, Dict[BorderPair, object]] = field(default_factory=dict)
    precompute_work: int = 0

    def for_pair(self, i: int, j: int) -> Dict[BorderPair, object]:
        """Return the border-to-border values for the unordered fragment pair."""
        key = (i, j) if i <= j else (j, i)
        return self.values.get(key, {})

    def shortcut_edges(self, fragment_id: int, fragmentation: Fragmentation) -> List[Tuple[Node, Node, object]]:
        """Return the shortcut edges stored at ``fragment_id``.

        These are the (border, border, value) triples of every disconnection
        set the fragment participates in; the local query evaluator adds them
        to the fragment subgraph so that paths detouring outside the fragment
        are accounted for without any communication.
        """
        shortcuts: List[Tuple[Node, Node, object]] = []
        for neighbour in fragmentation.adjacent_fragments(fragment_id):
            for (a, b), value in self.for_pair(fragment_id, neighbour).items():
                shortcuts.append((a, b, value))
        return shortcuts

    def size_in_facts(self) -> int:
        """Return the total number of precomputed facts (storage cost)."""
        return sum(len(pairs) for pairs in self.values.values())


def precompute_complementary_information(
    fragmentation: Fragmentation,
    *,
    semiring: Optional[Semiring] = None,
    compact: Optional[CompactGraph] = None,
) -> ComplementaryInformation:
    """Precompute the complementary information for every disconnection set.

    The whole graph is compiled once into a
    :class:`~repro.graph.compact.CompactGraph` and every border-node search
    runs as a compact kernel: array-heap Dijkstra for the shortest-path
    semiring (stopped once all border targets are settled), bitset BFS for
    reachability, and the id-level semi-naive fixpoint for custom semirings.

    Args:
        fragmentation: the fragmentation whose disconnection sets are annotated.
        semiring: the path problem; defaults to shortest paths.
        compact: a prebuilt compact form of ``fragmentation.graph`` (the
            maintainer's resident mirror); when provided the whole-graph
            compile is skipped entirely.
    """
    semiring = semiring or shortest_path_semiring()
    graph = compact if compact is not None else CompactGraph.from_digraph(fragmentation.graph)
    info = ComplementaryInformation(semiring_name=semiring.name)
    for (i, j), border in fragmentation.disconnection_sets().items():
        pair_values: Dict[BorderPair, object] = {}
        border_set: Set[Node] = set(border)
        if semiring.name == "reachability":
            values_by_source, work = border_values_multi(graph, border_set)
            info.precompute_work += work
            for source, values in values_by_source.items():
                for target, value in values.items():
                    if target != source:
                        pair_values[(source, target)] = value
        else:
            for source in sorted(border_set, key=repr):
                values, work = border_values_from(graph, source, border_set, semiring)
                info.precompute_work += work
                for target, value in values.items():
                    if target != source:
                        pair_values[(source, target)] = value
        info.values[(i, j)] = pair_values
    return info


def border_values_multi(
    graph: CompactGraph,
    border_set: Set[Node],
) -> Tuple[Dict[Node, Dict[Node, object]], int]:
    """Return reachability border-to-border values for *all* sources in one call.

    The batched counterpart of calling :func:`border_values_from` once per
    border node: one kernel dispatch serves every border source (the chain
    index answers each row from its labels, the big-int kernel runs one BFS
    per source), producing value-identical rows.  Work is counted exactly like
    the per-source path — one visited popcount per source — so the
    ``precompute_work`` figure stays comparable across backends.
    """
    sources = sorted((node for node in border_set if graph.has_node(node)), key=repr)
    source_ids = [graph.node_id(node) for node in sources]
    target_ids = {graph.try_node_id(t): t for t in border_set if graph.has_node(t)}
    rows, _ = reachability_rows(graph, source_ids, context="complementary")
    values_by_source: Dict[Node, Dict[Node, object]] = {}
    work = 0
    for source, source_id in zip(sources, source_ids):
        visited = rows[source_id]
        work += visited.bit_count()
        values_by_source[source] = {
            node: True for node_id, node in target_ids.items() if (visited >> node_id) & 1
        }
    return values_by_source, work


def border_values_from(
    graph: CompactGraph,
    source: Node,
    targets: Set[Node],
    semiring: Semiring,
) -> Tuple[Dict[Node, object], int]:
    """Return best path values from ``source`` to each target and the work done.

    One "row" of the complementary information: the best whole-graph path
    value from one border node to every node of a target set.  The full
    precomputation calls this per border source, and the incremental repair
    of :mod:`repro.incremental` calls it for exactly the sources an edge
    change may have affected — both paths therefore produce identical values
    for identical graphs.
    """
    source_id = graph.node_id(source)
    target_ids = {graph.try_node_id(t): t for t in targets if graph.has_node(t)}
    if semiring.name == "shortest_path":
        distances, _, settled = array_dijkstra(
            graph, source_id, target_ids=set(target_ids)
        )
        values = {
            node: distances[node_id]
            for node_id, node in target_ids.items()
            if distances[node_id] != inf
        }
        return values, settled
    if semiring.name == "reachability":
        visited = bitset_reachable(graph, source_id)
        values = {node: True for node_id, node in target_ids.items() if (visited >> node_id) & 1}
        return values, visited.bit_count()
    # Generic fallback: restricted semi-naive closure from the single source.
    id_values, statistics = seminaive_closure_ids(graph, semiring, source_ids=[source_id])
    values = {
        node: id_values[(source_id, node_id)]
        for node_id, node in target_ids.items()
        if (source_id, node_id) in id_values
    }
    return values, statistics.tuples_produced
