"""Iterative transitive-closure algorithms: naive, semi-naive and smart.

The paper's naive and semi-naive fixpoints, evaluated over a graph and
generalised over a path-problem semiring.  They are used both as the *local*
algorithm each processor runs on its fragment ("for evaluating the recursive
subquery on a fragment any suitable single-processor algorithm may be
chosen", Sec. 2.1) and as the centralised baselines the parallel strategy is
compared against.

The semi-naive evaluation — the one the hot paths actually call — compiles
graphs at or above :data:`~repro.closure.warshall.COMPACT_NODE_THRESHOLD`
nodes to the compact (CSR) form and runs the id-level kernel of
:mod:`repro.closure.kernels` instead of the dict join (identical values,
``use_compact`` overrides).  The naive and smart variants compute shortest
paths only and stay dict-based on purpose: they exist as complexity
baselines, and rewriting them would erase the very contrast they measure.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional, Set, Tuple

from ..graph import DiGraph
from .base import ClosureResult, ClosureStatistics, Pair
from .semiring import Semiring, shortest_path_semiring

Node = Hashable

DEFAULT_MAX_ITERATIONS = 10_000
# Squaring rounds of the smart closure: 2^64 covers any path length.
SMART_MAX_ROUNDS = 64


def _edge_values(graph: DiGraph, semiring: Semiring, sources: Optional[Set[Node]]) -> Dict[Pair, object]:
    """Return the single-edge path values, optionally restricted to given sources."""
    values: Dict[Pair, object] = {}
    for u, v, weight in graph.weighted_edges():
        if sources is not None and u not in sources:
            continue
        candidate = semiring.edge_value(weight)
        incumbent = values.get((u, v))
        values[(u, v)] = candidate if incumbent is None else semiring.plus(incumbent, candidate)
    return values


def _absorb(
    values: Dict[Pair, object],
    candidates: Dict[Pair, object],
    semiring: Semiring,
) -> Dict[Pair, object]:
    """Fold candidate facts into ``values``; return the facts that improved."""
    improved: Dict[Pair, object] = {}
    for pair, candidate in candidates.items():
        incumbent = values.get(pair)
        if incumbent is None:
            values[pair] = candidate
            improved[pair] = candidate
        else:
            combined = semiring.plus(incumbent, candidate)
            if combined != incumbent:
                values[pair] = combined
                improved[pair] = combined
    return improved


def naive_transitive_closure(graph: DiGraph) -> ClosureResult:
    """Compute the shortest-path closure by naive iteration (whole closure re-joined each round).

    At most :data:`DEFAULT_MAX_ITERATIONS` rounds run (a safety bound for
    non-idempotent semirings on cyclic graphs).
    """
    semiring = shortest_path_semiring()
    base = _edge_values(graph, semiring, None)
    values = dict(base)
    stats = ClosureStatistics()
    while stats.iterations < DEFAULT_MAX_ITERATIONS:
        candidates: Dict[Pair, object] = {}
        for (a, b), left in values.items():
            for (b2, c), right in base.items():
                if b2 != b:
                    continue
                candidate = semiring.times(left, right)
                pair = (a, c)
                incumbent = candidates.get(pair)
                candidates[pair] = candidate if incumbent is None else semiring.plus(incumbent, candidate)
        improved = _absorb(values, candidates, semiring)
        stats.record_round(len(candidates), len(improved))
        if not improved:
            break
    return ClosureResult(values=values, semiring_name=semiring.name, statistics=stats)


def seminaive_transitive_closure(
    graph: DiGraph,
    *,
    semiring: Optional[Semiring] = None,
    sources: Optional[Iterable[Node]] = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    use_compact: Optional[bool] = None,
) -> ClosureResult:
    """Compute the closure by semi-naive (differential) iteration.

    Only facts that improved in the previous round are extended in the next
    one.  With the default shortest-path semiring this is Bellman-Ford-style
    label correcting expressed as a datalog-ish fixpoint; the number of rounds
    is bounded by the graph diameter, the quantity the paper's fragmentation
    argument revolves around.

    At or above the compact node threshold the evaluation runs on the CSR
    kernels instead (per-source searches for the standard semirings, the
    id-level fixpoint otherwise) with identical values — including the
    ``(a, a)`` facts a cycle produces, which the plain per-source closures
    deliberately omit; ``use_compact`` forces either path.  The *statistics*
    then count per-source rows rather than fixpoint rounds: callers that
    measure the iterative algorithm itself (the parallel simulator's
    centralized baseline) pass ``use_compact=False``.
    """
    semiring = semiring or shortest_path_semiring()
    from .warshall import _auto_compact  # late import: warshall also imports kernels

    if _auto_compact(graph, use_compact):
        return _compact_seminaive(graph, semiring, sources, max_iterations)
    source_set = set(sources) if sources is not None else None
    values = _edge_values(graph, semiring, source_set)
    delta: Dict[Pair, object] = dict(values)
    # Index the base edges by their source node for the delta join.
    base_by_source: Dict[Node, list] = {}
    for u, v, weight in graph.weighted_edges():
        base_by_source.setdefault(u, []).append((v, semiring.edge_value(weight)))
    stats = ClosureStatistics()
    while delta and stats.iterations < max_iterations:
        candidates: Dict[Pair, object] = {}
        for (a, b), left in delta.items():
            for c, edge_value in base_by_source.get(b, ()):
                candidate = semiring.times(left, edge_value)
                pair = (a, c)
                incumbent = candidates.get(pair)
                candidates[pair] = candidate if incumbent is None else semiring.plus(incumbent, candidate)
        improved = _absorb(values, candidates, semiring)
        stats.record_round(len(candidates), len(improved))
        delta = improved
    return ClosureResult(values=values, semiring_name=semiring.name, statistics=stats)


def _compact_seminaive(
    graph: DiGraph,
    semiring: Semiring,
    sources: Optional[Iterable[Node]],
    max_iterations: int,
) -> ClosureResult:
    """Semi-naive closure semantics on the compact kernels.

    The standard semirings run one kernel search per requested source and
    complete each row with the cyclic ``(a, a)`` fact the fixpoint would
    derive (best value over the in-edges of ``a``); custom semirings run the
    id-level semi-naive fixpoint, which matches the dict evaluation fact for
    fact already.
    """
    from math import inf

    from ..graph import CompactGraph
    from .kernels import (
        _resolve_source_ids,
        array_dijkstra,
        compact_closure,
        mask_to_ids,
        reachability_rows,
    )

    compact = CompactGraph.from_digraph(graph)
    if semiring.name not in ("shortest_path", "reachability"):
        return compact_closure(
            compact, semiring=semiring, sources=sources, max_iterations=max_iterations
        )
    values: Dict[Pair, object] = {}
    stats = ClosureStatistics()
    source_ids = _resolve_source_ids(compact, sources)
    rows: Dict[int, int] = {}
    if semiring.name == "reachability":
        rows, _ = reachability_rows(compact, source_ids, context="seminaive")
    for source_id in source_ids:
        source = compact.node_of(source_id)
        produced = 0
        if semiring.name == "reachability":
            visited = rows[source_id]
            for target_id in mask_to_ids(visited):
                if target_id != source_id:
                    values[(source, compact.node_of(target_id))] = True
                    produced += 1
            if visited & compact.predecessor_masks()[source_id]:
                values[(source, source)] = True  # the cycle fact the fixpoint derives
                produced += 1
        else:
            distances, _, _ = array_dijkstra(compact, source_id)
            for target_id, distance in enumerate(distances):
                if distance == inf or target_id == source_id:
                    continue
                values[(source, compact.node_of(target_id))] = distance
                produced += 1
            cycle = inf
            for predecessor_id, weight in compact.predecessor_ids(source_id):
                if distances[predecessor_id] != inf:
                    cycle = min(cycle, distances[predecessor_id] + weight)
            if cycle != inf:
                values[(source, source)] = cycle
                produced += 1
        stats.record_round(produced, produced)
    return ClosureResult(values=values, semiring_name=semiring.name, statistics=stats)


def smart_transitive_closure(graph: DiGraph) -> ClosureResult:
    """Compute the shortest-path closure by repeated squaring (logarithmic number of rounds).

    Each round composes the current closure with itself, so paths of length up
    to ``2^k`` are covered after ``k`` rounds, at most
    :data:`SMART_MAX_ROUNDS` of them.  Source restriction is not supported
    because squaring needs the full intermediate closure.
    """
    semiring = shortest_path_semiring()
    values = _edge_values(graph, semiring, None)
    stats = ClosureStatistics()
    while stats.iterations < SMART_MAX_ROUNDS:
        by_source: Dict[Node, list] = {}
        for (a, b), value in values.items():
            by_source.setdefault(a, []).append((b, value))
        candidates: Dict[Pair, object] = {}
        for (a, b), left in values.items():
            for c, right in by_source.get(b, ()):
                candidate = semiring.times(left, right)
                pair = (a, c)
                incumbent = candidates.get(pair)
                candidates[pair] = candidate if incumbent is None else semiring.plus(incumbent, candidate)
        improved = _absorb(values, candidates, semiring)
        stats.record_round(len(candidates), len(improved))
        if not improved:
            break
    return ClosureResult(values=values, semiring_name=semiring.name, statistics=stats)
