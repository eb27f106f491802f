"""Closure kernels specialised to the compact (CSR) graph representation.

These are the hot loops behind every layer of the reproduction: per-fragment
local queries, complementary-information precomputation, the resident worker
pool, and the centralised baselines.  Each kernel operates purely on dense
int ids over a :class:`~repro.graph.compact.CompactGraph` and translates its
results back through the graph's interner, so callers keep receiving original
node keys.

Three kernel families cover the semiring space:

* **bitset BFS** for reachability — the frontier is one Python int used as a
  bitset; each round ORs the precomputed successor masks of the frontier's
  set bits, so a whole adjacency row is absorbed word-parallel per operation
  (the SSC-style bitarray evaluation of multicore main-memory closures),
* **array-heap Dijkstra** for shortest paths — distances live in a flat
  float list indexed by node id; no per-node hashing on the hot path,
* **semi-naive fixpoint over int pairs** for arbitrary semirings — the
  differential evaluation of :mod:`repro.closure.iterative`, minus the
  per-edge dict lookups.
"""

from __future__ import annotations

import heapq
from math import inf
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from ..graph.compact import CompactGraph
from .backends import (
    BACKEND_BIGINT,
    BACKEND_CHAIN,
    BACKEND_NUMPY,
    chain_index,
    packed_matrix,
    record_selection,
    select_kernel,
    set_active_backend,
)
from .base import ClosureResult, ClosureStatistics, Pair
from .semiring import Semiring, reachability_semiring, shortest_path_semiring

Node = Hashable

DEFAULT_MAX_ITERATIONS = 10_000


# ------------------------------------------------------------- bitset kernels


def bitset_reachable(
    graph: CompactGraph,
    source_id: int,
    *,
    stop_mask: int = 0,
    backward: bool = False,
) -> int:
    """Return the bitset of ids reachable from ``source_id`` (itself included).

    Args:
        graph: the compact graph.
        source_id: the start node's dense id.
        stop_mask: optional bitset of target ids; the expansion stops early
            once every target bit is covered (the keyhole optimisation of the
            per-fragment searches, where only the exit border matters).
        backward: expand against the edges instead — the result is the set of
            ids that *reach* ``source_id`` (the delta-repair question "whose
            stored values might flow through this edge?").
    """
    masks = graph.predecessor_masks() if backward else graph.successor_masks()
    visited = 1 << source_id
    frontier = visited
    while frontier:
        if stop_mask and (visited & stop_mask) == stop_mask:
            break
        reached = 0
        while frontier:
            low = frontier & -frontier
            reached |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = reached & ~visited
        visited |= frontier
    return visited


def bitset_diameter(rows: Sequence[Sequence[int]]) -> int:
    """Return the longest hop distance over reachable pairs, all sources at once.

    ``rows[i]`` lists the ids row ``i`` has an edge to (for an undirected
    diameter, pass symmetric rows).  Row ``i`` accumulates the bitset of ids
    reachable from ``i``; a level-synchronous round ORs into it what each of
    its neighbours gained in the previous round, so one big-int operation
    advances every source together and the bits a row gains in round ``k``
    are exactly the ids ``k`` hops away.  BFS layers are contiguous — a row
    that gains nothing has its whole reach set — so a round only touches the
    rows that grew in the previous one, and the number of rounds that still
    add a bit is the diameter (0 for an empty or edgeless graph).

    Memory is one ``len(rows)``-bit int per row.
    """
    reach = [1 << row_id for row_id in range(len(rows))]
    gained = list(reach)
    growing: Sequence[int] = range(len(rows))
    rounds = 0
    while True:
        next_gained = [0] * len(rows)
        still_growing: List[int] = []
        for row_id in growing:
            fresh = 0
            for target_id in rows[row_id]:
                fresh |= gained[target_id]
            fresh &= ~reach[row_id]
            if fresh:
                reach[row_id] |= fresh
                next_gained[row_id] = fresh
                still_growing.append(row_id)
        if not still_growing:
            return rounds
        rounds += 1
        gained = next_gained
        growing = still_growing


def mask_to_ids(mask: int) -> List[int]:
    """Expand an int-as-bitset into the list of set bit positions."""
    ids: List[int] = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids


def ids_to_mask(ids: Iterable[int]) -> int:
    """Fold dense ids into one int-as-bitset."""
    mask = 0
    for node_id in ids:
        mask |= 1 << node_id
    return mask


# ------------------------------------------------------- backend dispatch


def reachability_rows(
    graph: CompactGraph,
    source_ids: Sequence[int],
    *,
    backend: Optional[str] = None,
    context: str = "closure",
    stop_mask: int = 0,
) -> Tuple[Dict[int, int], str]:
    """Return visited bitsets for ``source_ids`` via the selected backend.

    The single dispatch point of the reachability kernels: every caller —
    per-source closures, local queries, complementary sweeps — funnels
    through here, gets ``{source_id: visited_mask}`` rows whose bits are
    identical across backends (source always included, exactly like
    :func:`bitset_reachable`), and shows up in the
    ``repro_kernel_selections_total`` counter under ``context``.

    Args:
        graph: the compact graph.
        source_ids: the dense ids whose rows are requested.
        backend: explicit pin, overriding the shape heuristic (the harness
            probe and the cross-backend tests; the only way to ``numpy``).
        context: selection-counter label (``closure``, ``local_query``, …).
        stop_mask: keyhole bitset for the big-int BFS — each row's expansion
            stops once every target bit is covered.  The indexed backends
            ignore it (their rows are already materialised), so it only ever
            trims work, never answers.

    Returns:
        ``(rows, chosen_backend)``.
    """
    chosen = select_kernel(graph, override=backend)
    record_selection(chosen, context)
    # Published for the sampling profiler: any stack sampled between here
    # and the finally is attributed to the chosen backend.
    set_active_backend(chosen)
    try:
        if chosen == BACKEND_NUMPY:
            matrix = packed_matrix(graph)
            packed_rows = matrix.multi_source_rows(source_ids)
            rows = {
                sid: matrix.row_to_mask(packed_rows[index])
                for index, sid in enumerate(source_ids)
            }
            return rows, chosen
        if chosen == BACKEND_CHAIN:
            index = chain_index(graph)
            return {sid: index.reachable_mask(sid) for sid in source_ids}, chosen
        return (
            {
                sid: bitset_reachable(graph, sid, stop_mask=stop_mask)
                for sid in source_ids
            },
            BACKEND_BIGINT,
        )
    finally:
        set_active_backend(None)


# ------------------------------------------------------------ dijkstra kernel


def array_dijkstra(
    graph: CompactGraph,
    source_id: int,
    *,
    target_ids: Optional[Iterable[int]] = None,
    backward: bool = False,
    limit: float = inf,
) -> Tuple[List[float], List[int], int]:
    """Run Dijkstra over dense ids with flat distance/predecessor arrays.

    Args:
        graph: the compact graph (non-negative weights assumed; the mutable
            front-end validates weights on ingestion).
        source_id: the start id.
        target_ids: optional ids to settle; the search stops once all of
            them are settled.
        backward: relax against the edges — ``distances[i]`` becomes the
            shortest distance *from* id ``i`` *to* ``source_id`` (the
            delta-repair question "how far is every border node from the
            changed edge?").
        limit: search radius.  The search stops at the first id farther
            than ``limit`` and reports every id it did not settle exactly
            like an unreached one (``inf``, ``-1``) — a label that was only
            tentative when the search stopped is withdrawn, never returned.
            The test runs once per settled id, so an unbounded caller pays
            nothing per edge for it.

    Returns:
        ``(distances, predecessors, settled)`` where ``distances[i]`` is the
        shortest distance to id ``i`` (``inf`` when unreached),
        ``predecessors[i]`` is the previous id on one shortest path (``-1``
        for the source and unreached nodes), and ``settled`` counts the
        settled nodes (the work figure the cost model consumes).
    """
    n = graph.node_count()
    offsets, targets, weights, over, base_nodes = graph.adjacency_view(backward=backward)
    dist = [inf] * n
    pred = [-1] * n
    done = bytearray(n)
    remaining = set(target_ids) if target_ids is not None else None
    dist[source_id] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, source_id)]
    settled = 0
    while heap:
        distance, node_id = heapq.heappop(heap)
        if done[node_id]:
            continue
        if distance > limit:
            heap.append((distance, node_id))  # withdrawn below with the rest of the queue
            break
        done[node_id] = 1
        settled += 1
        if remaining is not None:
            remaining.discard(node_id)
            if not remaining:
                break
        row = over.get(node_id) if over is not None else None
        if row is not None:
            for target_id, edge_weight in row:
                if done[target_id]:
                    continue
                candidate = distance + edge_weight
                if candidate < dist[target_id]:
                    dist[target_id] = candidate
                    pred[target_id] = node_id
                    heapq.heappush(heap, (candidate, target_id))
            continue
        if node_id >= base_nodes:
            continue
        for index in range(offsets[node_id], offsets[node_id + 1]):
            target_id = targets[index]
            if done[target_id]:
                continue
            candidate = distance + weights[index]
            if candidate < dist[target_id]:
                dist[target_id] = candidate
                pred[target_id] = node_id
                heapq.heappush(heap, (candidate, target_id))
    if limit != inf:
        for _, node_id in heap:
            if not done[node_id]:
                dist[node_id] = inf
                pred[node_id] = -1
    return dist, pred, settled


def reconstruct_id_path(predecessors: Sequence[int], source_id: int, target_id: int) -> List[int]:
    """Rebuild the id sequence of a path from an array-Dijkstra predecessor array.

    Raises:
        ValueError: when no path to ``target_id`` was recorded (its
            predecessor chain hits the ``-1`` sentinel before the source).
    """
    path = [target_id]
    node_id = target_id
    while node_id != source_id:
        node_id = predecessors[node_id]
        if node_id < 0:
            raise ValueError(
                f"no path from id {source_id} to id {target_id} in the predecessor array"
            )
        path.append(node_id)
    path.reverse()
    return path


# ------------------------------------------------------- semi-naive fixpoint


def seminaive_closure_ids(
    graph: CompactGraph,
    semiring: Semiring,
    *,
    source_ids: Optional[Iterable[int]] = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> Tuple[Dict[Tuple[int, int], object], ClosureStatistics]:
    """Semi-naive fixpoint over int-id pairs for an arbitrary semiring.

    Mirrors :func:`repro.closure.iterative.seminaive_transitive_closure` but
    joins the delta against the CSR arrays instead of dict adjacency.
    """
    offsets, targets, weights, over, base_nodes = graph.adjacency_view()
    edge_value = semiring.edge_value
    plus = semiring.plus
    times = semiring.times
    restrict = set(source_ids) if source_ids is not None else None

    def row_entries(node_id: int) -> Iterable[Tuple[int, float]]:
        if over is not None:
            row = over.get(node_id)
            if row is not None:
                return row
        if node_id >= base_nodes:
            return ()
        return [
            (targets[index], weights[index])
            for index in range(offsets[node_id], offsets[node_id + 1])
        ]

    values: Dict[Tuple[int, int], object] = {}
    for source_id in range(graph.node_count()):
        if restrict is not None and source_id not in restrict:
            continue
        for target_id, weight in row_entries(source_id):
            pair = (source_id, target_id)
            candidate = edge_value(weight)
            incumbent = values.get(pair)
            values[pair] = candidate if incumbent is None else plus(incumbent, candidate)
    delta = dict(values)
    stats = ClosureStatistics()
    while delta and stats.iterations < max_iterations:
        candidates: Dict[Tuple[int, int], object] = {}
        for (a, b), left in delta.items():
            for target_id, weight in row_entries(b):
                candidate = times(left, edge_value(weight))
                pair = (a, target_id)
                incumbent = candidates.get(pair)
                candidates[pair] = candidate if incumbent is None else plus(incumbent, candidate)
        improved: Dict[Tuple[int, int], object] = {}
        for pair, candidate in candidates.items():
            incumbent = values.get(pair)
            if incumbent is None:
                values[pair] = candidate
                improved[pair] = candidate
            else:
                combined = plus(incumbent, candidate)
                if combined != incumbent:
                    values[pair] = combined
                    improved[pair] = combined
        stats.record_round(len(candidates), len(improved))
        delta = improved
    return values, stats


# --------------------------------------------------------- node-level facade


def compact_reachability_closure(
    graph: CompactGraph,
    *,
    sources: Optional[Iterable[Node]] = None,
) -> ClosureResult:
    """Reachability closure rows via the dispatched kernel (node-keyed result).

    Matches :func:`repro.closure.warshall.bfs_closure` exactly: per-source
    search semantics, where the trivial ``(source, source)`` fact is never
    reported (the source is its own BFS root at hop distance zero).  The
    backend — bitset BFS or chain index — is chosen by shape; answers are
    identical either way.
    """
    source_ids = _resolve_source_ids(graph, sources)
    rows, _ = reachability_rows(graph, source_ids)
    values: Dict[Pair, object] = {}
    stats = ClosureStatistics()
    for source_id in source_ids:
        visited = rows[source_id]
        source = graph.node_of(source_id)
        produced = 0
        for target_id in mask_to_ids(visited):
            if target_id == source_id:
                continue
            values[(source, graph.node_of(target_id))] = True
            produced += 1
        stats.record_round(produced, produced)
    return ClosureResult(
        values=values, semiring_name=reachability_semiring().name, statistics=stats
    )


def compact_shortest_path_closure(
    graph: CompactGraph,
    *,
    sources: Optional[Iterable[Node]] = None,
    targets: Optional[Set[Node]] = None,
) -> ClosureResult:
    """Shortest-path closure rows via the array-Dijkstra kernel (node-keyed)."""
    source_ids = _resolve_source_ids(graph, sources)
    target_ids = None
    if targets is not None:
        target_ids = {graph.try_node_id(node) for node in targets}
        target_ids.discard(-1)
    values: Dict[Pair, object] = {}
    stats = ClosureStatistics()
    for source_id in source_ids:
        dist, _, settled = array_dijkstra(graph, source_id, target_ids=target_ids)
        source = graph.node_of(source_id)
        produced = 0
        for target_id, distance in enumerate(dist):
            if distance == inf or target_id == source_id:
                continue
            if target_ids is not None and target_id not in target_ids:
                continue
            values[(source, graph.node_of(target_id))] = distance
            produced += 1
        stats.record_round(produced, produced)
    return ClosureResult(
        values=values, semiring_name=shortest_path_semiring().name, statistics=stats
    )


def compact_closure(
    graph: CompactGraph,
    *,
    semiring: Optional[Semiring] = None,
    sources: Optional[Iterable[Node]] = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> ClosureResult:
    """Closure rows for any semiring, dispatching to the fastest kernel.

    Reachability and shortest paths hit the specialised kernels; every other
    semiring runs the id-level semi-naive fixpoint.  Results are keyed by
    original nodes, so this is a drop-in for the ``DiGraph`` algorithms.
    """
    semiring = semiring or shortest_path_semiring()
    if semiring.name == "reachability":
        return compact_reachability_closure(graph, sources=sources)
    if semiring.name == "shortest_path":
        return compact_shortest_path_closure(graph, sources=sources)
    source_ids = _resolve_source_ids(graph, sources) if sources is not None else None
    id_values, stats = seminaive_closure_ids(
        graph, semiring, source_ids=source_ids, max_iterations=max_iterations
    )
    values: Dict[Pair, object] = {
        (graph.node_of(a), graph.node_of(b)): value for (a, b), value in id_values.items()
    }
    return ClosureResult(values=values, semiring_name=semiring.name, statistics=stats)


def _resolve_source_ids(graph: CompactGraph, sources: Optional[Iterable[Node]]) -> List[int]:
    """Map requested sources to ids, skipping unknown nodes (dict-path parity)."""
    if sources is None:
        return list(range(graph.node_count()))
    ids: List[int] = []
    for node in sources:
        node_id = graph.try_node_id(node)
        if node_id >= 0:
            ids.append(node_id)
    return ids
