"""The harness's own answer oracle.

A ``heapq`` Dijkstra and a BFS over an adjacency dict the harness builds from
the arcs it generated — nothing here imports ``repro``, so a bug shared by the
program's graph layer and its kernels cannot hide behind an oracle built on
the same code.  Writes are mirrored with :meth:`Oracle.apply`.

:func:`check_log` replays an op log against a fresh oracle after the clock
has stopped: writes are applied in stream order, every sampled read is
compared with the oracle's answer for the graph state it was issued against.
"""

from __future__ import annotations

import heapq
from collections import deque
from math import isclose
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from graphs import Arc

SHORTEST_PATH = "shortest_path"
REACHABILITY = "reachability"

# Floating-point sums are taken in a different order by the program (per
# fragment, then across the chain) than by one whole-graph Dijkstra.
REL_TOLERANCE = 1e-9


class Oracle:
    """Adjacency-dict graph with single-source shortest paths and reachability."""

    def __init__(self, arcs: Iterable[Arc]) -> None:
        self.adjacency: Dict[int, Dict[int, float]] = {}
        for source, target, weight in arcs:
            self.adjacency.setdefault(source, {})[target] = weight
            self.adjacency.setdefault(target, {})

    def apply(self, write: Tuple) -> None:
        """Mirror one ``("write", kind, source, target, weight, symmetric)`` op."""
        _, kind, source, target, weight, symmetric = write
        pairs = [(source, target), (target, source)] if symmetric else [(source, target)]
        for a, b in pairs:
            if kind == "delete":
                self.adjacency.get(a, {}).pop(b, None)
            else:  # insert and reweight both upsert
                self.adjacency.setdefault(a, {})[b] = weight
                self.adjacency.setdefault(b, {})

    def distances(self, source: int) -> Dict[int, float]:
        """Shortest distance from ``source`` to every node it reaches."""
        best = {source: 0.0}
        heap: List[Tuple[float, int]] = [(0.0, source)]
        done = set()
        while heap:
            distance, node = heapq.heappop(heap)
            if node in done:
                continue
            done.add(node)
            for neighbour, weight in self.adjacency.get(node, {}).items():
                candidate = distance + weight
                if candidate < best.get(neighbour, float("inf")):
                    best[neighbour] = candidate
                    heapq.heappush(heap, (candidate, neighbour))
        return best

    def reachable(self, source: int) -> set:
        """Every node reachable from ``source`` by at least zero arcs."""
        seen = {source}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for neighbour in self.adjacency.get(node, {}):
                if neighbour not in seen:
                    seen.add(neighbour)
                    queue.append(neighbour)
        return seen


def agrees(kind: str, expected: object, got: object) -> bool:
    """Whether a program answer matches the oracle's for one pair."""
    if kind == REACHABILITY:
        return bool(expected) == bool(got)
    if expected is None or got is None:
        return expected is None and got is None
    try:
        return isclose(float(got), float(expected), rel_tol=REL_TOLERANCE, abs_tol=1e-12)
    except (TypeError, ValueError):
        return False


def check_log(
    arcs: Sequence[Arc],
    kind: str,
    log: Sequence[Tuple[Tuple, object]],
    sampled: Callable[[int], bool],
) -> Tuple[int, int]:
    """Compare logged answers with the oracle; returns ``(checked, mismatched)``.

    Args:
        arcs: the graph the op stream started from.
        kind: ``"shortest_path"`` or ``"reachability"``.
        log: ``(op, result)`` in issue order.  Ops are ``("query", s, t)``,
            ``("raw", s, t)``, ``("batch", pairs)`` and
            ``("write", kind, s, t, weight, symmetric)``; a batch's result is
            the list of its values in submission order.
        sampled: ``source -> bool``; only reads from sampled sources are
            compared (all writes are always applied).

    Reads between two writes see one graph state: they are grouped by source,
    each source is searched once, compared and forgotten, so the check holds
    one distance table at a time however long the log is.
    """
    oracle = Oracle(arcs)
    checked = mismatched = 0
    pending: Dict[int, List[Tuple[int, object]]] = {}

    def settle() -> None:
        nonlocal checked, mismatched
        for source, reads in pending.items():
            found = oracle.reachable(source) if kind == REACHABILITY else oracle.distances(source)
            for target, value in reads:
                expected = (target in found) if kind == REACHABILITY else found.get(target)
                checked += 1
                if value is _MISSING or not agrees(kind, expected, value):
                    mismatched += 1
        pending.clear()

    for op, result in log:
        if op[0] == "write":
            settle()
            oracle.apply(op)
            continue
        if op[0] == "batch":
            pairs = op[1]
            values: Sequence[object] = (
                result
                if isinstance(result, list) and len(result) == len(pairs)
                else [_MISSING] * len(pairs)
            )
        else:
            pairs = ((op[1], op[2]),)
            values = (result,)
        for (source, target), value in zip(pairs, values):
            if sampled(source):
                pending.setdefault(source, []).append((target, value))
    settle()
    return checked, mismatched


_MISSING = object()


def closure_pairs(oracle: Oracle) -> Dict[int, set]:
    """Reachability closure rows ``source -> targets`` (the source itself excluded)."""
    rows: Dict[int, set] = {}
    for source in oracle.adjacency:
        targets = oracle.reachable(source)
        targets.discard(source)
        rows[source] = targets
    return rows
