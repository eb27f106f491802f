"""The dict-probing border-graph search, kept as a reference implementation.

This is what :func:`repro.disconnection.border_graph.search` ran before the
border graph was compiled: states are ``(border node, fragment)`` tuples, and
every expansion asks for the fragments storing the node, each fragment's
arcs and border set, and probes ``arcs.get((node, successor))`` for every
border node of each fragment it crosses.  The compiled search must settle
the same states in the same order and give the same value, chain, relaxed
count and missing fragments, float for float.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Callable, Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.closure import Semiring
from repro.disconnection.border_graph import improves
from repro.disconnection.catalog import FragmentSite
from repro.disconnection.local_query import TRANSIT_KEY

Node = Hashable
PathValue = object
Arcs = Dict[Tuple[Node, Node], PathValue]
State = Tuple[Node, int]


def held_arcs(site: FragmentSite, semiring: Semiring) -> Optional[Arcs]:
    """The arcs ``site``'s transit table holds for ``semiring``; ``None`` when it holds none."""
    table = site.derived_get(TRANSIT_KEY)
    if table is None:
        return None
    border = site.border_nodes
    entry = table.get((border, border, semiring.name))  # type: ignore[attr-defined]
    return None if entry is None else entry.values


@dataclass
class DictSearch:
    """One oracle search: as :class:`~repro.disconnection.border_graph.BorderSearch`, by node."""

    value: Optional[PathValue] = None
    chain: Optional[Tuple[int, ...]] = None
    settled: Dict[Node, None] = field(default_factory=dict)
    relaxed: int = 0
    missing: Dict[int, None] = field(default_factory=dict)


def dict_search(
    semiring: Semiring,
    seeds: Dict[State, PathValue],
    closing: Dict[Node, List[Tuple[PathValue, int]]],
    arcs_of: Callable[[int], Optional[Arcs]],
    fragments_of: Callable[[Node], List[int]],
    border_of: Callable[[int], FrozenSet[Node]],
    direct: Optional[Tuple[PathValue, int]] = None,
) -> DictSearch:
    """Search the border graph from ``seeds`` (``(node, fragment) -> value``) to ``closing``."""
    found = DictSearch()
    best = None if direct is None else direct[0]
    pred: Dict[State, State] = {}
    run = _dijkstra if semiring.name == "shortest_path" else _worklist
    best, end = run(semiring, seeds, closing, arcs_of, fragments_of, border_of, best, pred, found)
    found.value = best
    if best is None or found.missing:
        return found
    if end is None:
        found.chain = (direct[1],)  # type: ignore[index]
        return found
    state, closing_fragment = end
    fragments = [closing_fragment, state[1]]
    while state in pred:
        state = pred[state]
        fragments.append(state[1])
    found.chain = tuple(reversed(fragments))
    return found


def _arcs_at(state, fragments_of, arcs_of, found):
    node, via = state
    held = []
    for fragment in fragments_of(node):
        if fragment == via:
            continue
        arcs = arcs_of(fragment)
        if arcs is None:
            found.missing[fragment] = None
        else:
            held.append((fragment, arcs))
    return None if found.missing else held


def _dijkstra(semiring, start, closing, arcs_of, fragments_of, border_of, best, pred, found):
    if not closing:
        return best, None
    cheapest = min(close for closes in closing.values() for close, _ in closes)
    end = None
    distance: Dict[State, float] = dict(start)
    heap = [(value, order, state) for order, (state, value) in enumerate(start.items())]
    heapify(heap)
    order = len(heap)
    done = set()
    relaxed = 0
    while heap:
        value, _, state = heappop(heap)
        if state in done:
            continue
        if best is not None and value + cheapest >= best:
            break
        done.add(state)
        found.settled[state[0]] = None
        for close, fragment in closing.get(state[0], ()):
            if fragment != state[1] and (best is None or value + close < best):
                best, end = value + close, (state, fragment)
        if best is not None and value + cheapest >= best:
            break
        held = _arcs_at(state, fragments_of, arcs_of, found)
        if held is None:
            break
        node, back = state[0], border_of(state[1])
        for fragment, arcs in held:
            for successor in border_of(fragment):
                weight = None if successor in back else arcs.get((node, successor))
                if weight is None:
                    continue
                relaxed += 1
                candidate = value + weight
                after = (successor, fragment)
                incumbent = distance.get(after)
                if after not in done and (incumbent is None or candidate < incumbent):
                    distance[after] = candidate
                    pred[after] = state
                    order += 1
                    heappush(heap, (candidate, order, after))
    found.relaxed = relaxed
    return best, end


def _worklist(semiring, start, closing, arcs_of, fragments_of, border_of, best, pred, found):
    better = improves(semiring)
    times, one = semiring.times, semiring.one
    end = None

    def offer(state, value):
        nonlocal best, end
        for close, fragment in closing.get(state[0], ()):
            if fragment != state[1]:
                candidate = times(value, close)
                if best is None or (candidate != best and better(candidate, best)):
                    best, end = candidate, (state, fragment)

    labels: Dict[State, PathValue] = dict(start)
    for state, value in start.items():
        offer(state, value)
    queue = deque(start)
    queued = set(start)
    relaxed = 0
    while queue and best != one:
        state = queue.popleft()
        queued.discard(state)
        value = labels[state]
        held = _arcs_at(state, fragments_of, arcs_of, found)
        if held is None:
            break
        node, back = state[0], border_of(state[1])
        for fragment, arcs in held:
            for successor in border_of(fragment):
                weight = None if successor in back else arcs.get((node, successor))
                if weight is None:
                    continue
                relaxed += 1
                label = weight if value == one else times(value, weight)
                after = (successor, fragment)
                incumbent = labels.get(after)
                if incumbent is None or (label != incumbent and better(label, incumbent)):
                    labels[after] = label
                    pred[after] = state
                    offer(after, label)
                    if after not in queued:
                        queued.add(after)
                        queue.append(after)
    found.settled.update(dict.fromkeys(state[0] for state in labels))
    found.relaxed = relaxed
    return best, end
