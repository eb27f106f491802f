"""The border graph: exact multi-fragment answers from one search over border nodes.

Every path between two nodes splits at the border nodes it passes into
segments that each stay inside one fragment.  The border graph has one node
per border node and, per fragment, one arc from each of its border nodes to
each other one, weighted with the best path value between them *inside that
fragment*: the fragment's ``(F, B(F), B(F))`` border-to-border subquery,
which the local-query evaluator answers from its border rows and remembers
in its transit table.  A query searches it once:

* the source's rows inside the fragments storing it, ``(F_s, {s},
  B(F_s))``, seed the search;
* the target's rows, ``(F_t, B(F_t), {t})``, close it;
* shortest paths run Dijkstra over a heap and stop once nothing left can
  beat the best answer; any other semiring runs a worklist under
  ``semiring.is_better``.

Each row and arc is read in the direction the chain pipeline reads the same
subquery, and a path's value is summed one local value per fragment visit,
as the chain pipeline joins them: where both find the same best path they
give the same float.

This is exact for any layout, cyclic ones included, and covers the path that
leaves its fragment through one disconnection set and re-enters through
another — which no chain of distinct fragments (Sec. 2.1) contains.  Each
arc depends on one fragment's edges only, the locality Geck, Neven &
Schwentick's distribution constraints formalise.

A fragment's arcs are nothing but that subquery's entry in the site graph's
transit table, read where it lies: process-local, never in a worker payload
or a snapshot, and set aside by every ``apply_delta`` that changes the graph
(the table keeps them as ``previous`` and serves them no more).  On a worker
pool the coordinator files the workers' replies in its own tables, so it
holds every arc its searches read.

An answer is a function of its endpoints' rows and the arcs of the
fragments its search expanded, so a write leaves it standing while those
read the same.  The service re-reads a written fragment's arcs and compares
them with ``previous``: *unchanged*, *only worse* (the same arcs, none
better: an answer whose best path does not cross the fragment keeps its
value, and nothing it settled gets cheaper) or *moved*.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Callable, Dict, FrozenSet, Hashable, List, Optional, Tuple

from ..closure import Semiring
from .catalog import FragmentSite
from .local_query import TRANSIT_KEY

Node = Hashable
PathValue = object
TaskKey = Tuple[int, FrozenSet[Node], FrozenSet[Node]]
# (border node, other border node) -> best value inside the fragment.
Arcs = Dict[Tuple[Node, Node], PathValue]


def arc_task(site: FragmentSite) -> TaskKey:
    """The border-to-border task whose values are ``site``'s arcs.

    The evaluator answers it from the backward rows of the border nodes —
    the rows the fragment's source rows read — and remembers it in the
    site's transit table.
    """
    return (site.fragment_id, site.border_nodes, site.border_nodes)


def held_arcs(site: FragmentSite, semiring: Semiring) -> Optional[Arcs]:
    """The arcs ``site``'s transit table holds for ``semiring``; ``None`` when it holds none.

    A custom semiring files nothing there, so its arcs are evaluated again
    by every :func:`~repro.disconnection.core.answer_pairs` call.
    """
    table = site.derived_get(TRANSIT_KEY)
    if table is None:
        return None
    border = site.border_nodes
    entry = table.get((border, border, semiring.name))  # type: ignore[attr-defined]
    return None if entry is None else entry.values


def improves(semiring: Semiring) -> Callable[[PathValue, PathValue], bool]:
    """``semiring``'s strict improvement test (``plus`` picking the candidate when it has none)."""
    return semiring.is_better or (
        lambda candidate, incumbent: semiring.plus(incumbent, candidate) != incumbent
    )


# A search state: a border node and the fragment of the segment that reached
# it (a seed: the fragment of the source's row).  The next segment lies in
# another fragment: two segments in a row inside one fragment are never
# better than that fragment's own best path between their ends, so every
# best path has a decomposition that alternates fragments, and that is the
# one searched.  Nor does it step from fragment X straight back onto a
# border node of the fragment Y it came by: that node and the one it left
# are both in DS(X, Y), and Y's complementary shortcut between them is a
# segment inside Y no worse.  The values are then the sums the chain
# pipeline joins (one local value per fragment visit), float for float.
State = Tuple[Node, int]


@dataclass
class BorderSearch:
    """One search's outcome.

    ``value`` is the best path value (``None``: no path) and ``chain`` the
    fragments of its segments in path order.  ``settled`` are the border
    nodes the search settled (shortest paths) or labelled (any other
    semiring): every border node whose value can bear on the answer.
    ``relaxed`` counts the arcs it looked at.  ``missing`` are the fragments
    whose arcs it stopped for: while there are any, the rest is no answer
    yet.
    """

    value: Optional[PathValue] = None
    chain: Optional[Tuple[int, ...]] = None
    settled: Dict[Node, None] = field(default_factory=dict)
    relaxed: int = 0
    missing: Dict[int, None] = field(default_factory=dict)


def search(
    semiring: Semiring,
    seeds: Dict[State, PathValue],
    closing: Dict[Node, List[Tuple[PathValue, int]]],
    arcs_of: Callable[[int], Optional[Arcs]],
    fragments_of: Callable[[Node], List[int]],
    border_of: Callable[[int], FrozenSet[Node]],
    direct: Optional[Tuple[PathValue, int]] = None,
) -> BorderSearch:
    """Search the border graph from ``seeds`` to the nodes that close it.

    Args:
        seeds: ``(border node, fragment)`` -> value of the source's best
            path to that border node inside that fragment.
        closing: border node -> the values of its best paths to the target
            inside each fragment storing the target, with that fragment.
        arcs_of: a fragment's arcs, ``None`` when they are not held (the
            search stops at the first border node that needs them and names
            its fragments in ``missing``).
        fragments_of: the fragments storing a border node.
        border_of: a fragment's border nodes.
        direct: the best value of a path that never leaves the one fragment
            storing both endpoints, and that fragment.
    """
    found = BorderSearch()
    best = None if direct is None else direct[0]
    pred: Dict[State, State] = {}
    run = _dijkstra if semiring.name == "shortest_path" else _worklist
    best, end = run(semiring, seeds, closing, arcs_of, fragments_of, border_of, best, pred, found)
    found.value = best
    if best is None or found.missing:
        return found
    if end is None:  # the direct path inside the one shared fragment
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
    """The arcs of every fragment storing ``state``'s node but the one it came by.

    ``None`` (and ``found.missing`` named) when one of them is not held.
    The search stops at the first state it cannot expand: its order up to
    there does not depend on what is missing, so the fragments it asks
    for, round after round, are exactly those the finished search expands.
    """
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
    """Shortest paths: settle states in value order until none can beat ``best``.

    Every way on from a state costs its value plus at least the cheapest
    closing value, so the search stops once that sum reaches ``best``
    (float addition is monotone: no completion can round below it).
    """
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
            break  # closing here left nothing further to beat
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
    """Any other semiring: relabel states under ``is_better`` until nothing improves.

    A label is offered to the answer as it is set.  The search stops early
    once the answer is the empty path's value ``one``, which no path value
    beats in the selective semirings a service serves.
    """
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
                label = weight if value == one else times(value, weight)  # one: times' identity
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
