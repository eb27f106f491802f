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

A fragment's arcs are that subquery's entry in the site graph's transit
table, compiled once as the entry is filed (``TransitEntry.arcs``: per
source border node, its successors in border order) — in process by the
evaluator, and on a worker pool by the coordinator filing each worker's
reply in its own tables.  The search runs over a :class:`BorderGraph`, one
per catalog and semiring (``catalog.border_graphs``): every border node has
one int id, a search state ``(border node, fragment it was reached by)`` is
the int ``id * fragment count + fragment``, and a state's successor row —
``(state, value)`` pairs of every other fragment storing its node, the step
back already left out — is built the first time the state is expanded and
kept.  A row holds nothing a fragment's arcs and the border sets do not
decide, so it drops with them: the ids and every row when border
membership moves (a redraw, a write that reshapes a disconnection set), a
fragment's arcs and the rows at its border nodes when a write changes its
site graph (whose ``apply_delta`` sets the entry aside as ``previous``).  A
re-file between two writes files the values of the same graph, so the rows
stand.  A custom semiring files nothing: the arcs a call evaluates are
compiled into a graph that lives for that call.  Everything here is
process-local, never in a worker payload or a snapshot.

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
from .catalog import DistributedCatalog, FragmentSite
from .local_query import COMPACT_SEMIRINGS, TRANSIT_KEY, CompiledArcs, compile_arcs

Node = Hashable
PathValue = object
TaskKey = Tuple[int, FrozenSet[Node], FrozenSet[Node]]
# A state's successor row: (successor state, arc value) pairs in push order.
Row = Tuple[Tuple[int, PathValue], ...]


def arc_task(site: FragmentSite) -> TaskKey:
    """The border-to-border task whose values are ``site``'s arcs.

    The evaluator answers it from the backward rows of the border nodes —
    the rows the fragment's source rows read — and remembers it in the
    site's transit table.
    """
    return (site.fragment_id, site.border_nodes, site.border_nodes)


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


class BorderGraph:
    """The border graph of one catalog, compiled for one semiring.

    ``nodes[i]`` is the border node of id ``i`` and ``fragments[i]`` the
    fragments storing it; a state is ``i * count + fragment``.  ``rows``
    holds the successor rows built so far and ``arcs`` each fragment's
    compiled arcs read so far: from its transit entry (``semiring_name``
    set), or handed in by the call that evaluated them (:meth:`adopt`).
    Both are values of the current site graphs, which change only through
    the catalog, and it drops what a change moved (:meth:`drop`).
    """

    __slots__ = (
        "count", "ids", "nodes", "fragments", "borders", "arcs", "rows", "_catalog", "_name",
    )

    def __init__(self, catalog: DistributedCatalog, semiring_name: Optional[str]) -> None:
        self._catalog = catalog
        self._name = semiring_name
        sites = catalog.sites()
        self.count = len(sites)
        self.ids: Dict[Node, int] = {}
        for site in sites:
            for node in site.border_nodes:
                self.ids.setdefault(node, len(self.ids))
        self.nodes: List[Node] = list(self.ids)
        fragments_of = catalog.fragmentation.fragments_of_node
        self.fragments: List[Tuple[int, ...]] = [tuple(fragments_of(node)) for node in self.nodes]
        # Fragment -> the ids of its border nodes: the step back out of it.
        self.borders: List[FrozenSet[int]] = [
            frozenset(self.ids[node] for node in site.border_nodes) for site in sites
        ]
        self.arcs: Dict[int, CompiledArcs] = {}
        self.rows: Dict[int, Row] = {}

    def held(self, fragment: int) -> Optional[CompiledArcs]:
        """``fragment``'s compiled arcs; ``None`` when nothing holds them yet."""
        arcs = self.arcs.get(fragment)
        if arcs is None and self._name is not None:
            site = self._catalog.site(fragment)
            table = site.derived_get(TRANSIT_KEY)
            border = site.border_nodes
            entry = table.get((border, border, self._name)) if table is not None else None
            if entry is not None:
                arcs = self.arcs[fragment] = entry.arcs
        return arcs

    def adopt(self, fragment: int, values: Dict[Tuple[Node, Node], PathValue]) -> None:
        """Hold the arcs a call evaluated for ``fragment``.

        An evaluation of a standard semiring files them in the site's transit
        table, compiled; arcs nothing filed (a custom semiring's) are
        compiled here.
        """
        if self.held(fragment) is None:
            self.arcs[fragment] = compile_arcs(values, self._catalog.site(fragment).border_nodes)

    def row(self, state: int, missing: Dict[int, None]) -> Optional[Row]:
        """Build and keep ``state``'s successor row; ``None`` (``missing`` named) without arcs.

        The arcs of every fragment storing the state's node but the one it
        came by, each fragment in ``fragments`` order and its successors in
        border order — the order the search pushes them in.  The search
        stops at the first state it cannot expand: its order up to there
        does not depend on what is missing, so the fragments it asks for,
        round after round, are exactly those the finished search expands.
        """
        count = self.count
        node, via = divmod(state, count)
        held = []
        for fragment in self.fragments[node]:
            if fragment != via:
                arcs = self.held(fragment)
                if arcs is None:
                    missing[fragment] = None
                else:
                    held.append((fragment, arcs))
        if missing:
            return None
        ids, back, source = self.ids, self.borders[via], self.nodes[node]
        row = []
        for fragment, arcs in held:
            for successor, value in arcs.get(source, ()):
                after = ids[successor]
                if after not in back:
                    row.append((after * count + fragment, value))
        built = self.rows[state] = tuple(row)
        return built

    def drop(self, fragment: int) -> None:
        """Forget ``fragment``'s arcs and the rows of every state at its border nodes."""
        self.arcs.pop(fragment, None)
        count, rows = self.count, self.rows
        for node in self.borders[fragment]:
            for via in self.fragments[node]:
                rows.pop(node * count + via, None)


def compiled_border_graph(catalog: DistributedCatalog, semiring: Semiring) -> BorderGraph:
    """The catalog's border graph for ``semiring``: kept for a standard one, a call's for any other."""
    name = semiring.name
    if name not in COMPACT_SEMIRINGS:
        return BorderGraph(catalog, None)
    graph = catalog.border_graphs.get(name)
    if graph is None:
        graph = catalog.border_graphs[name] = BorderGraph(catalog, name)
    return graph


@dataclass
class BorderSearch:
    """One search's outcome.

    ``value`` is the best path value (``None``: no path), ``chain`` the
    fragments of its segments in path order and ``borders`` the border
    nodes between them (``len(chain) == len(borders) + 1``).  ``settled``
    are the ids of the border nodes the search settled (shortest paths) or labelled (any other
    semiring), in that order: every border node whose value can bear on the
    answer.  ``relaxed`` counts the arcs it looked at.  ``missing`` are the
    fragments whose arcs it stopped for: while there are any, the rest is no
    answer yet.
    """

    value: Optional[PathValue] = None
    chain: Optional[Tuple[int, ...]] = None
    borders: Tuple[Node, ...] = ()
    settled: Dict[int, None] = field(default_factory=dict)
    relaxed: int = 0
    missing: Dict[int, None] = field(default_factory=dict)


def search(
    graph: BorderGraph,
    semiring: Semiring,
    seeds: Dict[int, PathValue],
    closing: Dict[int, List[Tuple[PathValue, int]]],
    direct: Optional[Tuple[PathValue, int]] = None,
) -> BorderSearch:
    """Search ``graph`` from ``seeds`` to the border nodes that close it.

    Args:
        seeds: state -> value of the source's best path to that state's
            border node inside that state's fragment.
        closing: border node id -> the values of its best paths to the
            target inside each fragment storing the target, with that
            fragment.
        direct: the best value of a path that never leaves the one fragment
            storing both endpoints, and that fragment.

    A state whose row cannot be built (a fragment's arcs are not held) stops
    the search and names that state's missing fragments in ``missing``.
    """
    found = BorderSearch()
    best = None if direct is None else direct[0]
    pred: Dict[int, int] = {}
    if semiring.name == "shortest_path":
        best, end = _dijkstra(graph, seeds, closing, best, pred, found)
    else:
        best, end = _worklist(graph, semiring, seeds, closing, best, pred, found)
    found.value = best
    if best is None or found.missing:
        return found
    if end is None:  # the direct path inside the one shared fragment
        found.chain = (direct[1],)  # type: ignore[index]
        return found
    count, nodes = graph.count, graph.nodes
    state, closing_fragment = end
    node, fragment = divmod(state, count)
    fragments, borders = [closing_fragment, fragment], [nodes[node]]
    while state in pred:
        state = pred[state]
        node, fragment = divmod(state, count)
        fragments.append(fragment)
        borders.append(nodes[node])
    found.chain = tuple(reversed(fragments))
    found.borders = tuple(reversed(borders))
    return found


def _dijkstra(graph, seeds, closing, best, pred, found):
    """Shortest paths: settle states in value order until none can beat ``best``.

    Every way on from a state costs its value plus at least the cheapest
    closing value, so the search stops once that sum reaches ``best``
    (float addition is monotone: no completion can round below it).
    """
    if not closing:
        return best, None
    cheapest = min(close for closes in closing.values() for close, _ in closes)
    end = None
    count, rows, settled = graph.count, graph.rows, found.settled
    distance: Dict[int, float] = dict(seeds)
    heap = [(value, order, state) for order, (state, value) in enumerate(seeds.items())]
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
        node = state // count
        settled[node] = None
        closes = closing.get(node)
        if closes is not None:
            via = state - node * count
            for close, fragment in closes:
                if fragment != via and (best is None or value + close < best):
                    best, end = value + close, (state, fragment)
            if best is not None and value + cheapest >= best:
                break  # closing here left nothing further to beat
        row = rows.get(state)
        if row is None:
            row = graph.row(state, found.missing)
            if row is None:
                break
        relaxed += len(row)
        for after, weight in row:
            if after in done:
                continue
            candidate = value + weight
            incumbent = distance.get(after)
            if incumbent is None or candidate < incumbent:
                distance[after] = candidate
                pred[after] = state
                order += 1
                heappush(heap, (candidate, order, after))
    found.relaxed = relaxed
    return best, end


def _worklist(graph, semiring, seeds, closing, best, pred, found):
    """Any other semiring: relabel states under ``is_better`` until nothing improves.

    A label is offered to the answer as it is set.  The search stops early
    once the answer is the empty path's value ``one``, which no path value
    beats in the selective semirings a service serves.
    """
    better = improves(semiring)
    times, one = semiring.times, semiring.one
    count, rows = graph.count, graph.rows
    end = None

    def offer(state, value):
        nonlocal best, end
        closes = closing.get(state // count)
        if closes is None:
            return
        via = state % count
        for close, fragment in closes:
            if fragment != via:
                candidate = times(value, close)
                if best is None or (candidate != best and better(candidate, best)):
                    best, end = candidate, (state, fragment)

    labels: Dict[int, PathValue] = dict(seeds)
    for state, value in seeds.items():
        offer(state, value)
    queue = deque(seeds)
    queued = set(seeds)
    relaxed = 0
    while queue and best != one:
        state = queue.popleft()
        queued.discard(state)
        value = labels[state]
        row = rows.get(state)
        if row is None:
            row = graph.row(state, found.missing)
            if row is None:
                break
        relaxed += len(row)
        for after, weight in row:
            label = weight if value == one else times(value, weight)  # one: times' identity
            incumbent = labels.get(after)
            if incumbent is None or (label != incumbent and better(label, incumbent)):
                labels[after] = label
                pred[after] = state
                offer(after, label)
                if after not in queued:
                    queued.add(after)
                    queue.append(after)
    found.settled.update(dict.fromkeys(state // count for state in labels))
    found.relaxed = relaxed
    return best, end
