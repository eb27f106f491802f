"""Per-fragment local query evaluation.

Each site evaluates a restricted transitive closure over its own fragment:
"the best path value from every entry node to every exit node".  The entry
nodes act as the selection the paper calls a *keyhole* — only paths travelling
through the disconnection set have to be examined — and the fragment subgraph
is augmented with the complementary-information shortcuts so paths that leave
the fragment (or the chain) are still accounted for, without communication.

Any single-processor algorithm may be used for this step (Sec. 2.1).  For the
two standard semirings the evaluator runs the compact kernels of
:mod:`repro.closure.kernels` over the site's cached
:class:`~repro.graph.compact.CompactGraph` — bitset BFS for reachability,
array-heap Dijkstra for shortest paths — and a custom semiring runs a
restricted semi-naive fixpoint over the dict subgraph.  The work counters it
returns (iterations ≈ fragment diameter, tuples produced) feed the parallel
cost model.

Of the three kinds of subquery a chain splits into (Sec. 2.1) none depends on
more than the fragment, its border nodes and one query node, and the kernel
path memoizes them in the derived store of the site's compact graph:

* every subquery with a side inside the border set is read from
  :class:`BorderRows`: per border node and direction one row filled by one
  untargeted search the first time a subquery is rooted at that border node —
  the shortest distances to (or from) every node of the fragment, or for
  reachability the int bitset of the nodes it reaches (or that reach it);
* the middle one — border to border inside an intermediate fragment — does not
  depend on the query at all; its whole result is also remembered in a
  :class:`TransitTable`, which lets the coordinator of a worker pool answer it
  without routing.  The entry whose sides are both the site's border nodes
  holds the fragment's border-graph arcs, and is compiled as it is filed
  (:attr:`TransitEntry.arcs`, :func:`compile_arcs`): the form the
  border-graph search builds its successor rows from, dropped with the entry.

``CompactGraph.apply_delta`` hands the rows the arcs a write removed and
inserted; a row keeps itself when it provably cannot have moved
(:meth:`BorderRows.survive_delta`).  The transit table serves nothing it held
before a write, and refills from the surviving rows without a search; it
keeps the values it held as :attr:`TransitTable.previous`, which the service
compares with the refilled ones to tell a write that moved a fragment's
border-graph arcs from one that did not (:meth:`TransitTable.survive_delta`).
What still searches is a subquery with no side inside the border set (a
same-fragment query) and the fill of a row a write dropped.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from math import inf
from time import perf_counter
from typing import Callable, Dict, Hashable, List, NamedTuple, Optional, Sequence, Tuple

from ..closure import (
    BACKEND_BIGINT,
    ClosureStatistics,
    Semiring,
    array_dijkstra,
    bitset_reachable,
    reachability_rows,
    record_selection,
    shortest_path_semiring,
)
from ..closure.backends import set_active_backend
from ..graph import CompactGraph
from .catalog import CompactFragmentSite, FragmentSite
from .planner import LocalQuerySpec

Node = Hashable
PathValue = object

COMPACT_SEMIRINGS = ("shortest_path", "reachability")

# Derived-store key of a site graph's transit table.
TRANSIT_KEY = "transit_table"

# (entry nodes, exit nodes, semiring name)
TransitKey = Tuple[frozenset, frozenset, str]
# (source id, target id, weight): an arc a delta took out or put in.
Arc = Tuple[int, int, float]


# A fragment's border-graph arcs per source border node: each successor with
# its value, in the iteration order of the site's border nodes.
CompiledArcs = Dict[Node, Tuple[Tuple[Node, PathValue], ...]]


class TransitEntry(NamedTuple):
    """What one border-to-border evaluation produced, as a hit replays it.

    ``arcs`` is set on the entry whose entry and exit sets are both the
    site's border nodes: its values compiled once, as filed, into what the
    border-graph search reads (:func:`compile_arcs`).
    """

    values: Dict[Tuple[Node, Node], PathValue]
    iterations: int
    tuples_produced: int
    delta_sizes: Tuple[int, ...]
    backend: Optional[str]
    arcs: Optional[CompiledArcs] = None


def compile_arcs(values: Dict[Tuple[Node, Node], PathValue], border: frozenset) -> CompiledArcs:
    """``values`` of a fragment's border-to-border subquery, per source, successors in ``border``'s order.

    The order is the one the border-graph search pushes successors in, so a
    search over compiled arcs settles in the order a search probing
    ``values`` for every border node did.
    """
    compiled: CompiledArcs = {}
    for source in border:
        out = tuple(
            (target, value)
            for target in border
            if (value := values.get((source, target))) is not None
        )
        if out:
            compiled[source] = out
    return compiled


class TransitTable(Dict[TransitKey, TransitEntry]):
    """The remembered border-to-border results of one site graph.

    Filled lazily, one entry per distinct ``(entry set, exit set)`` a plan
    asks for, so its size is bounded by the layout: entry and exit sets are
    disconnection sets or single border nodes, at most
    ``(#disconnection sets + #border nodes)²`` pairs per fragment.  There is
    no capacity and no eviction.  The graph's ``apply_delta`` calls
    :meth:`survive_delta` whenever the adjacency the entries were computed
    from changes: the table then serves nothing it held, and the next
    evaluations refill it from the border rows that survived.  What it held
    stays readable as :attr:`previous` until the next change.
    """

    __slots__ = ("previous",)

    def __init__(self) -> None:
        super().__init__()
        # key -> the values the table held when the adjacency last changed.
        self.previous: Dict[TransitKey, Dict[Tuple[Node, Node], PathValue]] = {}

    def survive_delta(self, removed: Sequence[Arc], inserted: Sequence[Arc]) -> None:
        """Move every entry to :attr:`previous`: none is served across a change.

        Called for a non-empty delta that interns no node (an empty one
        leaves the table alone, one that interns a node drops it).  A key
        missing from :attr:`previous` says nothing about how its values
        moved: nothing had read them since the change before.  The compiled
        arcs go with their entries; the catalog drops the border-graph rows
        built from them (:meth:`~repro.disconnection.border_graph.BorderGraph.drop`).
        """
        self.previous = {key: entry.values for key, entry in self.items()}
        self.clear()

    def to_state(self) -> None:
        """Process-local: never part of a graph state, payload or snapshot."""
        return None


# Derived-store keys of a site graph's border rows, by semiring name.
BORDER_ROWS_KEY = "border_rows"
ROWS_KEYS = {"shortest_path": BORDER_ROWS_KEY, "reachability": "border_rows_reachability"}


class BorderRow(NamedTuple):
    """The untargeted shortest-path search from one border node, as every reader replays it."""

    distances: "array[float]"  # by node id; ``inf`` where there is no path
    settled: int

    def survives(self, removed: Sequence[Arc], inserted: Sequence[Arc]) -> bool:
        """Whether no removed arc is tight on the row and no inserted arc improves it."""
        d = self.distances
        return not (
            any(d[t] != inf and d[s] + w <= d[t] for s, t, w in removed)
            or any(d[s] + w < d[t] for s, t, w in inserted)
        )

    def book(self, result: "LocalQueryResult", root: Node, targets: List[Tuple[Node, int]]) -> None:
        """File the row's finite distances to ``targets`` in ``result``, rooted at ``root``."""
        _book_round(result, root, targets, self.distances, self.settled)

    def nbytes(self) -> int:
        return len(self.distances) * self.distances.itemsize


class BitsetRow(NamedTuple):
    """The untargeted BFS from one border node: the int bitset of the ids it reaches."""

    reached: int  # bit ``x`` set when the root reaches ``x`` (forward) or ``x`` reaches it
    settled: int  # the bits set

    def survives(self, removed: Sequence[Arc], inserted: Sequence[Arc]) -> bool:
        """Whether no removed arc starts in the set and no inserted arc leads out of it."""
        r = self.reached
        return not (
            any(r >> s & 1 for s, _, _ in removed)
            or any(r >> s & 1 and not r >> t & 1 for s, t, _ in inserted)
        )

    def book(self, result: "LocalQueryResult", root: Node, targets: List[Tuple[Node, int]]) -> None:
        """File the ``targets`` the row holds in ``result``, rooted at ``root``."""
        backward = result.backward
        reached = self.reached
        produced = 0
        for target, target_id in targets:
            if reached >> target_id & 1:
                result.values[(target, root) if backward else (root, target)] = True
                produced += 1
        result.statistics.record_round(self.settled, produced)

    def nbytes(self) -> int:
        return (self.reached.bit_length() + 7) // 8


class BorderRows(Dict[Tuple[int, bool], "BorderRow | BitsetRow"]):
    """The memoized endpoint searches of one site graph, for one standard semiring.

    ``(b, True)`` holds the backward search from border node id ``b`` (the
    ``dist(x -> b)`` of every node id ``x``, or the bitset of the ids that
    reach ``b``), ``(b, False)`` the forward one (``dist(b -> x)``, or the ids
    ``b`` reaches).  A row is a pure function of the graph, filled the first
    time a subquery is rooted at ``b`` in that direction, so the store is
    bounded by the layout: at most ``2 * |border nodes|`` rows of
    ``node_count`` doubles (or bits) per fragment.  No capacity and no
    eviction: the graph's ``apply_delta`` calls :meth:`survive_delta`, which
    drops each row the write may have moved.
    """

    __slots__ = ()

    def survive_delta(self, removed: Sequence[Arc], inserted: Sequence[Arc]) -> None:
        """Drop every row the arc changes ``removed`` / ``inserted`` may have moved.

        Backward rows see each arc with its ends swapped.  A distance row
        ``d`` stays a fresh search's answer when every removed arc ``s -> t``
        of weight ``w`` is slack (``d[s] + w > d[t]``, or ``d[t]`` is
        ``inf``: no shortest path uses it) and no inserted arc improves on it
        (``d[s] + w >= d[t]``).  Float addition is monotone, so a kept row is
        bit for bit the row a search of the new graph would fill, with the
        same settled count.  A bitset row ``R`` stays when no removed arc has
        its tail in ``R`` and no inserted arc leads from ``R`` out of it: ``R``
        is then still closed under the arcs and every path that built it is
        intact.  An arc both removed and inserted (a reweight) still joins its
        ends, so a bitset row does not count it as removed.
        """
        if not self:
            return
        if isinstance(next(iter(self.values())), BitsetRow):
            joined = {(s, t) for s, t, _ in inserted}
            removed = [arc for arc in removed if arc[:2] not in joined]
        flipped = [(t, s, w) for s, t, w in removed], [(t, s, w) for s, t, w in inserted]
        for key, row in list(self.items()):
            out, into = flipped if key[1] else (removed, inserted)
            if not row.survives(out, into):
                del self[key]

    def to_state(self) -> None:
        """Process-local: never part of a graph state, payload or snapshot."""
        return None

    def nbytes(self) -> int:
        """The bytes the rows' distance arrays (or bitsets) hold."""
        return sum(row.nbytes() for row in self.values())


def border_rows_held(site: FragmentSite | CompactFragmentSite) -> Tuple[int, int]:
    """Return ``(rows, bytes)`` of the border rows ``site``'s augmented graph holds."""
    rows = size = 0
    for key in ROWS_KEYS.values():
        held = site.derived_get(key)
        if held:
            rows += len(held)  # type: ignore[arg-type]
            size += held.nbytes()  # type: ignore[union-attr]
    return rows, size


@dataclass
class LocalQueryResult:
    """The result of one per-fragment subquery.

    Attributes:
        fragment_id: the site that produced the result.
        values: mapping ``(entry_node, exit_node) -> best path value``.
        statistics: work counters for the local evaluation.
        backend: which kernel backend served the evaluation (``bigint`` or
            ``chain``, or ``dijkstra``/``dict`` for the shortest-path kernel
            and the custom-semiring fixpoint); for a result read from border
            rows, the kernel that filled them.  Surfaces in worker payloads
            and trace spans.
        overlay: whether the site's compact graph carried an uncompacted
            delta overlay at evaluation time — the kernels read straight
            through it; surfaces in worker payloads and trace spans.
        memoized: whether the values were replayed from the site's transit
            table or read from its border rows without a single search; the
            work counters are those of the evaluation that filled the memo —
            a memoized result and the one that searched report the same
            ``statistics`` apart from ``elapsed_seconds``.
        searches: the searches this result ran itself: each Dijkstra run,
            and each border row it had to fill (for reachability a full
            BFS); 0 when memoized.  The keyhole kernel of a reachability
            subquery that reads no rows counts none.
        backward: whether the searches — or the border rows read in their
            place — are rooted at the exit nodes and run against the edges.
        rows_read, rows_filled: the border rows this result found filled, and
            filled itself.
    """

    fragment_id: int
    values: Dict[Tuple[Node, Node], PathValue] = field(default_factory=dict)
    statistics: ClosureStatistics = field(default_factory=ClosureStatistics)
    backend: Optional[str] = field(default=None, compare=False)
    overlay: bool = field(default=False, compare=False)
    memoized: bool = field(default=False, compare=False)
    searches: int = field(default=0, compare=False)
    backward: bool = field(default=False, compare=False)
    rows_read: int = field(default=0, compare=False)
    rows_filled: int = field(default=0, compare=False)

    def is_empty(self) -> bool:
        """Return ``True`` when no entry node reaches any exit node."""
        return not self.values


def _direction(border: Optional[frozenset], spec: LocalQuerySpec) -> Tuple[bool, bool]:
    """``(from_rows, backward)``: whether ``spec`` reads border rows, and which way it runs.

    A side inside the border set reads the rows rooted there.  Root at the
    smaller side when both sides are (or neither is, and the searches run on
    the spot) — backward from the exits when there are fewer exits than
    entries, and for rows also when there are as many: the border graph's
    arcs, one border set on both sides, read the backward rows its source
    rows read in the same fragment, so a write's dropped rows refill once for
    both.  A function of the spec and the border set alone, so a replayed
    result reports the direction it was found in.  ``border`` is ``None``
    where no rows are read (a site that does not know its borders).
    """
    exits_on_border = border is not None and spec.exit_nodes <= border
    entries_on_border = border is not None and spec.entry_nodes <= border
    from_rows = exits_on_border or entries_on_border
    if exits_on_border != entries_on_border:
        return from_rows, exits_on_border
    return from_rows, len(spec.exit_nodes) < len(spec.entry_nodes) or (
        from_rows and len(spec.exit_nodes) == len(spec.entry_nodes)
    )


def _book_round(
    result: LocalQueryResult,
    root: Node,
    targets: List[Tuple[Node, int]],
    distances: Sequence[float],
    settled: int,
) -> None:
    """File the finite ``root``-to-target distances of one search (or row) in ``result``."""
    backward = result.backward
    produced = 0
    for target, target_id in targets:
        distance = distances[target_id]
        if distance != inf:
            result.values[(target, root) if backward else (root, target)] = distance
            produced += 1
    result.statistics.record_round(settled, produced)


def _distance_row(graph: CompactGraph, root_id: int, backward: bool) -> BorderRow:
    distances, _, settled = array_dijkstra(graph, root_id, backward=backward)
    return BorderRow(array("d", distances), settled)


def _bitset_row(graph: CompactGraph, root_id: int, backward: bool) -> BitsetRow:
    """One full big-int BFS: a recorded kernel selection, as every reachability dispatch is."""
    record_selection(BACKEND_BIGINT, "local_query")
    set_active_backend(BACKEND_BIGINT)
    try:
        reached = bitset_reachable(graph, root_id, backward=backward)
    finally:
        set_active_backend(None)
    return BitsetRow(reached, reached.bit_count())


class LocalQueryEvaluator:
    """Evaluates :class:`LocalQuerySpec` subqueries against a fragment site.

    Args:
        semiring: the path problem (defaults to shortest paths).
        use_shortcuts: disable to evaluate on the bare fragment subgraph
            (ablation runs).

    The two standard semirings run the compact kernels over the site's
    cached ``CompactGraph``; a custom semiring runs the dict-based fixpoint.
    The evaluator accepts either a full :class:`FragmentSite` or the
    plain-data :class:`CompactFragmentSite` a pool worker holds; the latter
    supports the standard semirings only.

    On the kernel path a subquery whose entry and exit sets both consist of
    the site's border nodes is answered from the site's
    :class:`TransitTable` once it has been evaluated; ``transit_hits`` and
    ``transit_misses`` count those lookups.  A subquery with a side inside
    the border set that the table does not answer reads that side's
    :class:`BorderRows` (the smaller side's when both are inside): distance
    rows for shortest paths, bitset rows for reachability.  Its result's
    ``rows_read`` and ``rows_filled`` count the rows it found and the rows it
    had to search for.  Custom semirings and sites that do not know their
    borders (a hand-built :class:`CompactFragmentSite`) touch neither.

    Callers that hold several subqueries at once — the chains of a query, a
    batch, one routed message — hand them to :meth:`evaluate_many` together.
    """

    def __init__(
        self,
        *,
        semiring: Optional[Semiring] = None,
        use_shortcuts: bool = True,
    ) -> None:
        self._semiring = semiring or shortest_path_semiring()
        self._use_shortcuts = use_shortcuts
        self._rows_key = ROWS_KEYS.get(self._semiring.name)
        self.transit_hits = 0
        self.transit_misses = 0

    @property
    def semiring(self) -> Semiring:
        """The path problem being evaluated."""
        return self._semiring

    @property
    def use_shortcuts(self) -> bool:
        """Whether sites are evaluated with their complementary shortcuts."""
        return self._use_shortcuts

    def evaluate(
        self, site: FragmentSite | CompactFragmentSite, spec: LocalQuerySpec
    ) -> LocalQueryResult:
        """Evaluate ``spec`` on ``site``: the one-task case of :meth:`evaluate_many`."""
        return self.evaluate_many(lambda _fragment_id: site, (spec,))[0]

    def evaluate_many(
        self,
        site_of: Callable[[int], FragmentSite | CompactFragmentSite],
        specs: Sequence[LocalQuerySpec],
    ) -> List[LocalQueryResult]:
        """Evaluate one task set and return its results in the order of ``specs``.

        ``site_of`` maps a fragment id to the site that evaluates it (a
        catalog's ``site``, a worker's pinned sites); it is asked once per
        fragment.  A subquery's values are a function of its site graph and
        itself alone, never of what it was handed in with.

        Every result's statistics carry ``elapsed_seconds``, timed here so
        the measurement happens in whichever process runs the kernel — a
        worker's in-process timing ships back with the result, needing no
        clock agreement with the coordinator.  The clock covers the kernel
        (or the memo lookup) only: a site's lazy state is forced first.
        """
        results: List[LocalQueryResult] = []
        resolved: Dict[int, Tuple[FragmentSite | CompactFragmentSite, Optional[CompactGraph]]] = {}
        for spec in specs:
            fragment_id = spec.fragment_id
            known = resolved.get(fragment_id)
            if known is None:
                site = site_of(fragment_id)
                compact = self._runs_compact(site)
                site.derive(compact=compact, use_shortcuts=self._use_shortcuts)
                known = resolved[fragment_id] = (
                    site,
                    site.compact(use_shortcuts=self._use_shortcuts) if compact else None,
                )
            site, graph = known
            started = perf_counter()
            result = LocalQueryResult(fragment_id=fragment_id)
            results.append(result)
            if graph is None:
                self._evaluate_generic(site, spec, result)
            else:
                self._evaluate_compact(site, graph, spec, result)
            result.statistics.elapsed_seconds = perf_counter() - started
        return results

    def rows_kept(self, site: FragmentSite | CompactFragmentSite, spec: LocalQuerySpec) -> bool:
        """Whether ``spec`` reads border rows only, and ``site`` still holds all of them.

        A delta drops every row it may have moved, so such a spec evaluates
        to what it did before the site graph's last delta, float for float.
        ``False`` for any other spec, semiring or site (a coordinator whose
        rows live in pool workers holds none).
        """
        rows = site.derived_get(self._rows_key) if self._rows_key else None
        if not rows:
            return False
        from_rows, backward = _direction(site.border_nodes, spec)
        if not from_rows:
            return False
        graph = site.compact(use_shortcuts=self._use_shortcuts)
        roots = spec.exit_nodes if backward else spec.entry_nodes
        return all((graph.try_node_id(root), backward) in rows for root in roots)

    def prepare(self, site: FragmentSite | CompactFragmentSite) -> bool:
        """Force the lazy site state :meth:`evaluate` reads; return whether any was missing.

        A caller that wants the re-derivation after a write timed apart from
        the kernels calls this around its own clock before :meth:`evaluate`.
        """
        return site.derive(
            compact=self._runs_compact(site), use_shortcuts=self._use_shortcuts
        )

    def _runs_compact(self, site: FragmentSite | CompactFragmentSite) -> bool:
        standard = self._semiring.name in COMPACT_SEMIRINGS
        if isinstance(site, CompactFragmentSite) and not standard:
            raise ValueError(
                f"a compact fragment site only supports the {COMPACT_SEMIRINGS} semirings"
            )
        return standard

    # --------------------------------------------------------- transit table

    def remember(self, site: FragmentSite, spec: LocalQuerySpec, result: LocalQueryResult) -> None:
        """File a result evaluated elsewhere (a pool worker's reply) in the site's table.

        The caller vouches that ``result`` was computed on a replica of the
        site's current compact graph.  Not a border-to-border subquery, or a
        custom semiring: nothing is filed.
        """
        if self._runs_compact(site):
            graph = site.compact(use_shortcuts=self._use_shortcuts)
            self._file(graph, self._transit_key(site, spec), result, site.border_nodes)

    def _transit_key(
        self, site: FragmentSite | CompactFragmentSite, spec: LocalQuerySpec
    ) -> Optional[TransitKey]:
        """The table key of a border-to-border subquery, ``None`` for any other."""
        border = site.border_nodes
        if border is None or not (spec.entry_nodes <= border and spec.exit_nodes <= border):
            return None
        return (spec.entry_nodes, spec.exit_nodes, self._semiring.name)

    def _replay(
        self,
        graph: CompactGraph,
        key: Optional[TransitKey],
        result: LocalQueryResult,
    ) -> bool:
        """Fill ``result`` from the table entry under ``key``; ``False`` when there is none.

        The values and work counters are the original evaluation's (the
        parallel cost model must not see a difference); the overlay flag is
        read from the graph now.
        """
        if key is None:
            return False
        table = graph.derived_get(TRANSIT_KEY)
        entry = table.get(key) if table is not None else None
        if entry is None:
            return False
        self.transit_hits += 1
        result.values = dict(entry.values)
        result.statistics.iterations = entry.iterations
        result.statistics.tuples_produced = entry.tuples_produced
        result.statistics.delta_sizes = list(entry.delta_sizes)
        result.backend = entry.backend
        result.overlay = graph.has_overlay()
        result.memoized = True
        return True

    def _file(
        self,
        graph: CompactGraph,
        key: Optional[TransitKey],
        result: LocalQueryResult,
        border: Optional[frozenset],
    ) -> None:
        """File ``result`` under ``key``; the border-graph arcs entry also compiled."""
        if key is None:
            return
        self.transit_misses += 1
        table = graph.derived_get(TRANSIT_KEY)
        if table is None:
            table = TransitTable()
            graph.derived_set(TRANSIT_KEY, table)
        statistics = result.statistics
        values = dict(result.values)
        table[key] = TransitEntry(
            values=values,
            iterations=statistics.iterations,
            tuples_produced=statistics.tuples_produced,
            delta_sizes=tuple(statistics.delta_sizes),
            backend=result.backend,
            arcs=compile_arcs(values, border) if key[0] == key[1] == border else None,
        )

    # ----------------------------------------------------------- kernel path

    def _evaluate_compact(
        self,
        site: FragmentSite | CompactFragmentSite,
        graph: CompactGraph,
        spec: LocalQuerySpec,
        result: LocalQueryResult,
    ) -> None:
        """Answer ``spec`` from a memo, its border rows or its own searches."""
        key = self._transit_key(site, spec)
        from_rows, result.backward = _direction(site.border_nodes, spec)
        if self._replay(graph, key, result):
            return
        result.overlay = graph.has_overlay()
        entries = [
            (node, node_id)
            for node in spec.entry_nodes
            for node_id in (graph.try_node_id(node),)
            if node_id >= 0
        ]
        exits = [
            (node, node_id)
            for node in spec.exit_nodes
            for node_id in (graph.try_node_id(node),)
            if node_id >= 0
        ]
        if entries and exits:
            roots, targets = (exits, entries) if result.backward else (entries, exits)
            if from_rows:
                self._read_rows(graph, roots, targets, result)
            elif self._semiring.name == "shortest_path":
                self._search(graph, roots, targets, result)
            else:
                self._run_reachability(graph, entries, exits, result)
        self._file(graph, key, result, site.border_nodes)

    def _run_reachability(
        self,
        graph: CompactGraph,
        entries: List[Tuple[Node, int]],
        exits: List[Tuple[Node, int]],
        result: LocalQueryResult,
    ) -> None:
        """One keyhole BFS (or index lookup) per entry, forward: the kernels run no other way."""
        result.backward = False
        exit_mask = 0
        for _, exit_id in exits:
            exit_mask |= 1 << exit_id
        rows, chosen = reachability_rows(
            graph,
            [entry_id for _, entry_id in entries],
            context="local_query",
            stop_mask=exit_mask,
        )
        result.backend = chosen
        for entry, entry_id in entries:
            BitsetRow(rows[entry_id], rows[entry_id].bit_count()).book(result, entry, exits)

    def _search(
        self,
        graph: CompactGraph,
        roots: List[Tuple[Node, int]],
        targets: List[Tuple[Node, int]],
        result: LocalQueryResult,
    ) -> None:
        """One search per root, each stopping once ``targets`` are settled."""
        result.backend = "dijkstra"
        target_ids = [target_id for _, target_id in targets]
        for root, root_id in roots:
            distances, _, settled = array_dijkstra(
                graph, root_id, target_ids=target_ids, backward=result.backward
            )
            result.searches += 1
            _book_round(result, root, targets, distances, settled)

    def _read_rows(
        self,
        graph: CompactGraph,
        roots: List[Tuple[Node, int]],
        targets: List[Tuple[Node, int]],
        result: LocalQueryResult,
    ) -> None:
        """Per root (a border node), read its row — filling it first when missing.

        A row is the untargeted search from its root with that search's
        settled count.  Every reader books the stored count, so the work
        counters do not say who filled the row; ``searches`` and
        ``memoized`` do.
        """
        rows_key = self._rows_key
        assert rows_key is not None
        rows = graph.derived_get(rows_key)
        if rows is None:
            rows = BorderRows()
            graph.derived_set(rows_key, rows)
        backward = result.backward
        shortest = self._semiring.name == "shortest_path"
        result.backend = "dijkstra" if shortest else BACKEND_BIGINT
        for root, root_id in roots:
            row = rows.get((root_id, backward))
            if row is None:
                row = rows[(root_id, backward)] = (
                    _distance_row(graph, root_id, backward)
                    if shortest
                    else _bitset_row(graph, root_id, backward)
                )
                result.rows_filled += 1
            else:
                result.rows_read += 1
            row.book(result, root, targets)
        result.searches = result.rows_filled
        result.memoized = not result.rows_filled

    # ------------------------------------------------------ custom semirings

    def _evaluate_generic(
        self, site: FragmentSite, spec: LocalQuerySpec, result: LocalQueryResult
    ) -> None:
        """Restricted semi-naive fixpoint over the site's dict subgraph."""
        from ..closure import seminaive_transitive_closure

        graph = site.augmented_subgraph() if self._use_shortcuts else site.subgraph
        result.backend = "dict"
        entry_nodes = [node for node in spec.entry_nodes if graph.has_node(node)]
        exit_nodes = {node for node in spec.exit_nodes if graph.has_node(node)}
        if not entry_nodes or not exit_nodes:
            return
        closure = seminaive_transitive_closure(graph, semiring=self._semiring, sources=entry_nodes)
        result.statistics = closure.statistics
        for (source, target), value in closure.values.items():
            if target in exit_nodes:
                result.values[(source, target)] = value
