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

* every shortest-path subquery with a side inside the border set is read from
  :class:`BorderRows`: per border node and direction one row of shortest
  distances to (or from) every node of the fragment, filled by one untargeted
  search the first time a subquery is rooted at that border node;
* the middle one — border to border inside an intermediate fragment — does not
  depend on the query at all; its whole result is also remembered in a
  :class:`TransitTable`, which lets the coordinator of a worker pool answer it
  without routing.

``CompactGraph.apply_delta`` hands the rows the arcs a write removed and
inserted; a row keeps itself when it provably cannot have moved
(:meth:`BorderRows.survive_delta`).  The transit table is dropped with every
other derived structure, and refills from the surviving rows without a
search.  What still searches is a shortest-path subquery with no side inside
the border set (a same-fragment query) and the fill of a row a write
dropped.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from math import inf
from time import perf_counter
from typing import Callable, Dict, Hashable, List, NamedTuple, Optional, Sequence, Tuple

from ..closure import (
    ClosureStatistics,
    Semiring,
    array_dijkstra,
    reachability_rows,
    shortest_path_semiring,
)
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


class TransitEntry(NamedTuple):
    """What one border-to-border evaluation produced, as a hit replays it."""

    values: Dict[Tuple[Node, Node], PathValue]
    iterations: int
    tuples_produced: int
    delta_sizes: Tuple[int, ...]
    backend: Optional[str]


class TransitTable(Dict[TransitKey, TransitEntry]):
    """The remembered border-to-border results of one site graph.

    Filled lazily, one entry per distinct ``(entry set, exit set)`` a plan
    asks for, so its size is bounded by the layout: entry and exit sets are
    disconnection sets or single border nodes, at most
    ``(#disconnection sets + #border nodes)²`` pairs per fragment.  There is
    no capacity and no eviction; the graph's ``apply_delta`` drops the whole
    table whenever the adjacency it was computed from changes, and the next
    evaluations refill it from the border rows that survived.
    """

    __slots__ = ()

    def to_state(self) -> None:
        """Process-local: never part of a graph state, payload or snapshot."""
        return None


# Derived-store key of a site graph's border rows.
BORDER_ROWS_KEY = "border_rows"


class BorderRow(NamedTuple):
    """The untargeted search from one border node, as every reader replays it."""

    distances: "array[float]"  # by node id; ``inf`` where there is no path
    settled: int


class BorderRows(Dict[Tuple[int, bool], BorderRow]):
    """The memoized endpoint searches of one site graph.

    ``(b, True)`` holds ``dist(x -> b)`` for every node id ``x`` (one backward
    search from border node id ``b``), ``(b, False)`` holds ``dist(b -> x)``.
    A row is a pure function of the graph, filled the first time a subquery
    is rooted at ``b`` in that direction, so the store is bounded by the
    layout: at most ``2 * |border nodes|`` rows of ``node_count`` doubles per
    fragment.  No capacity and no eviction: the graph's ``apply_delta`` calls
    :meth:`survive_delta`, which drops each row the write may have moved.
    """

    __slots__ = ()

    def survive_delta(
        self,
        removed: Sequence[Tuple[int, int, float]],
        inserted: Sequence[Tuple[int, int, float]],
    ) -> None:
        """Drop every row the arc changes ``removed`` / ``inserted`` may have moved.

        A row ``d`` rooted at ``b`` (forward: ``d = dist(b -> .)``; backward
        rows swap each arc's ends) stays a fresh search's answer when every
        removed arc ``s -> t`` of weight ``w`` is slack (``d[s] + w > d[t]``,
        or ``d[t]`` is ``inf``: no shortest path uses it) and no inserted
        arc improves on it (``d[s] + w >= d[t]``).  Float addition is
        monotone, so a kept row is bit for bit the row a search of the new
        graph would fill, with the same settled count.
        """
        flipped = [(t, s, w) for s, t, w in removed], [(t, s, w) for s, t, w in inserted]
        for key, row in list(self.items()):
            out, into = flipped if key[1] else (removed, inserted)
            d = row.distances
            if any(d[t] != inf and d[s] + w <= d[t] for s, t, w in out) or any(
                d[s] + w < d[t] for s, t, w in into
            ):
                del self[key]

    def to_state(self) -> None:
        """Process-local: never part of a graph state, payload or snapshot."""
        return None

    def nbytes(self) -> int:
        """The bytes the rows' distance arrays hold."""
        return sum(len(row.distances) * row.distances.itemsize for row in self.values())


def border_rows_held(site: FragmentSite | CompactFragmentSite) -> Tuple[int, int]:
    """Return ``(rows, bytes)`` of the border rows ``site``'s augmented graph holds."""
    rows = site.derived_get(BORDER_ROWS_KEY)
    return (len(rows), rows.nbytes()) if rows else (0, 0)  # type: ignore[arg-type, union-attr]


@dataclass
class LocalQueryResult:
    """The result of one per-fragment subquery.

    Attributes:
        fragment_id: the site that produced the result.
        values: mapping ``(entry_node, exit_node) -> best path value``.
        statistics: work counters for the local evaluation.
        backend: which kernel backend served the evaluation (``bigint`` or
            ``chain``, or ``dijkstra``/``dict`` for the shortest-path kernel
            and the custom-semiring fixpoint); surfaces in worker payloads
            and trace spans.
        overlay: whether the site's compact graph carried an uncompacted
            delta overlay at evaluation time — the kernels read straight
            through it; surfaces in worker payloads and trace spans.
        memoized: whether the values were replayed from the site's transit
            table or read from its border rows without a single search; the
            work counters are those of the evaluation that filled the memo —
            a memoized result and the one that searched report the same
            ``statistics`` apart from ``elapsed_seconds``.
        searches: the shortest-path searches this result ran itself (a border
            row it had to fill counts as one); 0 when memoized.
        backward: whether the shortest-path searches — or the border rows
            read in their place — are rooted at the exit nodes and run
            against the edges.
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
    ``transit_misses`` count those lookups.  A shortest-path subquery with
    a side inside the border set that the table does not answer reads that
    side's :class:`BorderRows` (the smaller side's when both are inside); its
    result's ``rows_read`` and ``rows_filled`` count the rows it found and
    the rows it had to search for.  Custom semirings and sites that do not
    know their borders (a hand-built :class:`CompactFragmentSite`) touch
    neither.

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
            self._file(graph, self._transit_key(site, spec), result)

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
        self, graph: CompactGraph, key: Optional[TransitKey], result: LocalQueryResult
    ) -> None:
        if key is None:
            return
        self.transit_misses += 1
        table = graph.derived_get(TRANSIT_KEY)
        if table is None:
            table = TransitTable()
            graph.derived_set(TRANSIT_KEY, table)
        statistics = result.statistics
        table[key] = TransitEntry(
            values=dict(result.values),
            iterations=statistics.iterations,
            tuples_produced=statistics.tuples_produced,
            delta_sizes=tuple(statistics.delta_sizes),
            backend=result.backend,
        )

    # ----------------------------------------------------------- kernel path

    def _evaluate_compact(
        self,
        site: FragmentSite | CompactFragmentSite,
        graph: CompactGraph,
        spec: LocalQuerySpec,
        result: LocalQueryResult,
    ) -> None:
        """Answer ``spec`` from a memo, a reachability kernel or its own searches."""
        shortest = self._semiring.name == "shortest_path"
        key = self._transit_key(site, spec)
        # A side inside the border set: read the rows rooted there.  Root at
        # the smaller side when both sides are (or neither is, and the
        # searches run on the spot) — backward from the exits when there are
        # fewer exits than entries, and for rows also when there are as many:
        # the border graph's arcs, one border set on both sides, read the
        # backward rows its source rows read in the same fragment, so a
        # write's dropped rows refill once for both.  A function of the spec
        # and the border set alone, so a replayed result reports the
        # direction it was found in.
        border = site.border_nodes if shortest else None
        exits_on_border = border is not None and spec.exit_nodes <= border
        entries_on_border = border is not None and spec.entry_nodes <= border
        from_rows = exits_on_border or entries_on_border
        if exits_on_border != entries_on_border:
            result.backward = exits_on_border
        else:
            result.backward = shortest and (
                len(spec.exit_nodes) < len(spec.entry_nodes)
                or (from_rows and len(spec.exit_nodes) == len(spec.entry_nodes))
            )
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
            if shortest:
                result.backend = "dijkstra"
                roots, targets = (exits, entries) if result.backward else (entries, exits)
                if from_rows:
                    self._read_rows(graph, roots, targets, result)
                else:
                    self._search(graph, roots, targets, result)
            else:
                self._run_reachability(graph, entries, exits, result)
        self._file(graph, key, result)

    def _run_reachability(
        self,
        graph: CompactGraph,
        entries: List[Tuple[Node, int]],
        exits: List[Tuple[Node, int]],
        result: LocalQueryResult,
    ) -> None:
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
            visited = rows[entry_id]
            produced = 0
            for exit_node, exit_id in exits:
                if (visited >> exit_id) & 1:
                    result.values[(entry, exit_node)] = True
                    produced += 1
            result.statistics.record_round(visited.bit_count(), produced)

    def _search(
        self,
        graph: CompactGraph,
        roots: List[Tuple[Node, int]],
        targets: List[Tuple[Node, int]],
        result: LocalQueryResult,
    ) -> None:
        """One search per root, each stopping once ``targets`` are settled."""
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

        A row is the untargeted search from its root, kept as ``array('d')``
        with that search's settled count.  Every reader books the stored
        count, so the work counters do not say who filled the row;
        ``searches`` and ``memoized`` do.
        """
        rows = graph.derived_get(BORDER_ROWS_KEY)
        if rows is None:
            rows = BorderRows()
            graph.derived_set(BORDER_ROWS_KEY, rows)
        backward = result.backward
        for root, root_id in roots:
            row = rows.get((root_id, backward))
            if row is None:
                distances, _, settled = array_dijkstra(graph, root_id, backward=backward)
                row = rows[(root_id, backward)] = BorderRow(array("d", distances), settled)
                result.rows_filled += 1
            else:
                result.rows_read += 1
            _book_round(result, root, targets, row.distances, row.settled)
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
