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

Of the three kinds of subquery a chain splits into (Sec. 2.1) the middle one
— border to border inside an intermediate fragment — depends on the fragment
and its disconnection sets only, never on the query.  The kernel path
remembers those results in a :class:`TransitTable` kept in the derived store
of the site's compact graph, so a cold query searches only its two endpoint
fragments; ``CompactGraph.apply_delta`` drops the table with every other
derived structure, which is the whole invalidation protocol.

The other two kinds — source to first disconnection set, last disconnection
set to destination — are searched for, once per endpoint: a shortest-path
subquery roots its searches at whichever of its two node sets is smaller
(against the edges when that is the exit set), and the subqueries of one task
set that start at the same node of the same fragment read one search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from time import perf_counter
from typing import Callable, Dict, Hashable, List, NamedTuple, Optional, Sequence, Set, Tuple

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

# (entry nodes, exit nodes, semiring name, pinned backend or None)
TransitKey = Tuple[frozenset, frozenset, str, Optional[str]]


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
    table whenever the adjacency it was computed from changes.
    """

    __slots__ = ()

    def to_state(self) -> None:
        """Process-local: never part of a graph state, payload or snapshot."""
        return None


@dataclass
class LocalQueryResult:
    """The result of one per-fragment subquery.

    Attributes:
        fragment_id: the site that produced the result.
        values: mapping ``(entry_node, exit_node) -> best path value``.
        statistics: work counters for the local evaluation.
        estimated_iterations: the number of fixpoint iterations a semi-naive
            evaluation of this subquery needs (≈ the fragment diameter); used
            by the simulator's cost model.
        semiring: the path problem the values belong to; threads the correct
            ``plus`` into :meth:`exit_values` (set by the evaluator, absent
            on hand-built results).
        backend: which kernel backend served the evaluation (``bigint``,
            ``numpy``, ``chain``, or ``dijkstra``/``dict`` for the shortest-path
            kernel and the custom-semiring fixpoint); surfaces in worker
            payloads and trace spans.
        overlay: whether the site's compact graph carried an uncompacted
            delta overlay at evaluation time — the kernels read straight
            through it; surfaces in worker payloads and trace spans.
        memoized: whether the values were replayed from the site's transit
            table instead of searched for; the work counters are then those
            of the original evaluation, ``elapsed_seconds`` is the lookup's.
        searches: the shortest-path searches this result ran itself — 0 when
            it was replayed, or read a search another result of its task set
            ran (whose settled count and time are on that result alone).
        backward: whether the shortest-path searches were rooted at the exit
            nodes and run against the edges (fewer exits than entries).
    """

    fragment_id: int
    values: Dict[Tuple[Node, Node], PathValue] = field(default_factory=dict)
    statistics: ClosureStatistics = field(default_factory=ClosureStatistics)
    estimated_iterations: int = 0
    semiring: Optional[Semiring] = field(default=None, repr=False, compare=False)
    backend: Optional[str] = field(default=None, compare=False)
    overlay: bool = field(default=False, compare=False)
    memoized: bool = field(default=False, compare=False)
    searches: int = field(default=0, compare=False)
    backward: bool = field(default=False, compare=False)

    def exit_values(self, semiring: Optional[Semiring] = None) -> Dict[Node, PathValue]:
        """Return the best value per exit node over all entry nodes (for reporting).

        "Best" is decided by the semiring's ``plus`` (``min`` for shortest
        paths, ``or`` for reachability, ``max`` for widest paths, …), taken
        from the ``semiring`` argument or the result's own semiring.  Only
        when neither is available does the legacy raw ``<`` comparison apply,
        which is correct solely for min-style numeric path problems.
        """
        semiring = semiring or self.semiring
        best: Dict[Node, PathValue] = {}
        for (_, exit_node), value in self.values.items():
            if exit_node not in best:
                best[exit_node] = value
            elif semiring is not None:
                best[exit_node] = semiring.plus(best[exit_node], value)
            elif value < best[exit_node]:  # type: ignore[operator]
                best[exit_node] = value
        return best

    def is_empty(self) -> bool:
        """Return ``True`` when no entry node reaches any exit node."""
        return not self.values


# What the subqueries of one task set share a search by: (fragment, root id,
# backward, transit key).  The last is ``None`` for every subquery that is
# not border-to-border, so those share; a border-to-border one has its own.
_SearchKey = Tuple[int, int, bool, Optional[TransitKey]]


class _Search(NamedTuple):
    """A shortest-path subquery whose searches are still to be run."""

    graph: CompactGraph
    key: Optional[TransitKey]
    roots: List[Tuple[Node, int]]  # the smaller side, one search each
    targets: List[Tuple[Node, int]]
    result: LocalQueryResult


class LocalQueryEvaluator:
    """Evaluates :class:`LocalQuerySpec` subqueries against a fragment site.

    Args:
        semiring: the path problem (defaults to shortest paths).
        use_shortcuts: disable to evaluate on the bare fragment subgraph
            (ablation runs).
        backend: pin a reachability kernel backend (``bigint``, ``numpy`` or
            ``chain``) instead of letting :func:`repro.closure.select_kernel`
            choose by shape; answers are identical either way.

    The two standard semirings run the compact kernels over the site's
    cached ``CompactGraph``; a custom semiring runs the dict-based fixpoint.
    The evaluator accepts either a full :class:`FragmentSite` or the
    plain-data :class:`CompactFragmentSite` a pool worker holds; the latter
    supports the standard semirings only.

    On the kernel path a subquery whose entry and exit sets both consist of
    the :class:`FragmentSite`'s border nodes is answered from the site's
    :class:`TransitTable` once it has been evaluated; ``transit_hits`` and
    ``transit_misses`` count those lookups.  Custom semirings and plain-data
    sites (which do not know their borders) never touch the table.

    Callers that hold several subqueries at once — the chains of a query, a
    batch, one routed message — hand them to :meth:`evaluate_many` together,
    so the shortest-path subqueries among them share their searches.
    """

    def __init__(
        self,
        *,
        semiring: Optional[Semiring] = None,
        use_shortcuts: bool = True,
        backend: Optional[str] = None,
    ) -> None:
        self._semiring = semiring or shortest_path_semiring()
        self._use_shortcuts = use_shortcuts
        self._backend = backend
        self.transit_hits = 0
        self.transit_misses = 0

    @property
    def semiring(self) -> Semiring:
        """The path problem being evaluated."""
        return self._semiring

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
        catalog's ``site``, a worker's pinned sites).  Within the set,
        shortest-path subqueries on one fragment that start their search at
        the same node in the same direction read one search (see
        :meth:`_run_searches`); a subquery's values never depend on what it
        was grouped with.

        Every result's statistics carry ``elapsed_seconds``, timed here so
        the measurement happens in whichever process runs the kernel — a
        worker's in-process timing ships back with the result, needing no
        clock agreement with the coordinator.  The clock covers the kernel
        (or the transit-table lookup) only: a site's lazy state is forced
        first.  A shared search is on the clock, and in the work counters, of
        the first subquery that needs it and of no other.
        """
        results: List[LocalQueryResult] = []
        resolved: Dict[int, Tuple[FragmentSite | CompactFragmentSite, Optional[CompactGraph]]] = {}
        searching: List[_Search] = []
        wanted: Dict[_SearchKey, Set[int]] = {}  # the ids every reader of a search needs settled
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
            result = LocalQueryResult(fragment_id=fragment_id, semiring=self._semiring)
            results.append(result)
            if graph is None:
                self._evaluate_generic(site, spec, result)
            else:
                search = self._evaluate_compact(site, graph, spec, result)
                if search is not None:
                    searching.append(search)
                    target_ids = [target_id for _, target_id in search.targets]
                    for _, root_id in search.roots:
                        wanted.setdefault(
                            (fragment_id, root_id, result.backward, search.key), set()
                        ).update(target_ids)
            result.statistics.elapsed_seconds = perf_counter() - started
        if searching:
            self._run_searches(searching, wanted)
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

    def recall(self, site: FragmentSite, spec: LocalQuerySpec) -> Optional[LocalQueryResult]:
        """Answer ``spec`` from the site's transit table, or return ``None``.

        ``None`` means the subquery is not border-to-border, has not been
        evaluated since the site graph last changed, or the semiring is a
        custom one.  The coordinator of a worker pool asks
        this before it routes a task.
        """
        key = self._transit_key(site, spec)
        if key is None or not self._runs_compact(site):
            return None
        started = perf_counter()
        result = LocalQueryResult(fragment_id=site.fragment_id, semiring=self._semiring)
        graph = site.compact(use_shortcuts=self._use_shortcuts)
        if not self._replay(site, graph, key, result):
            return None
        result.statistics.elapsed_seconds = perf_counter() - started
        return result

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
        border = getattr(site, "border_nodes", None)
        if border is None or not (spec.entry_nodes <= border and spec.exit_nodes <= border):
            return None
        return (spec.entry_nodes, spec.exit_nodes, self._semiring.name, self._backend)

    def _replay(
        self,
        site: FragmentSite | CompactFragmentSite,
        graph: CompactGraph,
        key: Optional[TransitKey],
        result: LocalQueryResult,
    ) -> bool:
        """Fill ``result`` from the table entry under ``key``; ``False`` when there is none.

        The values and work counters are the original evaluation's (the
        parallel cost model must not see a difference); the iteration
        estimate and the overlay flag are read from the site now — a write
        masked by a shortcut leaves the graph, and so the table, untouched
        but may still move the diameter.
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
        result.estimated_iterations = site.local_iterations()
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
    ) -> Optional[_Search]:
        """Answer ``spec`` from the transit table or a reachability kernel.

        Returns the shortest-path search still to be run for it, if any.
        """
        shortest = self._semiring.name == "shortest_path"
        # Root the searches at the smaller side: one backward search per exit
        # when there are fewer exits than entries.  A function of the spec
        # alone, so a replayed result reports the direction it was found in.
        result.backward = shortest and len(spec.exit_nodes) < len(spec.entry_nodes)
        key = self._transit_key(site, spec)
        if self._replay(site, graph, key, result):
            return None
        result.overlay = graph.has_overlay()
        result.estimated_iterations = site.local_iterations()
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
                return _Search(graph, key, roots, targets, result)
            self._run_reachability(graph, entries, exits, result)
        self._file(graph, key, result)
        return None

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
            backend=self._backend,
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

    def _run_searches(
        self, searching: List[_Search], wanted: Dict[_SearchKey, Set[int]]
    ) -> None:
        """Run the shortest-path searches of one task set, each at most once.

        Per root, a subquery reads the one search its :data:`_SearchKey` names
        in the set, whose targets are the union in ``wanted``.  Dijkstra
        settles ids in an order the targets do not influence — they only
        decide where it stops — so a distance read from a wider search is the
        very float the subquery's own search would have produced.  The
        transit key is part of the search key, so border-to-border subqueries
        share with nobody: what the transit table files is their work alone.
        (A plain-data site does not know its border nodes; there every
        subquery may share.)
        """
        ran: Dict[_SearchKey, List[float]] = {}
        for graph, key, roots, targets, result in searching:
            started = perf_counter()
            backward = result.backward
            values = result.values
            statistics = result.statistics
            for root, root_id in roots:
                shared = (result.fragment_id, root_id, backward, key)
                distances = ran.get(shared)
                settled = 0
                if distances is None:
                    distances, _, settled = array_dijkstra(
                        graph, root_id, target_ids=wanted[shared], backward=backward
                    )
                    ran[shared] = distances
                    result.searches += 1
                produced = 0
                for target, target_id in targets:
                    distance = distances[target_id]
                    if distance != inf:
                        values[(target, root) if backward else (root, target)] = distance
                        produced += 1
                statistics.record_round(settled, produced)
            self._file(graph, key, result)
            statistics.elapsed_seconds += perf_counter() - started

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
        result.estimated_iterations = site.local_iterations()
        if not entry_nodes or not exit_nodes:
            return
        closure = seminaive_transitive_closure(graph, semiring=self._semiring, sources=entry_nodes)
        result.statistics = closure.statistics
        for (source, target), value in closure.values.items():
            if target in exit_nodes:
                result.values[(source, target)] = value
