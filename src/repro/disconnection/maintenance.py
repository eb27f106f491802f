"""Update handling: maintaining a deployed fragmentation under edge changes.

The paper names "the careful treatment of updates" as the second cost of the
disconnection set approach (Sec. 2.1): whenever the base relation changes, the
affected fragment must be updated and the complementary information of the
disconnection sets it participates in may have to be recomputed.  As long as
updates are not too frequent, this cost is amortised over many queries.

:class:`FragmentedDatabase` implements exactly that contract:

* edge insertions are routed to the fragment owning (or adjacent to) the
  endpoints; brand-new nodes extend the fragment chosen by locality,
* edge deletions are routed to the owning fragment,
* a live engine inside the incremental envelope (built, standard semiring —
  :func:`~repro.incremental.maintainer.supports_incremental`) is maintained
  **in place** by the :mod:`repro.incremental` subsystem: only the dirty
  fragment's compact state is rebuilt, only the border rows an edge change
  can provably affect are re-searched, and the per-fragment
  :class:`~repro.incremental.versions.VersionVector` plus
  :class:`~repro.incremental.delta.DeltaLog` record exactly what moved,
* an update outside that envelope is a counted fallback: the engine is
  rebuilt lazily and the complementary information recomputed — the classic
  full-invalidation path, kept as the safety path.

The class deliberately does not re-run the fragmentation algorithm on every
update: the paper treats fragmentation design as an offline decision, and
re-fragmenting per update would defeat the amortisation argument.
``refragment()`` is the explicit reorganisation entry point — and it is no
longer catastrophic: with a live engine and a standard semiring the new
layout is absorbed *in place* through the same maintainer as a write (ids
aligned so surviving fragments keep their sites, disconnection sets whose
membership moved repaired, only changed fragments rebuilt).  A write and a
redraw share one tail — version bumps, the delta-log append (a redraw's
record carries the applied layout, so replicas can replay across the
reorganisation instead of resnapshotting) and the listener notification —
and one classic fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, KeysView, List, Optional, Set, Tuple

from ..closure import Semiring, shortest_path_semiring
from ..exceptions import FragmentationError
from ..fragmentation import Fragmentation, Fragmenter
from ..graph import CompactGraph, DiGraph
from ..incremental.delta import DeltaLog, DeltaRecord, EdgeChange, changes_to_delta
from ..incremental.versions import VersionVector
from .catalog import CompactFragmentSite
from .complementary import ComplementaryInformation, precompute_complementary_information
from .engine import DisconnectionSetEngine

Node = Hashable
Edge = Tuple[Node, Node]


@dataclass(frozen=True)
class UpdateEvent:
    """One applied change to the fragmented base relation.

    Listeners registered with :meth:`FragmentedDatabase.add_update_listener`
    receive these events after the change is applied — the hook a serving
    layer uses to invalidate caches and re-pin worker state.

    Attributes:
        kind: ``"insert"``, ``"delete"``, ``"reweight"`` or ``"refragment"``.
        source, target: the affected edge's endpoints (``None`` for
            ``refragment``, which affects every fragment).
        fragment_id: the fragment that absorbed the change (``None`` for
            ``refragment``).
        dirty_fragments: every fragment whose prepared state moved; with an
            incremental apply this is the scoped set a listener should
            invalidate, otherwise it mirrors the affected fragment.
        incremental: ``True`` when the change was absorbed in place (the
            engine object survived); ``False`` means the engine will be
            rebuilt and listeners should invalidate globally.
        fallback: why the database did *not* absorb the change in place —
            the stage that gave up (``"unsupported"``: no live engine or a
            custom semiring; ``"begin"``: the pre-change probe raised;
            ``"complete"``: the repair raised, expectedly or not).  ``None``
            when the change was absorbed.
    """

    kind: str
    source: Optional[Node] = None
    target: Optional[Node] = None
    fragment_id: Optional[int] = None
    dirty_fragments: Tuple[int, ...] = ()
    incremental: bool = False
    fallback: Optional[str] = None


@dataclass
class UpdateStatistics:
    """Bookkeeping of the maintenance work triggered by updates."""

    edges_inserted: int = 0
    edges_deleted: int = 0
    complementary_refreshes: int = 0
    affected_fragment_pairs: int = 0
    engine_rebuilds: int = 0
    incremental_updates: int = 0
    incremental_fallbacks: int = 0
    pairs_repaired: int = 0
    rows_recomputed: int = 0
    refragments: int = 0
    scoped_refragments: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Return the counters as a plain dictionary (for reporting)."""
        return {
            "edges_inserted": self.edges_inserted,
            "edges_deleted": self.edges_deleted,
            "complementary_refreshes": self.complementary_refreshes,
            "affected_fragment_pairs": self.affected_fragment_pairs,
            "engine_rebuilds": self.engine_rebuilds,
            "incremental_updates": self.incremental_updates,
            "incremental_fallbacks": self.incremental_fallbacks,
            "pairs_repaired": self.pairs_repaired,
            "rows_recomputed": self.rows_recomputed,
            "refragments": self.refragments,
            "scoped_refragments": self.scoped_refragments,
        }


class _OwnerIndex:
    """Who owns what, kept per edge change instead of recomputed per write.

    ``edge_owner`` maps an edge to its fragment (the lowest id, should a
    layout ever list an edge twice); ``fragments_at`` answers which fragments
    a node is incident to, from a per-node count of incident edges per
    fragment — so a delete knows when a fragment lost a node without looking
    at the fragment's other edges.
    """

    def __init__(self, fragment_edges: List[Set[Edge]]) -> None:
        self.edge_owner: Dict[Edge, int] = {}
        self._incident: Dict[Node, Dict[int, int]] = {}
        for fragment_id in range(len(fragment_edges) - 1, -1, -1):
            for edge in fragment_edges[fragment_id]:
                self.add(edge, fragment_id)

    def add(self, edge: Edge, fragment_id: int) -> None:
        self.edge_owner[edge] = fragment_id
        for node in edge:
            counts = self._incident.setdefault(node, {})
            counts[fragment_id] = counts.get(fragment_id, 0) + 1

    def remove(self, edge: Edge, fragment_id: int) -> None:
        del self.edge_owner[edge]
        for node in edge:
            counts = self._incident[node]
            counts[fragment_id] -= 1
            if not counts[fragment_id]:
                del counts[fragment_id]

    def fragments_at(self, node: Node) -> KeysView[int]:
        """Return the ids of the fragments holding an edge at ``node`` (a set-like view)."""
        return self._incident.get(node, {}).keys()


class FragmentedDatabase:
    """A mutable, fragmented graph database with disconnection-set querying.

    Args:
        fragmentation: the initial fragmentation to deploy.
        semiring: the path problem queries will use (defaults to shortest
            paths).
        complementary: optionally reuse already-precomputed complementary
            information for the *initial* state (e.g. from a snapshot); the
            first :meth:`engine` call then costs no search work.  Updates
            still trigger the usual lazy recomputation.
        compact_sites: optionally seed the initial engine's per-fragment
            compact kernel graphs (snapshot reload); after an update the
            rebuilt engine re-derives only the affected fragments' compact
            forms lazily.
        version_vector: seed the per-fragment version vector (snapshot
            reload, so a restored service resumes mid-stream).
    """

    def __init__(
        self,
        fragmentation: Fragmentation,
        *,
        semiring: Optional[Semiring] = None,
        complementary: Optional[ComplementaryInformation] = None,
        compact_sites: Optional[Dict[int, "CompactFragmentSite"]] = None,
        version_vector: Optional[VersionVector] = None,
    ) -> None:
        self._semiring = semiring or shortest_path_semiring()
        self._graph = fragmentation.graph.copy()
        self._adopt_layout([set(fragment.edges) for fragment in fragmentation.fragments])
        self._algorithm = fragmentation.algorithm
        self._stale = True
        self._engine: Optional[DisconnectionSetEngine] = None
        self._listeners: List[Callable[[UpdateEvent], None]] = []
        self.statistics = UpdateStatistics()
        self._maintainer = None  # lazily bound to the live engine generation
        self._mirror: Optional[CompactGraph] = None  # resident whole-graph compact mirror
        self.version_vector = version_vector.copy() if version_vector else VersionVector()
        self.delta_log = DeltaLog()
        # The AppliedDelta of the newest change absorbed in place (a
        # RefragmentResult for a redraw); None after a classic rebuild.
        self.last_delta = None
        if complementary is not None:
            self._engine = DisconnectionSetEngine(
                fragmentation,
                semiring=self._semiring,
                complementary=complementary,
                compact_sites=compact_sites,
            )
            self._stale = False

    # ------------------------------------------------------------ listeners

    def add_update_listener(self, listener: Callable[[UpdateEvent], None]) -> None:
        """Register a callback invoked after every applied update.

        The serving layer hooks its cache invalidation here; listeners run
        synchronously in registration order and must not mutate the database.
        """
        self._listeners.append(listener)

    def _notify(self, event: UpdateEvent) -> None:
        for listener in self._listeners:
            listener(event)

    # ------------------------------------------------------------- accessors

    @property
    def graph(self) -> DiGraph:
        """The current base graph (a live object; mutate only through this class)."""
        return self._graph

    def fragmentation(self) -> Fragmentation:
        """Return the current fragmentation as an immutable snapshot.

        The first call builds it; after that each snapshot is derived from
        the previous one (:meth:`Fragmentation.replacing`) by replacing only
        the fragments whose edge set moved since, and a call with nothing
        moved returns the previous object.  Emptied fragments are left out,
        which renumbers the ones after them — such a snapshot is built from
        scratch and nothing is derived from it.
        """
        snapshot = self._snapshot
        reshaped = self._reshaped
        if snapshot is not None and not reshaped:
            return snapshot
        if snapshot is not None and all(self._fragment_edges[index] for index in reshaped):
            snapshot = snapshot.replacing(
                {index: self._fragment_edges[index] for index in reshaped}
            )
        else:
            populated = [edges for edges in self._fragment_edges if edges]
            snapshot = Fragmentation(self._graph, populated, algorithm=self._algorithm)
            if len(populated) != len(self._fragment_edges):
                return snapshot
        self._snapshot = snapshot
        self._reshaped = set()
        return snapshot

    def current_engine(self) -> Optional[DisconnectionSetEngine]:
        """Return the live engine if one exists and is fresh (no rebuild)."""
        return self._engine if not self._stale else None

    def compact_mirror(self) -> CompactGraph:
        """Return the resident whole-graph compact mirror (built lazily once).

        One :class:`CompactGraph` of the entire base graph, shared by the
        incremental maintainer's repair searches (after a write and after a
        redraw) and complementary precomputation.
        After every applied update the database splices the change into it as
        an O(delta) overlay patch — consumers never pay a whole-graph
        recompile again.
        """
        if self._mirror is None:
            self._mirror = CompactGraph.from_digraph(self._graph)
        return self._mirror

    def _sync_mirror(self, changes: List[EdgeChange]) -> None:
        """Splice applied changes into the resident mirror (O(delta)).

        A failure drops the mirror instead of propagating: the next
        :meth:`compact_mirror` call recompiles it from the base graph, so a
        stale mirror can never outlive the update that broke it.
        """
        if self._mirror is None:
            return
        try:
            self._mirror.apply_delta(changes_to_delta(changes))
        except Exception:
            self._mirror = None

    def engine(self) -> DisconnectionSetEngine:
        """Return a query engine for the current state (rebuilt lazily after updates)."""
        if self._stale or self._engine is None:
            fragmentation = self.fragmentation()
            complementary = precompute_complementary_information(
                fragmentation, semiring=self._semiring, compact=self.compact_mirror()
            )
            self._engine = DisconnectionSetEngine(
                fragmentation, semiring=self._semiring, complementary=complementary
            )
            self.statistics.engine_rebuilds += 1
            self.statistics.complementary_refreshes += len(fragmentation.disconnection_sets())
            self._stale = False
        return self._engine

    def edge_count(self) -> int:
        """Return the number of directed edges currently stored."""
        return self._graph.edge_count()

    # --------------------------------------------------------------- updates

    def insert_edge(
        self,
        source: Node,
        target: Node,
        weight: float = 1.0,
        *,
        symmetric: bool = False,
    ) -> int:
        """Insert an edge and return the fragment id it was assigned to.

        The edge goes to a fragment already containing one of its endpoints
        (preferring a fragment containing both); edges between two previously
        unknown nodes go to the currently smallest fragment.  Inserting an
        edge that already exists reweights it in its owning fragment.
        """
        changes = [self._insert_change(source, target, weight)]
        if symmetric:
            changes.append(self._insert_change(target, source, weight))
        self.statistics.edges_inserted += len(changes)
        self._apply_changes("insert", changes)
        return changes[0].fragment_id

    def delete_edge(self, source: Node, target: Node, *, symmetric: bool = False) -> int:
        """Delete an edge and return the fragment id it was removed from.

        Raises:
            FragmentationError: if the edge is not stored in any fragment.
        """
        owner = self._owner_of_edge(source, target)
        if owner is None:
            raise FragmentationError(f"edge ({source!r}, {target!r}) is not stored")
        changes = [
            EdgeChange(
                op="delete",
                source=source,
                target=target,
                old_weight=self._graph.edge_weight(source, target),
                fragment_id=owner,
            )
        ]
        if symmetric and self._graph.has_edge(target, source):
            reverse_owner = self._owner_of_edge(target, source)
            if reverse_owner is not None:
                changes.append(
                    EdgeChange(
                        op="delete",
                        source=target,
                        target=source,
                        old_weight=self._graph.edge_weight(target, source),
                        fragment_id=reverse_owner,
                    )
                )
        self.statistics.edges_deleted += len(changes)
        self._apply_changes("delete", changes)
        return owner

    def update_edge_weight(self, source: Node, target: Node, weight: float) -> int:
        """Change the weight of an existing edge; returns its fragment id."""
        owner = self._owner_of_edge(source, target)
        if owner is None:
            raise FragmentationError(f"edge ({source!r}, {target!r}) is not stored")
        changes = [
            EdgeChange(
                op="reweight",
                source=source,
                target=target,
                weight=float(weight),
                old_weight=self._graph.edge_weight(source, target),
                fragment_id=owner,
            )
        ]
        self._apply_changes("reweight", changes)
        return owner

    def replay_record(self, record: "DeltaRecord") -> Tuple[int, ...]:
        """Re-apply one update recorded in another database's delta log.

        This is the snapshot catch-up path: a database restored from a
        snapshot taken at delta sequence ``n`` replays the live log's tail
        (``records_since(n)``) instead of forcing a fresh snapshot.  Replay
        reuses the recorded elementary :class:`EdgeChange` list — including
        each change's original owning fragment — so the replayed state
        matches the live database exactly, and it flows through the same
        :meth:`_apply_changes` path as a first-hand update: the incremental
        maintainer absorbs it in place when possible, listeners fire, the
        version vector moves, and the local delta log records it under the
        same sequence number (provided :meth:`DeltaLog.resume_at` aligned
        the numbering).

        ``refragment`` records carry the complete new fragment edge lists
        (already id-aligned), so replay *crosses* a reorganisation: the
        recorded layout is re-adopted through :meth:`refragment`, after which
        every later record's fragment ids mean the same thing here as in the
        source database.  Only legacy change-free records (written before
        layouts were recorded) remain unreplayable.

        Returns the dirty fragment ids.

        Raises:
            ValueError: for a change-free record with no recorded layout;
                the caller must resynchronise from a snapshot taken after
                the reorganisation instead of replaying across it.
        """
        if record.kind == "refragment" and record.layout is not None:
            self.refragment(
                layout=[list(edges) for edges in record.layout],
                algorithm=record.algorithm or "replayed",
            )
            replayed = self.delta_log.last()
            return replayed.dirty_fragments if replayed is not None else ()
        if record.kind == "refragment" or not record.changes:
            raise ValueError(
                f"cannot replay record {record.sequence} ({record.kind!r}): it "
                "reorganised the source's fragments and carries no layout or "
                "edge changes — resynchronise from a snapshot taken after it"
            )
        changes = list(record.changes)
        for change in changes:
            if change.op == "insert":
                self.statistics.edges_inserted += 1
            elif change.op == "delete":
                self.statistics.edges_deleted += 1
        return self._apply_changes(record.kind, changes)

    def refragment(
        self,
        fragmenter: Optional[Fragmenter] = None,
        *,
        layout: Optional[List[List[Edge]]] = None,
        algorithm: Optional[str] = None,
        aligned: bool = True,
    ) -> Fragmentation:
        """Redraw the fragment boundaries over the current graph.

        Either re-runs a fragmentation algorithm (``fragmenter``) or adopts
        an explicit ``layout``: already id-aligned by default (the delta-log
        replay path), or a raw proposal to be aligned here
        (``aligned=False`` — how a caller executes exactly the layout an
        advisor already computed and judged, without re-running the
        fragmenter).  Fragment ids are aligned to the deployed layout by edge
        overlap.  With a live engine and a standard semiring the redraw is
        absorbed *in place* the way a write is, by the incremental
        maintainer (:meth:`~repro.incremental.maintainer.IncrementalMaintainer.redraw`):
        only the fragments whose edges or neighbourhood moved are rebuilt,
        the disconnection sets whose membership moved are repaired, and
        listeners receive a scoped (``event.incremental``) event naming exactly
        the dirty fragments; ``last_delta`` holds the
        :class:`~repro.incremental.maintainer.RefragmentResult`.  Outside that
        envelope the classic full rebuild applies (everything stale, epoch
        advanced).

        Both paths share the write path's tail: they append a ``refragment``
        delta record carrying the aligned fragment edge lists, so a replica
        replaying this database's log follows the reorganisation instead of
        falling off it, and the database keeps the one
        :class:`Fragmentation` it handed the catalog.

        Raises:
            ValueError: when neither ``fragmenter`` nor ``layout`` is given.
        """
        from ..refragmentation.live import align_layout

        if layout is not None:
            new_layout = [set(edges) for edges in layout]
            if not aligned:
                new_layout = align_layout(self._fragment_edges, new_layout)
            new_algorithm = algorithm or self._algorithm
        elif fragmenter is not None:
            proposed = fragmenter.fragment(self._graph.copy())
            new_layout = align_layout(
                self._fragment_edges, [set(f.edges) for f in proposed.fragments]
            )
            new_algorithm = proposed.algorithm
        else:
            raise ValueError("refragment needs a fragmenter or an explicit layout")
        self.statistics.refragments += 1
        new_fragmentation = None
        if all(new_layout):  # an empty slot would violate the Fragmentation contract
            new_fragmentation = Fragmentation(self._graph, new_layout, algorithm=new_algorithm)
        maintainer = self._ensure_maintainer()
        applied = None
        if maintainer is not None and new_fragmentation is not None:
            try:
                applied = maintainer.redraw(new_fragmentation)
            except Exception:
                # A failure mid-apply may have half-patched the complementary
                # information; the classic path discards it with the engine,
                # so correctness never depends on the scoped apply.
                applied = None
        self._adopt_layout([set(edges) for edges in new_layout])
        self._algorithm = new_algorithm
        if new_fragmentation is not None:
            # The catalog adopted this object (or the rebuild will): one
            # layout, one Fragmentation.
            self._snapshot = new_fragmentation
        if applied is not None:
            self.statistics.scoped_refragments += 1
        self._commit(
            "refragment",
            [],
            applied,
            None,
            tuple(tuple(sorted(edges, key=repr)) for edges in new_layout),
            new_algorithm,
        )
        return self.fragmentation()

    # ------------------------------------------------------------- internals

    def _insert_change(self, source: Node, target: Node, weight: float) -> EdgeChange:
        """Describe one edge insertion (an existing edge becomes a reweight)."""
        existing_owner = self._owner_of_edge(source, target)
        if existing_owner is not None:
            return EdgeChange(
                op="reweight",
                source=source,
                target=target,
                weight=float(weight),
                old_weight=self._graph.edge_weight(source, target),
                fragment_id=existing_owner,
            )
        owner = self._choose_owner(source, target)
        return EdgeChange(
            op="insert", source=source, target=target, weight=float(weight), fragment_id=owner
        )

    def _apply_changes(self, kind: str, changes: List[EdgeChange]) -> Tuple[int, ...]:
        """Mutate the base state for ``changes`` and tell the listeners.

        The live engine absorbs the update in place when it can; every way
        it cannot is named (``UpdateEvent.fallback``) and counted
        (``statistics.incremental_fallbacks``) before the classic rebuild
        takes over — the answers stay right either way, so nothing else
        would show that the in-place path had stopped running.

        Returns the dirty fragment ids.
        """
        maintainer = self._ensure_maintainer()
        fallback = "unsupported" if maintainer is None else None
        if maintainer is not None:
            try:
                maintainer.begin(changes)
            except Exception:
                # Any pre-mutation failure (expected fallback or not) simply
                # routes this update through the classic rebuild.
                fallback = "begin"
                maintainer = None
        for change in changes:
            self._mutate(change)
        self._sync_mirror(changes)
        applied = None
        if maintainer is not None:
            try:
                applied = maintainer.complete(kind, changes)
            except Exception:
                # The graph is already mutated; a failed in-place apply —
                # the expected IncrementalFallback or anything unexpected
                # mid-repair — must never leave the old engine live.  The
                # classic path below marks it stale, and the rebuild discards
                # any half-patched complementary state.
                fallback = "complete"
        if applied is not None:
            self.statistics.incremental_updates += 1
            self.statistics.pairs_repaired += len(applied.pairs_changed)
        else:
            self.statistics.incremental_fallbacks += 1
            if any(not edges for edges in self._fragment_edges):
                # A fragment emptied out.  fragmentation() renumbers the
                # surviving fragments densely, so the raw edge-set list must
                # be compacted the same way — otherwise every later owner
                # lookup would hand out indices the rebuilt catalog does not
                # have.
                self._adopt_layout([edges for edges in self._fragment_edges if edges])
            for fragment_id in sorted({change.fragment_id for change in changes}):
                self._mark_affected(fragment_id)
        return self._commit(kind, changes, applied, fallback, None, None)

    def _commit(
        self,
        kind: str,
        changes: List[EdgeChange],
        applied: Optional["AppliedDelta"],
        fallback: Optional[str],
        layout: Optional[Tuple[Tuple[Edge, ...], ...]],
        algorithm: Optional[str],
    ) -> Tuple[int, ...]:
        """Record one applied layout change and tell the listeners; returns the dirty ids.

        The shared tail of a write and a redraw.  Absorbed in place
        (``applied``): the dirty fragments' versions move and the record
        names them.  Otherwise the engine is marked stale for the classic
        rebuild and the epoch advances; the dirty fragments are then the
        written ones (none for a redraw, which affects every fragment).
        A redraw's record carries its ``layout`` and ``algorithm`` (``None``
        for a write).  The event's edge and owner are those of the first
        change.
        """
        self.last_delta = applied
        versions = None
        if applied is not None:
            dirty = applied.dirty_fragments
            self.version_vector.bump_all(dirty)
            self.statistics.rows_recomputed += applied.report.rows_recomputed
            self.statistics.affected_fragment_pairs += len(applied.pairs_changed)
            versions = {fid: self.version_vector.version_of(fid) for fid in dirty}
        else:
            dirty = tuple(sorted({change.fragment_id for change in changes}))
            self._stale = True
            self._maintainer = None
            self.version_vector.advance_epoch()
        self.delta_log.append(
            kind,
            changes=tuple(changes),
            dirty_fragments=dirty,
            incremental=applied is not None,
            versions=versions,
            epoch=self.version_vector.epoch,
            layout=layout,
            algorithm=algorithm,
        )
        edge = changes[0] if changes else None
        self._notify(
            UpdateEvent(
                kind,
                *((edge.source, edge.target, edge.fragment_id) if edge else ()),
                dirty_fragments=dirty,
                incremental=applied is not None,
                fallback=fallback,
            )
        )
        return dirty

    def _adopt_layout(self, fragment_edges: List[Set[Edge]]) -> None:
        """Install a whole new list of fragment edge sets.

        Everything kept per layout starts over: the owner index is rebuilt on
        its next use and the next :meth:`fragmentation` is built from scratch.
        """
        self._fragment_edges = fragment_edges
        self._owners: Optional[_OwnerIndex] = None
        self._snapshot: Optional[Fragmentation] = None
        self._reshaped: Set[int] = set()  # fragments whose edge set moved since _snapshot

    def _owner_index(self) -> "_OwnerIndex":
        if self._owners is None:
            self._owners = _OwnerIndex(self._fragment_edges)
        return self._owners

    def _mutate(self, change: EdgeChange) -> None:
        """Apply one elementary change to the graph and fragment edge sets."""
        edge = (change.source, change.target)
        edges = self._fragment_edges[change.fragment_id]
        if change.op == "delete":
            if edge in edges:
                edges.discard(edge)
                self._reshaped.add(change.fragment_id)
                if self._owners is not None:
                    self._owners.remove(edge, change.fragment_id)
            self._graph.remove_edge(change.source, change.target)
        else:  # insert or reweight: DiGraph.add_edge upserts the weight
            self._graph.add_edge(change.source, change.target, change.weight)
            if edge not in edges:
                edges.add(edge)
                self._reshaped.add(change.fragment_id)
                if self._owners is not None:
                    self._owners.add(edge, change.fragment_id)

    def _ensure_maintainer(self):
        """Return a maintainer bound to the live engine, or ``None``."""
        from ..incremental.maintainer import IncrementalMaintainer, supports_incremental

        if not supports_incremental(self):
            return None
        assert self._engine is not None  # supports_incremental checked it
        if self._maintainer is None or self._maintainer.engine is not self._engine:
            self._maintainer = IncrementalMaintainer(self, self._engine)
        return self._maintainer

    def _choose_owner(self, source: Node, target: Node) -> int:
        """Pick the fragment a new edge joins.

        The lowest id holding both endpoints, else the lowest holding either,
        else the fragment with the fewest edges (the lowest id among equals).
        """
        owners = self._owner_index()
        at_source = owners.fragments_at(source)
        at_target = owners.fragments_at(target)
        candidates = (at_source & at_target) or (at_source | at_target)
        if candidates:
            return min(candidates)
        return min(range(len(self._fragment_edges)), key=lambda index: len(self._fragment_edges[index]))

    def _owner_of_edge(self, source: Node, target: Node) -> Optional[int]:
        return self._owner_index().edge_owner.get((source, target))

    def _mark_affected(self, fragment_id: int) -> None:
        """Record that the disconnection sets of ``fragment_id`` need refreshing."""
        try:
            fragmentation = self.fragmentation()
            self.statistics.affected_fragment_pairs += len(
                fragmentation.adjacent_fragments(fragment_id)
            )
        except FragmentationError:
            pass
        self._stale = True
