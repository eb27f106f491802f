"""The incremental maintainer: layout changes proportional to their locality.

Without this subsystem a change to the fragmented database is catastrophic:
the engine is torn down, every disconnection set's complementary information
is recomputed from scratch, every fragment's compact CSR state is rebuilt and
re-shipped.  :class:`IncrementalMaintainer` replaces that with the paper's
locality contract — a change touches one fragment and the disconnection sets
it borders.  It absorbs two kinds of layout change through one path:

* a **write** (:meth:`~IncrementalMaintainer.begin` /
  :meth:`~IncrementalMaintainer.complete`) changes edges: before the base
  graph mutates, the *old* graph is probed for the stored border-to-border
  values whose optimal paths ran through the changed edge (the only values a
  delete or weight increase can degrade; the probe searches only as far from
  the edge as the largest stored value reaches), and after it mutated the
  probed rows plus the rows an insert provably improves are re-searched;
* a **redraw** (:meth:`~IncrementalMaintainer.redraw`) moves boundaries over
  an unchanged graph, so a disconnection set whose membership survived keeps
  its values verbatim.

Both then run the same steps:

1. disconnection sets whose *membership* changed (a fragment gained or lost a
   node) are recomputed wholesale over the database's resident whole-graph
   compact mirror,
2. the engine's catalog patches (a write) or rebuilds (a redraw) the dirty
   fragments' sites and drops the ids a shrinking redraw removed — every
   other site object, including its compact kernels, stays identical,
3. the caller receives an :class:`AppliedDelta` (a :class:`RefragmentResult`
   for a redraw) naming the dirty fragments and their compact deltas, which
   drives per-fragment version bumps, scoped cache eviction, and worker
   re-pinning upstream.

When a change falls outside the supported envelope (custom semiring, a
fragment emptied out) the maintainer is not used or raises
:class:`IncrementalFallback`, and the database performs the classic full
rebuild — correctness never depends on the fast path applying.  Routes are
inside the envelope because nothing route-specific is stored: the engine
traces a route from the repaired values and the live graph when asked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Sequence, Set, Tuple

from ..disconnection.engine import DisconnectionSetEngine
from ..fragmentation import Fragmentation
from ..fragmentation.metrics import total_border_nodes
from ..graph.compact import CompactDelta
from .delta import EdgeChange
from .repair import REPAIRABLE_SEMIRINGS, ComplementaryRepairer, RepairReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..disconnection.maintenance import FragmentedDatabase

Node = Hashable
FragmentPair = Tuple[int, int]


class IncrementalFallback(Exception):
    """The update cannot be absorbed in place; do a full rebuild instead."""


@dataclass(frozen=True)
class AppliedDelta:
    """The outcome of one layout change absorbed in place.

    Attributes:
        kind: the high-level change kind (``insert`` / ``delete`` /
            ``reweight`` / ``refragment``).
        changes: the elementary edge changes applied (none for a redraw).
        dirty_fragments: every fragment whose prepared state moved — patched,
            rebuilt or dropped (sorted).
        pairs_changed: disconnection-set pairs whose complementary values or
            membership changed.
        site_deltas: per patched fragment, the compact delta its augmented
            graph absorbed (``None`` when that site had no compact form yet,
            or was rebuilt) — the scoped payload the worker pool re-pins with.
        report: the repair accounting (rows recomputed, searches run).
    """

    kind: str
    changes: Tuple[EdgeChange, ...]
    dirty_fragments: Tuple[int, ...]
    pairs_changed: Tuple[FragmentPair, ...]
    site_deltas: Dict[int, Optional[CompactDelta]] = field(default_factory=dict)
    report: RepairReport = field(default_factory=RepairReport)


@dataclass(frozen=True, kw_only=True)
class RefragmentResult(AppliedDelta):
    """A boundary redraw absorbed in place (``kind == "refragment"``).

    ``dirty_fragments`` are the :attr:`changed` fragments plus the
    ``dropped`` ones.

    Attributes:
        created: fragment ids that did not exist before the redraw.
        dropped: old fragment ids that no longer exist (layout shrank).
        unchanged: fragment ids whose sites stayed object-identical.
        moved_edges: total directed edges in the rebuilt fragments (the
            re-pin payload size, and the figure the benchmark compares to a
            full rebuild's every-edge reshipping).
        border_nodes_before / border_nodes_after: distinct border nodes
            before and after — their difference is the locality the redraw
            recovered.
    """

    created: Tuple[int, ...]
    dropped: Tuple[int, ...]
    unchanged: Tuple[int, ...]
    moved_edges: int
    border_nodes_before: int
    border_nodes_after: int

    @property
    def changed(self) -> Tuple[int, ...]:
        """Fragment ids whose site was rebuilt (``created`` included).

        Their edge set or their shortcut / disconnection-set neighbourhood
        moved.
        """
        return tuple(f for f in self.dirty_fragments if f not in self.dropped)

    def border_nodes_recovered(self) -> int:
        """Return how many border nodes the redraw eliminated (may be negative)."""
        return self.border_nodes_before - self.border_nodes_after


def supports_incremental(database: "FragmentedDatabase") -> bool:
    """Return whether the database's configuration fits the fast path.

    The repair machinery covers the two standard semirings; custom
    semirings take the classic full-rebuild route.
    """
    engine = database.current_engine()
    if engine is None:
        return False
    if engine.semiring.name not in REPAIRABLE_SEMIRINGS:
        return False
    return True


class IncrementalMaintainer:
    """Keeps one engine's catalog consistent under writes and redraws, in place.

    Args:
        database: the owning fragmented database (its graph is the source of
            truth; its resident whole-graph :class:`CompactGraph` mirror is
            what the repair searches run on).
        engine: the live engine to maintain; a maintainer is bound to one
            engine generation and is discarded with it.
    """

    def __init__(self, database: "FragmentedDatabase", engine: DisconnectionSetEngine) -> None:
        self._database = database
        self._engine = engine
        self._repairer = ComplementaryRepairer(engine.semiring)
        self._fragmentation = engine.catalog.fragmentation
        self._pending_suspects: Optional[Dict[FragmentPair, Set[Node]]] = None
        self._pending_report: Optional[RepairReport] = None

    @property
    def engine(self) -> DisconnectionSetEngine:
        """The engine generation this maintainer is bound to."""
        return self._engine

    # ------------------------------------------------------------- lifecycle

    def begin(self, changes: List[EdgeChange]) -> None:
        """Probe the pre-change graph; must run before the base graph mutates.

        Collects the border-source rows whose stored values might degrade
        (deletes and weight increases can only be witnessed against the old
        graph).
        """
        report = RepairReport()
        self._pending_suspects = self._repairer.affected_sources_before(
            self._engine.catalog.complementary,
            self._database.compact_mirror(),
            changes,
            self._fragmentation.disconnection_sets(),
            report,
        )
        self._pending_report = report

    def complete(self, kind: str, changes: List[EdgeChange]) -> AppliedDelta:
        """Repair and re-point everything after the base graph mutated.

        The database has already spliced the edge delta into the shared
        whole-graph mirror, right after mutating the base graph.

        Raises:
            IncrementalFallback: when the post-change state falls outside the
                supported envelope (a fragment emptied out and fragment ids
                would shift); the caller must do a full rebuild.
        """
        if self._pending_suspects is None or self._pending_report is None:
            raise IncrementalFallback("complete() called without a matching begin()")
        suspects, report = self._pending_suspects, self._pending_report
        self._pending_suspects = None
        self._pending_report = None

        new_fragmentation = self._database.fragmentation()
        if new_fragmentation.fragment_count() != self._fragmentation.fragment_count():
            raise IncrementalFallback(
                "a fragment emptied out; fragment ids would shift under renumbering"
            )
        structural = self._repair_membership(new_fragmentation, report)

        # Value repair for the surviving pairs: the probed degradations plus
        # whatever the post-change graph says an insert improved.
        info = self._engine.catalog.complementary
        mirror = self._database.compact_mirror()
        stable_sets = {
            pair: border
            for pair, border in new_fragmentation.disconnection_sets().items()
            if pair not in structural
        }
        rows: Dict[FragmentPair, Set[Node]] = {
            pair: set(sources) for pair, sources in suspects.items() if pair in stable_sets
        }
        improvements = self._repairer.affected_sources_after(
            info, mirror, changes, stable_sets, report
        )
        for pair, sources in improvements.items():
            rows.setdefault(pair, set()).update(sources)
        self._repairer.recompute_rows(info, mirror, rows, stable_sets, report)

        dirty, site_deltas = self._adopt(
            new_fragmentation,
            {change.fragment_id for change in changes if change.fragment_id >= 0},
            changes,
            report,
        )
        return AppliedDelta(
            kind=kind,
            changes=tuple(changes),
            dirty_fragments=dirty,
            pairs_changed=tuple(sorted(report.pairs_changed)),
            site_deltas=site_deltas,
            report=report,
        )

    def redraw(self, new_fragmentation: Fragmentation) -> RefragmentResult:
        """Reorganise the engine's catalog to ``new_fragmentation`` in place.

        ``new_fragmentation`` must already be id-aligned (see
        :func:`~repro.refragmentation.live.align_layout`) and built over the
        *same* base graph the engine serves — a redraw moves boundaries, it
        never changes edges, so only pairs whose membership moved are
        re-searched.  Unchanged fragments' sites (compact kernels included)
        survive untouched; everything else is rebuilt and named in the
        returned :class:`RefragmentResult`.
        """
        old_fragmentation = self._fragmentation
        old_count = old_fragmentation.fragment_count()
        new_count = new_fragmentation.fragment_count()
        edges_moved = {
            fragment.fragment_id
            for fragment in new_fragmentation.fragments
            if fragment.fragment_id >= old_count
            or fragment.edges != old_fragmentation.fragment(fragment.fragment_id).edges
        }
        report = RepairReport()
        self._repair_membership(new_fragmentation, report)
        changed, _ = self._adopt(new_fragmentation, edges_moved, (), report)
        dropped = tuple(range(new_count, old_count))
        return RefragmentResult(
            kind="refragment",
            changes=(),
            dirty_fragments=changed + dropped,
            pairs_changed=tuple(sorted(report.pairs_changed)),
            report=report,
            created=tuple(range(old_count, new_count)),
            dropped=dropped,
            unchanged=tuple(f for f in range(new_count) if f not in changed),
            moved_edges=sum(new_fragmentation.fragment(f).edge_count() for f in changed),
            border_nodes_before=total_border_nodes(old_fragmentation),
            border_nodes_after=total_border_nodes(new_fragmentation),
        )

    # ------------------------------------------------------------- internals

    def _repair_membership(
        self, new_fragmentation: Fragmentation, report: RepairReport
    ) -> Set[FragmentPair]:
        """Recompute every disconnection set whose membership moved; return those pairs.

        After a write all of them involve the written fragment (only its
        node set can have moved); after a redraw any pair may have.
        """
        info = self._engine.catalog.complementary
        old_sets = self._fragmentation.disconnection_sets()
        new_sets = new_fragmentation.disconnection_sets()
        moved: Set[FragmentPair] = set()
        for pair in set(old_sets) | set(new_sets):
            if old_sets.get(pair) == new_sets.get(pair):
                continue
            moved.add(pair)
            if pair in new_sets:
                self._repairer.recompute_pair(
                    info, self._database.compact_mirror(), pair, new_sets[pair], report
                )
            else:
                self._repairer.remove_pair(info, pair, report)
        report.pairs_changed.update(moved)  # membership moved: chains differ
        return moved

    def _adopt(
        self,
        new_fragmentation: Fragmentation,
        dirty: Set[int],
        changes: Sequence[EdgeChange],
        report: RepairReport,
    ) -> Tuple[Tuple[int, ...], Dict[int, Optional[CompactDelta]]]:
        """Hand the repaired change to the engine; return the dirty ids and site deltas.

        The dirty fragments are the ones whose edges moved plus every
        fragment whose shortcut set or disconnection-set membership changed.
        """
        count = new_fragmentation.fragment_count()
        dirty.update(f for pair in report.pairs_changed for f in pair if f < count)
        dirty_sorted = tuple(sorted(dirty))
        site_deltas = self._engine.apply_incremental_update(
            new_fragmentation,
            dirty_fragments=list(dirty_sorted),
            changes=changes,
            pairs_changed=report.pairs_changed,
        )
        self._fragmentation = new_fragmentation
        return dirty_sorted, site_deltas
