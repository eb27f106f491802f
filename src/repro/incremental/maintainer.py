"""The incremental maintainer: updates proportional to their locality.

Without this subsystem an :class:`~repro.disconnection.maintenance.UpdateEvent`
is catastrophic: the engine is torn down, every disconnection set's
complementary information is recomputed from scratch, every fragment's compact
CSR state is rebuilt and re-shipped.  :class:`IncrementalMaintainer` replaces
that with the paper's locality contract — a change touches one fragment and
the disconnection sets it borders:

1. **before** the base graph mutates, it probes the *old* graph for the
   stored border-to-border values whose optimal paths ran through the changed
   edge (the only values a delete or weight increase can degrade); the
   probe searches only as far from the edge as the largest stored value
   reaches,
2. the database's resident whole-graph compact mirror absorbs the edge delta
   as an O(delta) overlay splice (the same mirror backs precompute and live
   refragmentation),
3. disconnection sets whose *membership* changed (a fragment gained or lost a
   node) are recomputed wholesale; for everything else only the probed rows
   plus the rows an insert provably improves are re-searched,
4. the engine's catalog hands each dirty fragment's site the edge changes it
   owns (and fresh borders when one of its disconnection sets was repaired)
   to patch itself with — every other site object, including its compact
   kernels, stays identical, and so does every other ``Fragment`` of the
   derived post-write :class:`~repro.fragmentation.Fragmentation`,
5. the caller receives an :class:`AppliedDelta` naming the dirty fragments
   and their compact deltas, which drives per-fragment version bumps, scoped
   cache eviction, and worker re-pinning upstream.

When an update falls outside the supported envelope (custom semiring, a
fragment emptied out, refragmentation) the maintainer raises
:class:`IncrementalFallback` and the database performs the classic full
rebuild — correctness never depends on the fast path applying.  Routes are
inside the envelope because nothing route-specific is stored: the engine
traces a route from the repaired values and the live graph when asked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from ..disconnection.engine import DisconnectionSetEngine
from ..fragmentation import Fragmentation
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
    """The outcome of one incrementally absorbed update.

    Attributes:
        kind: the high-level update kind (``insert`` / ``delete`` /
            ``reweight``).
        changes: the elementary edge changes applied.
        dirty_fragments: fragments whose site state was patched (sorted).
        pairs_changed: disconnection-set pairs whose complementary values or
            membership changed.
        site_deltas: per dirty fragment, the compact delta its augmented
            graph absorbed (``None`` when that site had no compact form yet)
            — the scoped payload the worker pool re-pins with.
        report: the repair accounting (rows recomputed, searches run).
    """

    kind: str
    changes: Tuple[EdgeChange, ...]
    dirty_fragments: Tuple[int, ...]
    pairs_changed: Tuple[FragmentPair, ...]
    site_deltas: Dict[int, Optional[CompactDelta]] = field(default_factory=dict)
    report: RepairReport = field(default_factory=RepairReport)


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
    """Keeps one engine's catalog consistent under edge updates, in place.

    Args:
        database: the owning fragmented database (its graph is the source of
            truth; the maintainer mirrors it as a whole-graph
            :class:`CompactGraph` for the repair searches).
        engine: the live engine to maintain; a maintainer is bound to one
            engine generation and is discarded with it.
    """

    def __init__(self, database: "FragmentedDatabase", engine: DisconnectionSetEngine) -> None:
        self._database = database
        self._engine = engine
        self._repairer = ComplementaryRepairer(engine.semiring)
        self._fragmentation = engine.catalog.fragmentation
        # The database's long-lived resident mirror — shared with precompute
        # and LiveRefragmenter, kept in sync by the database after every
        # mutation (an O(delta) overlay splice, never a rebuild).
        self._full_compact = database.compact_mirror()
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
            self._full_compact,
            changes,
            self._fragmentation.disconnection_sets(),
            report,
        )
        self._pending_report = report

    def complete(self, kind: str, changes: List[EdgeChange]) -> AppliedDelta:
        """Repair and re-point everything after the base graph mutated.

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

        # The shared whole-graph mirror already absorbed the edge delta: the
        # database splices it in right after mutating the base graph, before
        # calling complete().

        info = self._engine.catalog.complementary
        old_sets = self._fragmentation.disconnection_sets()
        new_sets = new_fragmentation.disconnection_sets()

        # Structural repair: disconnection sets whose membership changed are
        # recomputed wholesale (all of them involve the updated fragment —
        # only its node set can have moved).
        structural: Set[FragmentPair] = set()
        for pair in set(old_sets) | set(new_sets):
            if old_sets.get(pair) != new_sets.get(pair):
                structural.add(pair)
                if pair in new_sets:
                    self._repairer.recompute_pair(
                        info, self._full_compact, pair, new_sets[pair], report
                    )
                else:
                    self._repairer.remove_pair(info, pair, report)
                report.pairs_changed.add(pair)  # membership moved: chains differ

        # Value repair for the surviving pairs: the probed degradations plus
        # whatever the post-change graph says an insert improved.
        stable_sets = {pair: border for pair, border in new_sets.items() if pair not in structural}
        rows: Dict[FragmentPair, Set[Node]] = {
            pair: set(sources) for pair, sources in suspects.items() if pair in stable_sets
        }
        improvements = self._repairer.affected_sources_after(
            info, self._full_compact, changes, stable_sets, report
        )
        for pair, sources in improvements.items():
            rows.setdefault(pair, set()).update(sources)
        self._repairer.recompute_rows(info, self._full_compact, rows, stable_sets, report)

        # Scope: the owning fragments plus every fragment whose shortcut set
        # (or disconnection-set membership) changed.
        dirty: Set[int] = {change.fragment_id for change in changes if change.fragment_id >= 0}
        for i, j in report.pairs_changed:
            dirty.add(i)
            dirty.add(j)
        dirty_sorted = sorted(dirty)
        site_deltas = self._engine.apply_incremental_update(
            new_fragmentation,
            dirty_fragments=dirty_sorted,
            changes=changes,
            pairs_changed=report.pairs_changed,
        )
        self._fragmentation = new_fragmentation
        return AppliedDelta(
            kind=kind,
            changes=tuple(changes),
            dirty_fragments=tuple(dirty_sorted),
            pairs_changed=tuple(sorted(report.pairs_changed)),
            site_deltas=site_deltas,
            report=report,
        )


