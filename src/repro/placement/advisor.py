"""The rebalance advisor: watch owner skew, recommend fragment migrations.

A placement plan is computed once, but workloads drift: a few fragments turn
hot, an owner's queue grows while its neighbours idle, or the update stream
concentrates on fragments whose re-pins all land on one process.  The
advisor folds the observable signals together —

* per-fragment dispatch counts (``stats.counts(stats.per_site_load)``),
* per-owner dispatch totals / queue depths (the routed pool's counters),
* :class:`~repro.incremental.delta.DeltaLog` locality (each dirty-fragment
  entry is a re-pin an owner had to absorb),
* the :class:`~repro.observability.querylog.QueryLog`'s per-fragment read
  frequencies — the first true *workload* signal: cached answers dispatch
  nothing, so a hot-but-cached fragment is invisible to the dispatch
  counters yet still concentrates invalidation and re-read risk on its
  owner —

and recommends :class:`Migration` steps that move fragments from the most
loaded owner to the least loaded one.  Recommendations are greedy and
bounded; applying them through ``QueryService.rebalance`` (or the routed
pool's ``migrate``) moves live compact state between workers without a pool
restart, so a skewed plan is repaired in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from ..incremental.delta import DeltaLog
from ..observability.querylog import QueryLog
from .plan import PlacementPlan

DEFAULT_SKEW_THRESHOLD = 1.5
DEFAULT_UPDATE_WEIGHT = 1.0
DEFAULT_QUERY_WEIGHT = 1.0


@dataclass(frozen=True)
class Migration:
    """One recommended fragment move.

    Attributes:
        fragment_id: the fragment to re-own.
        from_worker: its current owner.
        to_worker: the recommended destination.
        reason: a human-readable justification (skew figures).
    """

    fragment_id: int
    from_worker: int
    to_worker: int
    reason: str


class RebalanceAdvisor:
    """Recommends owner migrations when per-owner load skew crosses a threshold.

    Args:
        skew_threshold: recommend migrations only while the max/mean owner
            load exceeds this (1.0 means perfectly balanced; the default 1.5
            tolerates mild imbalance, as migrations are not free).
        update_weight: how many dispatches one delta-log re-pin counts as
            when folding update locality into the load model.
        max_migrations: cap on recommendations per :meth:`recommend` call.

    One query-log fragment touch counts as :data:`DEFAULT_QUERY_WEIGHT` (1.0)
    dispatches when the captured workload is folded into the load model.
    """

    def __init__(
        self,
        *,
        skew_threshold: float = DEFAULT_SKEW_THRESHOLD,
        update_weight: float = DEFAULT_UPDATE_WEIGHT,
        max_migrations: int = 8,
    ) -> None:
        if skew_threshold < 1.0:
            raise ValueError(f"skew_threshold must be >= 1.0, got {skew_threshold}")
        self._skew_threshold = skew_threshold
        self._update_weight = update_weight
        self._max_migrations = max_migrations

    # -------------------------------------------------------------- modelling

    def fragment_loads(
        self,
        plan: PlacementPlan,
        dispatch_counts: Mapping[int, float],
        *,
        delta_log: Optional[DeltaLog] = None,
        query_log: Optional[QueryLog] = None,
    ) -> Dict[int, float]:
        """Return the modelled load of every placed fragment.

        Query dispatches count 1 each; every delta-log record that dirtied a
        fragment adds ``update_weight`` (its owner absorbed that re-pin);
        every query-log entry that touched a fragment adds
        :data:`DEFAULT_QUERY_WEIGHT`
        — crucially *including cached answers*, which never reached the
        dispatch counters.  Fragments with no recorded signal model as 0.0 —
        an idle fragment costs its owner nothing; only when *no* fragment
        has any signal does :meth:`recommend` fall back to balancing by
        fragment count.
        """
        loads = {f: float(dispatch_counts.get(f, 0.0)) for f in plan.fragment_ids}
        if delta_log is not None:
            for record in delta_log.records():
                for fragment_id in record.dirty_fragments:
                    if fragment_id in loads:
                        loads[fragment_id] += self._update_weight
        if query_log is not None:
            for fragment_id, touches in query_log.fragment_frequencies().items():
                if fragment_id in loads:
                    loads[fragment_id] += DEFAULT_QUERY_WEIGHT * touches
        return loads

    def skew(
        self,
        plan: PlacementPlan,
        dispatch_counts: Mapping[int, float],
        *,
        delta_log: Optional[DeltaLog] = None,
    ) -> float:
        """Return the plan's max/mean owner-load skew under the load model, without the query log."""
        return plan.skew(self.fragment_loads(plan, dispatch_counts, delta_log=delta_log))

    # ---------------------------------------------------------- recommending

    def recommend(
        self,
        plan: PlacementPlan,
        dispatch_counts: Mapping[int, float],
        *,
        delta_log: Optional[DeltaLog] = None,
        query_log: Optional[QueryLog] = None,
    ) -> List[Migration]:
        """Return the migrations that bring the plan back within bounds.

        Two conditions trigger a move, simulated greedily on a copy of the
        plan until neither holds, no move improves, or the migration cap is
        reached:

        * an owner holds more than ``ceil(fragments / workers)`` fragments —
          the memory bound placement exists for is violated, so its lightest
          fragments spill to under-capacity owners unconditionally;
        * the modelled max/mean owner-load skew exceeds the threshold — the
          heaviest owner sheds its heaviest still-helpful fragment to the
          lightest owner.

        An already-balanced, within-capacity plan yields no recommendations.
        """
        loads = self.fragment_loads(
            plan, dispatch_counts, delta_log=delta_log, query_log=query_log
        )
        if sum(loads.values()) <= 0.0:
            # No signal at all: balance by fragment *count* instead, so a
            # cold pool with every fragment parked on worker 0 still spreads.
            loads = {f: 1.0 for f in loads}
        working = plan.copy()
        capacity = math.ceil(len(working.fragment_ids) / working.worker_count)
        migrations: List[Migration] = []
        while len(migrations) < self._max_migrations:
            owner_loads = working.owner_loads(loads)
            owned_counts = [len(working.owned_by(w)) for w in range(working.worker_count)]
            over_capacity = [w for w in range(working.worker_count) if owned_counts[w] > capacity]
            if over_capacity:
                # Capacity repair first: the memory bound is unconditional.
                source = max(over_capacity, key=lambda w: (owned_counts[w], owner_loads[w]))
                target = min(
                    (w for w in range(working.worker_count) if owned_counts[w] < capacity),
                    key=lambda w: (owner_loads[w], owned_counts[w], w),
                )
                fragment_id = min(
                    working.owned_by(source), key=lambda f: (loads.get(f, 0.0), f)
                )
                reason = (
                    f"owner {source} holds {owned_counts[source]} fragments, over the "
                    f"capacity ceil({len(working.fragment_ids)}/"
                    f"{working.worker_count}) = {capacity}"
                )
            else:
                mean = sum(owner_loads) / working.worker_count
                heaviest = max(
                    range(working.worker_count), key=lambda w: (owner_loads[w], -w)
                )
                lightest = min(
                    range(working.worker_count), key=lambda w: (owner_loads[w], w)
                )
                if mean <= 0.0 or owner_loads[heaviest] / mean <= self._skew_threshold:
                    break
                candidates = working.owned_by(heaviest)
                if len(candidates) <= 1:
                    break  # one hot fragment is not fixable by moving it around
                # The best single move: the heaviest fragment whose transfer
                # brings the pair of workers closer without overshooting.
                gap = owner_loads[heaviest] - owner_loads[lightest]
                movable = [
                    f
                    for f in candidates
                    if loads.get(f, 0.0) < gap
                    and len(working.owned_by(lightest)) < capacity
                ]
                if not movable:
                    break
                source, target = heaviest, lightest
                fragment_id = max(movable, key=lambda f: (loads.get(f, 0.0), -f))
                reason = (
                    f"owner {heaviest} carries {owner_loads[heaviest]:.1f} of mean "
                    f"{mean:.1f} (skew {owner_loads[heaviest] / mean:.2f} > "
                    f"{self._skew_threshold:.2f})"
                )
            working.move(fragment_id, target)
            migrations.append(
                Migration(
                    fragment_id=fragment_id,
                    from_worker=source,
                    to_worker=target,
                    reason=reason,
                )
            )
        return migrations

    def apply(
        self,
        migrations: Sequence[Migration],
        pool: "object",
    ) -> int:
        """Apply recommendations through a routed pool's ``migrate``; returns the count.

        The pool is duck-typed (anything with ``migrate(fragment_id,
        to_worker)``) so the advisor stays importable without the service
        package.
        """
        applied = 0
        for migration in migrations:
            pool.migrate(migration.fragment_id, migration.to_worker)  # type: ignore[attr-defined]
            applied += 1
        return applied
