"""Placement plans: an explicit fragment-to-owner-worker map.

The paper's shared-nothing premise is that every fragment lives on exactly
one processor and work is shipped to where the data is.  A
:class:`PlacementPlan` makes that placement explicit for the serving layer:
each fragment has one *owner* worker (the process that pins its compact
state and evaluates its subqueries) plus optional extra *replicas* for hot
fragments, so the routed worker pool holds ``O(fragments / workers)`` state
per process instead of replicating the whole catalog everywhere.

Three pluggable policies compute plans:

* :data:`POLICY_ROUND_ROBIN` — fragment ``i`` on worker ``i mod w``
  (placement oblivious to size; the paper's default when fragments are
  balanced by construction),
* :data:`POLICY_COST_BALANCED` — LPT over per-fragment costs (edge counts or
  simulated work), delegated to the existing
  :func:`repro.parallel.scheduler.assign_fragments` machinery,
* :data:`POLICY_WORKLOAD_AWARE` — LPT over observed dispatch counts (the
  service's ``repro_site_dispatch_total`` series, read as
  :meth:`~repro.service.stats.ServiceStatistics.counts`), with
  the hottest fragments replicated onto the least-loaded workers — the lever
  studied by the query-workload-based allocation literature.

Plans are plain data: they serialise to dictionaries so snapshots persist
them and a restored service resumes with the same placement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import ReproError
from ..parallel.scheduler import POLICY_LPT, assign_fragments

POLICY_ROUND_ROBIN = "round_robin"
POLICY_COST_BALANCED = "cost_balanced"
POLICY_WORKLOAD_AWARE = "workload_aware"
PLACEMENT_POLICIES = (POLICY_ROUND_ROBIN, POLICY_COST_BALANCED, POLICY_WORKLOAD_AWARE)

# Workload-aware replication: a fragment carrying more than HOT_SHARE of a
# fair per-worker share of the dispatches is hot, and gets HOT_EXTRA_REPLICAS
# replicas beyond its owner (bounded, so the plan degrades towards, never
# beyond, full replication).
HOT_SHARE = 0.5
HOT_EXTRA_REPLICAS = 1


class PlacementError(ReproError):
    """A placement plan is invalid or a requested move is impossible."""


@dataclass
class PlacementPlan:
    """Which worker owns (and which workers replicate) each fragment.

    Attributes:
        owner_of: fragment id -> owner worker index (the primary route for
            the fragment's subqueries and re-pins).
        worker_count: number of worker slots the plan places onto.
        replicas: fragment id -> extra worker indices that also pin the
            fragment (never including the owner); subquery routing may fall
            back to any of them.
        policy: the policy that computed the plan (informational; a pool
            restart after refragmentation recomputes with the same policy).
    """

    owner_of: Dict[int, int]
    worker_count: int
    replicas: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    policy: str = POLICY_ROUND_ROBIN

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------ validation

    def validate(self) -> None:
        """Check internal consistency.

        Raises:
            PlacementError: on an empty plan, an out-of-range worker index,
                or a replica set that contains the owner.
        """
        if self.worker_count <= 0:
            raise PlacementError(f"worker_count must be positive, got {self.worker_count}")
        if not self.owner_of:
            raise PlacementError("a placement plan must place at least one fragment")
        for fragment_id, worker in self.owner_of.items():
            if not 0 <= worker < self.worker_count:
                raise PlacementError(
                    f"fragment {fragment_id} is owned by worker {worker}, "
                    f"outside 0..{self.worker_count - 1}"
                )
        for fragment_id, extra in self.replicas.items():
            if fragment_id not in self.owner_of:
                raise PlacementError(f"replicas listed for unplaced fragment {fragment_id}")
            for worker in extra:
                if not 0 <= worker < self.worker_count:
                    raise PlacementError(
                        f"fragment {fragment_id} replica worker {worker} is "
                        f"outside 0..{self.worker_count - 1}"
                    )
            if self.owner_of[fragment_id] in extra:
                raise PlacementError(
                    f"fragment {fragment_id}'s replica set contains its owner"
                )
            if len(set(extra)) != len(extra):
                raise PlacementError(f"fragment {fragment_id} lists a duplicate replica")

    # ------------------------------------------------------------- accessors

    @property
    def fragment_ids(self) -> List[int]:
        """The placed fragments, sorted."""
        return sorted(self.owner_of)

    def owner(self, fragment_id: int) -> int:
        """Return the owner worker of one fragment.

        Raises:
            PlacementError: when the fragment is not placed.
        """
        try:
            return self.owner_of[fragment_id]
        except KeyError:
            raise PlacementError(f"fragment {fragment_id} is not placed") from None

    def workers_for(self, fragment_id: int) -> Tuple[int, ...]:
        """Return every worker pinning the fragment (owner first)."""
        return (self.owner(fragment_id),) + tuple(self.replicas.get(fragment_id, ()))

    def fragments_on(self, worker: int) -> List[int]:
        """Return every fragment pinned on ``worker`` (owned or replicated)."""
        pinned = [f for f, w in self.owner_of.items() if w == worker]
        pinned.extend(
            f for f, extra in self.replicas.items() if worker in extra
        )
        return sorted(set(pinned))

    def owned_by(self, worker: int) -> List[int]:
        """Return the fragments ``worker`` is the primary owner of."""
        return sorted(f for f, w in self.owner_of.items() if w == worker)

    def replication_factor(self) -> int:
        """Return the largest number of extra replicas any fragment carries."""
        return max((len(extra) for extra in self.replicas.values()), default=0)

    def max_pinned(self) -> int:
        """Return the largest per-worker pinned-fragment count."""
        return max(
            (len(self.fragments_on(worker)) for worker in range(self.worker_count)),
            default=0,
        )

    def pinned_bound(self) -> int:
        """Return the bound ``ceil(fragments / workers) + replication factor``.

        A plan produced by the bundled policies never pins more fragments on
        one worker than this; the placement benchmark asserts it.
        """
        return math.ceil(len(self.owner_of) / self.worker_count) + self.replication_factor()

    def owner_loads(self, fragment_costs: Mapping[int, float]) -> List[float]:
        """Return the summed cost of the fragments each worker owns."""
        loads = [0.0] * self.worker_count
        for fragment_id, worker in self.owner_of.items():
            loads[worker] += float(fragment_costs.get(fragment_id, 0.0))
        return loads

    def skew(self, fragment_costs: Mapping[int, float]) -> float:
        """Return max/mean owner load under ``fragment_costs`` (1.0 = balanced).

        Workers owning nothing still count in the mean: a plan that parks
        every fragment on one of four workers has skew 4.0, not 1.0.
        """
        loads = self.owner_loads(fragment_costs)
        total = sum(loads)
        if not loads or total <= 0.0:
            return 1.0
        return max(loads) / (total / len(loads))

    # -------------------------------------------------------------- mutation

    def move(self, fragment_id: int, to_worker: int) -> int:
        """Re-own one fragment; returns the previous owner.

        The fragment's replica set is preserved except that a replica on the
        destination is absorbed into ownership (a fragment never appears
        twice on one worker).

        Raises:
            PlacementError: when the fragment is unplaced or the destination
                is out of range.
        """
        if not 0 <= to_worker < self.worker_count:
            raise PlacementError(
                f"destination worker {to_worker} is outside 0..{self.worker_count - 1}"
            )
        previous = self.owner(fragment_id)
        if previous == to_worker:
            return previous
        extra = [w for w in self.replicas.get(fragment_id, ()) if w != to_worker]
        self.owner_of[fragment_id] = to_worker
        if extra:
            self.replicas[fragment_id] = tuple(extra)
        else:
            self.replicas.pop(fragment_id, None)
        return previous

    def remap(self, fragment_ids: Iterable[int]) -> "PlacementPlan":
        """Return a plan for a redrawn fragment set, moving as little as possible.

        This is the placement half of a live refragmentation: fragments that
        survive the redraw keep their owner (and replicas) — their workers'
        pinned state, and the processes themselves, stay put — fragments that
        vanished are dropped, and brand-new fragment ids are assigned to the
        workers owning the fewest fragments.  The result is a *new* plan (the
        live pool swaps it in atomically after executing the pin changes).
        """
        ids = set(fragment_ids)
        if not ids:
            raise PlacementError("cannot remap onto an empty fragment set")
        owner_of = {f: w for f, w in self.owner_of.items() if f in ids}
        replicas = {
            f: tuple(extra) for f, extra in self.replicas.items() if f in ids and extra
        }
        owned_counts = [0] * self.worker_count
        for worker in owner_of.values():
            owned_counts[worker] += 1
        for fragment_id in sorted(ids - set(owner_of)):
            worker = min(range(self.worker_count), key=lambda w: (owned_counts[w], w))
            owner_of[fragment_id] = worker
            owned_counts[worker] += 1
        return PlacementPlan(
            owner_of=owner_of,
            worker_count=self.worker_count,
            replicas=replicas,
            policy=self.policy,
        )

    def add_replica(self, fragment_id: int, worker: int) -> None:
        """Pin one extra replica of a fragment (idempotent; never the owner)."""
        if not 0 <= worker < self.worker_count:
            raise PlacementError(
                f"replica worker {worker} is outside 0..{self.worker_count - 1}"
            )
        if worker == self.owner(fragment_id):
            return
        extra = self.replicas.get(fragment_id, ())
        if worker not in extra:
            self.replicas[fragment_id] = tuple(extra) + (worker,)

    # ------------------------------------------------------------ plain state

    def as_dict(self) -> Dict[str, object]:
        """Return the plan as plain data (snapshot wire format)."""
        return {
            "policy": self.policy,
            "worker_count": self.worker_count,
            "owner_of": {str(f): w for f, w in sorted(self.owner_of.items())},
            "replicas": {
                str(f): list(extra) for f, extra in sorted(self.replicas.items()) if extra
            },
        }

    @classmethod
    def from_dict(cls, state: Mapping[str, object]) -> "PlacementPlan":
        """Rebuild a plan from :meth:`as_dict` output."""
        owner_of = {int(f): int(w) for f, w in dict(state["owner_of"]).items()}  # type: ignore[arg-type]
        replicas = {
            int(f): tuple(int(w) for w in extra)
            for f, extra in dict(state.get("replicas", {})).items()  # type: ignore[arg-type]
        }
        return cls(
            owner_of=owner_of,
            worker_count=int(state["worker_count"]),  # type: ignore[arg-type]
            replicas=replicas,
            policy=str(state.get("policy", POLICY_ROUND_ROBIN)),
        )

    def copy(self) -> "PlacementPlan":
        """Return an independent copy."""
        return PlacementPlan(
            owner_of=dict(self.owner_of),
            worker_count=self.worker_count,
            replicas={f: tuple(extra) for f, extra in self.replicas.items()},
            policy=self.policy,
        )

    def __repr__(self) -> str:
        owned = {w: len(self.owned_by(w)) for w in range(self.worker_count)}
        return (
            f"PlacementPlan(policy={self.policy!r}, workers={self.worker_count}, "
            f"fragments={len(self.owner_of)}, owned_per_worker={owned})"
        )


# ------------------------------------------------------------------- policies


def _enforce_capacity(
    owner_of: Dict[int, int], costs: Mapping[int, float], worker_count: int
) -> Dict[int, int]:
    """Cap owned fragments per worker at ``ceil(fragments / workers)``.

    LPT balances summed *cost*; with one expensive fragment it will happily
    park every cheap fragment on one worker, which breaks the memory bound
    the whole placement exercise exists for (per-worker resident state
    ``<= ceil(F / W) + replication``).  This pass spills the cheapest
    fragments of over-capacity workers onto the least-loaded workers with
    spare capacity — cost balance degrades as little as possible while the
    count bound becomes unconditional.
    """
    capacity = math.ceil(len(owner_of) / worker_count)
    owned: Dict[int, List[int]] = {w: [] for w in range(worker_count)}
    for fragment_id, worker in owner_of.items():
        owned[worker].append(fragment_id)
    loads = [sum(float(costs.get(f, 0.0)) for f in owned[w]) for w in range(worker_count)]
    for worker in range(worker_count):
        while len(owned[worker]) > capacity:
            fragment_id = min(owned[worker], key=lambda f: (costs.get(f, 0.0), f))
            target = min(
                (w for w in range(worker_count) if len(owned[w]) < capacity),
                key=lambda w: (loads[w], w),
            )
            owned[worker].remove(fragment_id)
            owned[target].append(fragment_id)
            cost = float(costs.get(fragment_id, 0.0))
            loads[worker] -= cost
            loads[target] += cost
            owner_of[fragment_id] = target
    return owner_of


def round_robin_plan(fragment_ids: Iterable[int], worker_count: int) -> PlacementPlan:
    """Place fragment ``i`` (in sorted order) on worker ``i mod worker_count``."""
    ordered = sorted(fragment_ids)
    if not ordered:
        raise PlacementError("cannot place an empty fragment set")
    return PlacementPlan(
        owner_of={f: index % worker_count for index, f in enumerate(ordered)},
        worker_count=worker_count,
        policy=POLICY_ROUND_ROBIN,
    )


def cost_balanced_plan(
    fragment_costs: Mapping[int, float], worker_count: int
) -> PlacementPlan:
    """Balance summed fragment cost per worker (LPT, via the parallel scheduler)."""
    if not fragment_costs:
        raise PlacementError("cannot place an empty fragment set")
    assignment = assign_fragments(fragment_costs, worker_count, policy=POLICY_LPT)
    return PlacementPlan(
        owner_of=_enforce_capacity(
            dict(assignment.processor_of), fragment_costs, worker_count
        ),
        worker_count=worker_count,
        policy=POLICY_COST_BALANCED,
    )


def workload_aware_plan(
    dispatch_counts: Mapping[int, float],
    worker_count: int,
    *,
    fragment_ids: Optional[Iterable[int]] = None,
) -> PlacementPlan:
    """Balance *observed* dispatch load and replicate the hottest fragments.

    Args:
        dispatch_counts: per-fragment subquery dispatch counts (a
            :class:`~repro.service.server.QueryService`'s
            ``stats.counts(stats.per_site_load)``).
        worker_count: worker slots to place onto.
        fragment_ids: the full fragment set; fragments with no recorded
            dispatches are placed at cost zero (LPT puts them on the least
            loaded workers).  Defaults to the keys of ``dispatch_counts``.

    A fragment whose dispatch share exceeds :data:`HOT_SHARE` (0.5) of a
    fair per-worker share earns :data:`HOT_EXTRA_REPLICAS` (1) extra replica
    on the coolest other worker.
    """
    fragments = set(fragment_ids) if fragment_ids is not None else set(dispatch_counts)
    if not fragments:
        raise PlacementError("cannot place an empty fragment set")
    costs = {f: float(dispatch_counts.get(f, 0.0)) for f in fragments}
    assignment = assign_fragments(costs, worker_count, policy=POLICY_LPT)
    plan = PlacementPlan(
        owner_of=_enforce_capacity(dict(assignment.processor_of), costs, worker_count),
        worker_count=worker_count,
        policy=POLICY_WORKLOAD_AWARE,
    )
    total = sum(costs.values())
    if total <= 0.0 or worker_count < 2:
        return plan
    hot_threshold = HOT_SHARE * total / worker_count
    loads = plan.owner_loads(costs)
    for fragment_id in sorted(fragments, key=lambda f: (-costs[f], f)):
        if costs[fragment_id] <= hot_threshold:
            break  # sorted hottest-first: nothing colder can qualify
        coolest = sorted(
            (w for w in range(worker_count) if w != plan.owner(fragment_id)),
            key=lambda w: (loads[w], w),
        )
        for worker in coolest[:HOT_EXTRA_REPLICAS]:
            plan.add_replica(fragment_id, worker)
    return plan


def plan_placement(
    policy: str,
    worker_count: int,
    *,
    fragment_ids: Optional[Sequence[int]] = None,
    fragment_costs: Optional[Mapping[int, float]] = None,
    dispatch_counts: Optional[Mapping[int, float]] = None,
) -> PlacementPlan:
    """Compute a placement plan with the named policy.

    ``round_robin`` needs only ``fragment_ids``; ``cost_balanced`` needs
    ``fragment_costs``; ``workload_aware`` uses ``dispatch_counts`` when any
    were recorded and falls back to cost balancing (then round-robin) for a
    cold service with no observed workload yet.

    Raises:
        PlacementError: on an unknown policy or missing inputs.
    """
    if policy not in PLACEMENT_POLICIES:
        raise PlacementError(
            f"unknown placement policy {policy!r} (expected one of {PLACEMENT_POLICIES})"
        )
    known = set(fragment_ids or [])
    known.update(fragment_costs or {})
    known.update(dispatch_counts or {})
    if not known:
        raise PlacementError(f"policy {policy!r} was given no fragments to place")
    if policy == POLICY_WORKLOAD_AWARE and dispatch_counts and sum(dispatch_counts.values()):
        return workload_aware_plan(dispatch_counts, worker_count, fragment_ids=known)
    if policy in (POLICY_COST_BALANCED, POLICY_WORKLOAD_AWARE) and fragment_costs:
        costs = {f: float(fragment_costs.get(f, 0.0)) for f in known}
        plan = cost_balanced_plan(costs, worker_count)
        plan.policy = policy
        return plan
    plan = round_robin_plan(known, worker_count)
    plan.policy = policy
    return plan
