"""Admission control: bounded concurrency, per-client fairness, backpressure.

A serving tier in front of a shared worker pool needs three refusals it can
make *before* paying for any evaluation work:

* **slot limits** — at most ``max_concurrent`` requests evaluate at once;
  excess requests wait in a bounded queue and anything beyond that is
  rejected with a retry-after hint (backpressure, not unbounded buffering);
* **per-client token accounting** — every client draws from its own token
  bucket (``client_burst`` capacity, ``client_rate`` tokens/second refill);
  heavy verbs cost more tokens than light ones, so one client hammering
  whole-graph closures throttles *itself* long before it can monopolise the
  placed worker pool, while a million light clients stay unaffected;
* **deadlines** — a queued request that cannot start before its deadline is
  rejected rather than served late.

The controller is deliberately synchronous and clock-injected: the asyncio
server drives it, but every decision is a pure state transition that unit
tests exercise with a fake clock.  All accounting is exported live through
the shared metrics registry (``repro_serving_active_requests``,
``repro_serving_queue_depth``, ``repro_serving_rejections_total``,
``repro_serving_client_requests_total``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..observability import MetricsRegistry

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionDecision",
    "TokenBucket",
]

# Tokens one point query / batch / update costs, and one closure/resume call.
LIGHT_COST = 1.0
HEAVY_COST = 5.0
# Seconds a request may spend queued + running before the server suspends or
# rejects it (requests may lower it with a ``timeout`` option).
DEFAULT_DEADLINE_SECONDS = 30.0
# Retry hint (seconds) of a slot-pressure rejection; a rate-limit rejection
# hints the bucket's actual refill time instead.
RETRY_AFTER_SECONDS = 0.25


@dataclass(frozen=True)
class AdmissionConfig:
    """Knobs of the admission controller.

    Attributes:
        max_concurrent: requests evaluating at once (quantum slots).
        max_queue: requests allowed to wait for a slot before rejection.
        client_rate: token-bucket refill per client, tokens/second.
        client_burst: token-bucket capacity per client.

    Request costs (:data:`LIGHT_COST`, :data:`HEAVY_COST`), the default
    deadline and the slot-pressure retry hint are module constants.
    """

    max_concurrent: int = 8
    max_queue: int = 64
    client_rate: float = 50.0
    client_burst: float = 25.0

    def __post_init__(self) -> None:
        if self.max_concurrent <= 0:
            raise ValueError(f"max_concurrent must be positive, got {self.max_concurrent}")
        if self.max_queue < 0:
            raise ValueError(f"max_queue cannot be negative, got {self.max_queue}")
        if self.client_rate <= 0 or self.client_burst <= 0:
            raise ValueError("client_rate and client_burst must be positive")


class TokenBucket:
    """One client's token account: ``capacity`` burst, ``rate``/second refill."""

    __slots__ = ("capacity", "rate", "tokens", "stamp")

    def __init__(self, capacity: float, rate: float, now: float) -> None:
        self.capacity = capacity
        self.rate = rate
        self.tokens = capacity
        self.stamp = now

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self.stamp)
        self.tokens = min(self.capacity, self.tokens + elapsed * self.rate)
        self.stamp = now

    def take(self, cost: float, now: float) -> bool:
        """Spend ``cost`` tokens if available; returns whether it could."""
        self._refill(now)
        if self.tokens >= cost:
            self.tokens -= cost
            return True
        return False

    def retry_after(self, cost: float, now: float) -> float:
        """Seconds until ``cost`` tokens will have accumulated."""
        self._refill(now)
        missing = max(0.0, cost - self.tokens)
        return missing / self.rate


@dataclass
class AdmissionDecision:
    """One admission verdict.

    ``status`` is ``"run"`` (a slot was taken — the caller must eventually
    :meth:`AdmissionController.finish`), ``"queue"`` (a queue spot was taken
    — the caller must later :meth:`~AdmissionController.start_queued` or
    :meth:`~AdmissionController.abandon_queued`), or ``"reject"`` with a
    ``reason`` (``"rate_limited"`` / ``"queue_full"``) and a ``retry_after``
    hint in seconds.
    """

    status: str
    reason: Optional[str] = None
    retry_after: float = 0.0


@dataclass
class _ClientAccount:
    bucket: TokenBucket
    admitted: int = 0
    rejected: int = 0
    active: int = 0
    last_seen: float = field(default=0.0)


class AdmissionController:
    """Slot, queue, and per-client token accounting for the serving tier.

    Args:
        config: the :class:`AdmissionConfig` knobs.
        registry: the shared metrics registry accounting is exported to
            (a private one is created when not given).
        clock: monotonic-seconds source (injectable for tests).
    """

    def __init__(
        self,
        config: Optional[AdmissionConfig] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or AdmissionConfig()
        self._clock = clock
        self._clients: Dict[str, _ClientAccount] = {}
        self.active = 0
        self.queued = 0
        registry = registry if registry is not None else MetricsRegistry()
        self._active_gauge = registry.gauge(
            "repro_serving_active_requests",
            "Requests currently holding an evaluation slot.",
        )
        self._queue_gauge = registry.gauge(
            "repro_serving_queue_depth",
            "Requests currently waiting for an evaluation slot (live view).",
        )
        self._rejections = registry.counter(
            "repro_serving_rejections_total",
            "Requests refused by admission control, by reason.",
            labelnames=("reason",),
        )
        self._client_requests = registry.counter(
            "repro_serving_client_requests_total",
            "Requests dispatched per client identity (admitted only).",
            labelnames=("client",),
        )
        self._sync_gauges()

    # ------------------------------------------------------------ transitions

    def admit(self, client: str, *, cost: Optional[float] = None) -> AdmissionDecision:
        """Decide one request: take a slot, take a queue spot, or reject."""
        now = self._clock()
        cost = LIGHT_COST if cost is None else cost
        account = self._account(client, now)
        account.last_seen = now
        if not account.bucket.take(cost, now):
            account.rejected += 1
            self._rejections.inc(reason="rate_limited")
            return AdmissionDecision(
                status="reject",
                reason="rate_limited",
                retry_after=account.bucket.retry_after(cost, now),
            )
        if self.active < self.config.max_concurrent:
            self.active += 1
            account.active += 1
            account.admitted += 1
            self._client_requests.inc(client=client)
            self._sync_gauges()
            return AdmissionDecision(status="run")
        if self.queued < self.config.max_queue:
            self.queued += 1
            self._sync_gauges()
            return AdmissionDecision(status="queue")
        account.rejected += 1
        self._rejections.inc(reason="queue_full")
        return AdmissionDecision(
            status="reject", reason="queue_full", retry_after=RETRY_AFTER_SECONDS
        )

    def start_queued(self, client: str) -> None:
        """Promote a queued request into a freed slot."""
        if self.queued <= 0:
            raise RuntimeError("start_queued without a queued request")
        if self.active >= self.config.max_concurrent:
            raise RuntimeError("start_queued without a free slot")
        self.queued -= 1
        self.active += 1
        account = self._account(client, self._clock())
        account.active += 1
        account.admitted += 1
        self._client_requests.inc(client=client)
        self._sync_gauges()

    def abandon_queued(self, client: str, *, reason: str = "deadline") -> None:
        """Drop a queued request that will never start (deadline, disconnect)."""
        if self.queued <= 0:
            raise RuntimeError("abandon_queued without a queued request")
        self.queued -= 1
        self._rejections.inc(reason=reason)
        account = self._clients.get(client)
        if account is not None:
            account.rejected += 1
        self._sync_gauges()

    def finish(self, client: str) -> None:
        """Release the slot a running request held."""
        if self.active <= 0:
            raise RuntimeError("finish without an active request")
        self.active -= 1
        account = self._clients.get(client)
        if account is not None and account.active > 0:
            account.active -= 1
        self._sync_gauges()

    # -------------------------------------------------------------- accessors

    @property
    def free_slots(self) -> int:
        """Evaluation slots currently unoccupied."""
        return self.config.max_concurrent - self.active

    def client_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-client accounting (admitted / rejected / active / tokens left)."""
        now = self._clock()
        stats: Dict[str, Dict[str, float]] = {}
        for client, account in sorted(self._clients.items()):
            account.bucket._refill(now)
            stats[client] = {
                "admitted": account.admitted,
                "rejected": account.rejected,
                "active": account.active,
                "tokens": round(account.bucket.tokens, 4),
            }
        return stats

    # -------------------------------------------------------------- internals

    def _account(self, client: str, now: float) -> _ClientAccount:
        account = self._clients.get(client)
        if account is None:
            account = _ClientAccount(
                bucket=TokenBucket(self.config.client_burst, self.config.client_rate, now)
            )
            self._clients[client] = account
        return account

    def _sync_gauges(self) -> None:
        self._active_gauge.set(float(self.active))
        self._queue_gauge.set(float(self.queued))
