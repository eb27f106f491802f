"""The query-serving subsystem: prepare a fragmentation once, serve it many times.

The paper's economics — pay for fragmentation and complementary information
up front, then answer transitive-closure queries with communication-free
local work — only pay off when the prepared catalog outlives a single query.
This package provides the serving layer that makes that true in practice:

* :mod:`~repro.service.snapshot` — persist/reload prepared catalogs,
* :mod:`~repro.service.pool` — resident worker processes pinning the sites
  shared-nothing (:class:`PlacedWorkerPool`, executing a
  :class:`~repro.placement.plan.PlacementPlan`),
* :mod:`~repro.service.cache` — a bounded LRU cache of query answers,
* :mod:`~repro.service.batch` — shared-subquery batch planning,
* :mod:`~repro.service.server` — the :class:`QueryService` façade,
* :mod:`~repro.service.stats` — hit-rate / latency / load / owner-skew
  statistics, backed by the :mod:`repro.observability` metrics registry.
"""

from .batch import BatchPlan, BatchPlanner
from .cache import CachedAnswer, CacheKey, LRUCache
from .pool import (
    PinUpdate,
    PlacedWorkerPool,
    WorkerPoolError,
    result_from_payload,
    semiring_from_name,
)
from .server import QueryService, ServiceAnswer
from .snapshot import (
    LoadedSnapshot,
    SnapshotError,
    SnapshotManifest,
    is_snapshot_directory,
    load_snapshot,
    save_snapshot,
)
from .stats import ServiceStatistics

__all__ = [
    "BatchPlan",
    "BatchPlanner",
    "CacheKey",
    "CachedAnswer",
    "LRUCache",
    "LoadedSnapshot",
    "PinUpdate",
    "PlacedWorkerPool",
    "QueryService",
    "WorkerPoolError",
    "ServiceAnswer",
    "ServiceStatistics",
    "SnapshotError",
    "SnapshotManifest",
    "is_snapshot_directory",
    "load_snapshot",
    "result_from_payload",
    "save_snapshot",
    "semiring_from_name",
]
