"""Bounded LRU cache for query results, with fragment-scoped invalidation.

The disconnection set approach pays its preparation cost once and answers
queries cheaply afterwards; a result cache takes the next step and makes the
*second* identical query free.  Entries are addressed by a typed
:class:`CacheKey` and carry, in their :class:`CachedAnswer`, the exact
``(epoch, fragment -> version)`` slice of the catalog's
:class:`~repro.incremental.versions.VersionVector` they were computed under.
An update therefore invalidates *scoped*: the service evicts only the entries
whose recorded fragments moved (:meth:`LRUCache.evict_where`), and answers
touching untouched fragments keep serving from cache.  Whole-catalog events
(refragmentation, a full-rebuild fallback) advance the epoch, which ages
every entry at once.

The implementation is a plain ``OrderedDict`` LRU — no external dependencies,
O(1) get/put — counting hits, misses, evictions and invalidations in a
metrics registry.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Optional, Tuple

from ..observability import MetricsRegistry

Key = Tuple[Hashable, ...]

# Metric names the cache mirrors its counters into (labeled by event).
CACHE_EVENTS_COUNTER = "repro_result_cache_events_total"
CACHE_SIZE_GAUGE = "repro_result_cache_entries"


@dataclass(frozen=True)
class CacheKey:
    """The typed identity of one cached query answer.

    Replaces the old positional tuple (whose version lived at ``key[3]`` and
    could only be poked by index): the key names *what* was asked, while the
    staleness bookkeeping lives in the stored :class:`CachedAnswer`, where
    scoped invalidation can address it by fragment.

    Attributes:
        source, target: the queried endpoints.
        semiring: the path problem's name.
        base_version: the snapshot lineage the serving catalog descends from
            (two services restored from the same snapshot share entries; a
            different lineage can never collide).
    """

    source: Hashable
    target: Hashable
    semiring: str
    base_version: str


@dataclass(frozen=True)
class CachedAnswer:
    """One cached answer plus the catalog slice it depends on.

    Attributes:
        value: the answer's path value (``None`` when no path exists).
        chain: the fragment chain that produced it.
        epoch: the version-vector epoch the answer was computed under.
        fragment_versions: sorted ``(fragment, version)`` pairs for every
            fragment the answer's plan involved; the answer is valid exactly
            while all of them (and the epoch) are current.
    """

    value: Optional[object]
    chain: Optional[Tuple[int, ...]]
    epoch: int = 0
    fragment_versions: Tuple[Tuple[int, int], ...] = ()

    def depends_on(self, fragment_ids: Iterable[int]) -> bool:
        """Return ``True`` when any of the given fragments backs this answer."""
        dirty = set(fragment_ids)
        return any(fragment_id in dirty for fragment_id, _ in self.fragment_versions)


class LRUCache:
    """A bounded least-recently-used mapping with observability counters.

    Args:
        capacity: maximum number of entries kept; the least recently used
            entry is evicted when a put exceeds it.  Must be positive.
        registry: the metrics registry that counts the cache's events
            (``repro_result_cache_events_total{event=...}``) and holds a
            resident entry-count gauge.
    """

    def __init__(self, capacity: int = 1024, *, registry: MetricsRegistry) -> None:
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._entries: "OrderedDict[Key, object]" = OrderedDict()
        self._events = registry.counter(
            CACHE_EVENTS_COUNTER,
            "Result-cache events by kind (hit, miss, eviction, invalidation).",
            labelnames=("event",),
        )
        self._size_gauge = registry.gauge(CACHE_SIZE_GAUGE, "Entries resident in the result cache.")

    def _observe(self, event: str, amount: int = 1) -> None:
        if amount:
            self._events.inc(amount, event=event)
        self._size_gauge.set(len(self._entries))

    # -------------------------------------------------------------- protocol

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Key) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[Key]:
        return iter(self._entries)

    # ------------------------------------------------------------ operations

    @property
    def capacity(self) -> int:
        """The maximum number of entries retained."""
        return self._capacity

    def get(self, key: Key) -> Optional[object]:
        """Return the cached value for ``key`` (refreshing it) or ``None``."""
        if key not in self._entries:
            self._observe("miss")
            return None
        self._observe("hit")
        self._entries.move_to_end(key)
        return self._entries[key]

    def put(self, key: Key, value: object) -> None:
        """Store ``value`` under ``key``, evicting the LRU entry when full."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        if len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self._observe("eviction")
        else:
            self._observe("stored", 0)

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped."""
        dropped = len(self._entries)
        self._entries.clear()
        self._observe("invalidation", dropped)
        return dropped

    def discard(self, key: Key) -> bool:
        """Drop one entry if present; returns whether it existed.

        Used when a get-side validation discovers a stale answer (its
        recorded fragment versions no longer match the catalog's vector).
        """
        if key in self._entries:
            del self._entries[key]
            self._observe("invalidation")
            return True
        return False

    def evict_where(self, is_stale: Callable[[Key, object], bool]) -> int:
        """Drop every entry whose ``(key, value)`` satisfies ``is_stale``.

        The scoped-invalidation hook: the service passes a predicate testing
        whether a :class:`CachedAnswer` depends on any dirty fragment, so an
        update evicts only the answers it could actually have changed.
        """
        stale = [key for key, value in self._entries.items() if is_stale(key, value)]
        for key in stale:
            del self._entries[key]
        self._observe("invalidation", len(stale))
        return len(stale)
