"""Tests for the bounded LRU result cache."""

import pytest

from repro.observability import MetricsRegistry
from repro.service import LRUCache
from repro.service.cache import CACHE_EVENTS_COUNTER, CACHE_SIZE_GAUGE


def cache_events(registry: MetricsRegistry, event: str) -> int:
    """How many ``event``s (hit, miss, eviction, invalidation) ``registry`` counted."""
    return int(registry.get(CACHE_EVENTS_COUNTER).value(event=event))


class TestLRUCache:
    def test_registry_is_required(self):
        with pytest.raises(TypeError, match="registry"):
            LRUCache(4)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(0, registry=MetricsRegistry())

    def test_get_put_roundtrip(self):
        registry = MetricsRegistry()
        cache = LRUCache(4, registry=registry)
        cache.put(("a", "b"), 1.5)
        assert cache.get(("a", "b")) == 1.5
        assert cache_events(registry, "hit") == 1
        assert cache_events(registry, "miss") == 0

    def test_miss_is_counted(self):
        registry = MetricsRegistry()
        cache = LRUCache(4, registry=registry)
        assert cache.get(("absent",)) is None
        assert cache_events(registry, "miss") == 1

    def test_eviction_drops_least_recently_used(self):
        registry = MetricsRegistry()
        cache = LRUCache(2, registry=registry)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        cache.get(("a",))  # refresh "a": "b" becomes the LRU entry
        cache.put(("c",), 3)
        assert cache_events(registry, "eviction") == 1
        assert ("b",) not in cache
        assert cache.get(("a",)) == 1
        assert cache.get(("c",)) == 3

    def test_capacity_is_respected(self):
        registry = MetricsRegistry()
        cache = LRUCache(3, registry=registry)
        for index in range(10):
            cache.put((index,), index)
        assert len(cache) == 3
        assert cache_events(registry, "eviction") == 7
        assert list(cache) == [(7,), (8,), (9,)]

    def test_put_refreshes_existing_key(self):
        registry = MetricsRegistry()
        cache = LRUCache(2, registry=registry)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        cache.put(("a",), 10)  # update, not insert: nothing is evicted
        assert cache_events(registry, "eviction") == 0
        assert cache.get(("a",)) == 10

    def test_the_entry_gauge_is_set_only_when_the_count_moves(self):
        registry = MetricsRegistry()
        cache = LRUCache(2, registry=registry)
        gauge = registry.get(CACHE_SIZE_GAUGE)
        sets = []
        real = gauge.set
        gauge.set = lambda value: sets.append(value) or real(value)
        cache.get(("a",))  # the first call reports the empty cache
        cache.get(("a",))
        cache.put(("a",), 1)
        cache.get(("a",))
        cache.put(("a",), 2)  # same key: the count stays
        cache.put(("b",), 3)
        cache.put(("c",), 4)  # an eviction: the count stays at capacity
        cache.discard(("b",))
        cache.clear()
        assert sets == [0, 1, 2, 1, 0]
        assert gauge.value() == len(cache) == 0

    def test_clear_counts_invalidations(self):
        registry = MetricsRegistry()
        cache = LRUCache(4, registry=registry)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache_events(registry, "invalidation") == 2
