"""Tests for the bounded LRU result cache."""

import pytest

from repro.service import LRUCache


class TestLRUCache:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_get_put_roundtrip(self):
        cache = LRUCache(4)
        cache.put(("a", "b"), 1.5)
        assert cache.get(("a", "b")) == 1.5
        assert cache.hits == 1
        assert cache.misses == 0

    def test_miss_is_counted(self):
        cache = LRUCache(4)
        assert cache.get(("absent",)) is None
        assert cache.misses == 1

    def test_eviction_drops_least_recently_used(self):
        cache = LRUCache(2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        cache.get(("a",))  # refresh "a": "b" becomes the LRU entry
        cache.put(("c",), 3)
        assert cache.evictions == 1
        assert ("b",) not in cache
        assert cache.get(("a",)) == 1
        assert cache.get(("c",)) == 3

    def test_capacity_is_respected(self):
        cache = LRUCache(3)
        for index in range(10):
            cache.put((index,), index)
        assert len(cache) == 3
        assert cache.evictions == 7
        assert list(cache) == [(7,), (8,), (9,)]

    def test_put_refreshes_existing_key(self):
        cache = LRUCache(2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        cache.put(("a",), 10)  # update, not insert: nothing is evicted
        assert cache.evictions == 0
        assert cache.get(("a",)) == 10

    def test_clear_counts_invalidations(self):
        cache = LRUCache(4)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.invalidations == 2
