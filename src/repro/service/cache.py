"""Bounded LRU cache for query results, with fragment-scoped invalidation.

The disconnection set approach pays its preparation cost once and answers
queries cheaply afterwards; a result cache takes the next step and makes the
*second* identical query free.  Entries are addressed by a typed
:class:`CacheKey` and carry, in their :class:`CachedAnswer`, the exact
``(epoch, fragment -> version)`` slice of the catalog's
:class:`~repro.incremental.versions.VersionVector` they were computed under,
and the endpoint values the answer read.  An update therefore invalidates
*scoped*: only the entries whose recorded fragments moved are candidates
(:meth:`LRUCache.evict_where`), and answers touching untouched fragments
keep serving from cache.  Of the candidates the service evicts only those
an input changed for: an endpoint value (compared with a re-read of the
task, :meth:`CachedAnswer.inputs_changed`) or the border-graph arcs of one
of their fragments; the others are re-stamped with the new versions in
place.  Whole-catalog events (a full-rebuild fallback) advance the epoch,
which ages every entry at once.

The implementation is a plain ``OrderedDict`` LRU — no external dependencies,
O(1) get/put — counting hits, misses, evictions and invalidations in a
metrics registry.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, FrozenSet, Hashable, Iterable, Iterator, Mapping, Optional, Tuple

from ..disconnection.assembly import TaskKey
from ..observability import MetricsRegistry

Key = Tuple[Hashable, ...]

# Metric names the cache mirrors its counters into (labeled by event).
CACHE_EVENTS_COUNTER = "repro_result_cache_events_total"
CACHE_SIZE_GAUGE = "repro_result_cache_entries"


def fragment_mask(fragment_ids: Iterable[int]) -> int:
    """The bit set of ``fragment_ids``: bit ``f`` for fragment ``f``."""
    mask = 0
    for fragment_id in fragment_ids:
        mask |= 1 << fragment_id
    return mask


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
    # Hashed once: a write walks every key of the cache, and the ordered
    # mapping hashes each key it walks.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_hash", hash((self.source, self.target, self.semiring, self.base_version))
        )

    def __hash__(self) -> int:
        return self._hash


# One endpoint input of a cached answer: ``(fragment, entry nodes, exit
# nodes, values)`` of a local task it read.  A side that is just the answer's
# own source (entry) or target (exit) is ``None``, rebuilt from the key when
# the task is re-read, so an entry holds no node set of its own.  The values
# are a tuple over the task's (entry, exit) node pairs, in the order its node
# sets iterate (``None`` where there is no path).
Input = Tuple[int, Optional[FrozenSet[Hashable]], Optional[FrozenSet[Hashable]], Tuple[object, ...]]
Values = Mapping[Tuple[Hashable, Hashable], object]


def _row(task: TaskKey, values: Values) -> Tuple[object, ...]:
    get = values.get
    return tuple([get((entry, exit_)) for entry in task[1] for exit_ in task[2]])


def make_input(task: TaskKey, values: Values, source: Hashable, target: Hashable) -> Input:
    """The :data:`Input` an answer from ``source`` to ``target`` keeps of a task it read."""
    fragment, entry_nodes, exit_nodes = task
    return (
        fragment,
        None if len(entry_nodes) == 1 and source in entry_nodes else entry_nodes,
        None if len(exit_nodes) == 1 and target in exit_nodes else exit_nodes,
        _row(task, values),
    )


@dataclass(slots=True)
class CachedAnswer:
    """One cached answer plus the catalog slice and the inputs it depends on.

    Attributes:
        value: the answer's path value (``None`` when no path exists).
        chain: the fragment chain that produced it.
        epoch: the version-vector epoch the answer was computed under.
        fragment_versions: sorted ``(fragment, version)`` pairs for every
            fragment the answer depends on; the answer is valid while all
            of them (and the epoch) are current, and a write that moved one
            of them without changing what the answer read re-stamps them.
        inputs: the endpoint tasks the answer read, with their values
            (:func:`make_input`); ``None`` when it recorded none, which
            leaves only eviction when one of its fragments moves.
        fragment_mask: :func:`fragment_mask` of the fragments in
            ``fragment_versions``, which a write tests against its dirty
            fragments' for every entry.
    """

    value: Optional[object]
    chain: Optional[Tuple[int, ...]]
    epoch: int = 0
    fragment_versions: Tuple[Tuple[int, int], ...] = ()
    inputs: Optional[Tuple[Input, ...]] = None
    fragment_mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.fragment_mask = fragment_mask(fragment for fragment, _ in self.fragment_versions)

    def tasks(
        self, source: Hashable, target: Hashable
    ) -> Iterator[Tuple[TaskKey, Tuple[object, ...]]]:
        """Each input as ``(task, values)``, for the answer from ``source`` to ``target``."""
        for fragment, entry_nodes, exit_nodes, row in self.inputs or ():
            task = (
                fragment,
                entry_nodes or frozenset((source,)),
                exit_nodes or frozenset((target,)),
            )
            yield task, row

    def inputs_changed(
        self, fresh: Mapping[TaskKey, Values], source: Hashable, target: Hashable
    ) -> bool:
        """Whether a re-read of an input task (``fresh``: task -> values) differs from it."""
        for task, row in self.tasks(source, target):
            values = fresh.get(task)
            if values is not None and _row(task, values) != row:
                return True
        return False


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
        self._size_reported = -1  # the entry count the gauge last got; none yet

    def _observe(self, event: str, amount: int = 1) -> None:
        if amount:
            self._events.inc(amount, event=event)
        size = len(self._entries)
        if size != self._size_reported:
            self._size_gauge.set(size)
            self._size_reported = size

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

    def items(self) -> Iterator[Tuple[Key, object]]:
        """Every ``(key, value)``, least recently used first, without refreshing any."""
        return iter(self._entries.items())

    def evict_where(self, is_stale: Callable[[Key, object], bool]) -> int:
        """Drop every entry whose ``(key, value)`` satisfies ``is_stale``.

        The scoped-invalidation hook: the service passes a predicate naming
        the :class:`CachedAnswer` objects an update changed, so it evicts
        only those.  The order of the entries it keeps does not move.
        """
        stale = [key for key, value in self._entries.items() if is_stale(key, value)]
        for key in stale:
            del self._entries[key]
        self._observe("invalidation", len(stale))
        return len(stale)
