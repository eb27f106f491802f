"""Live refragmentation: redraw fragment boundaries without tearing anything down.

A redraw is one more kind of layout change the database absorbs in place,
through the same path as a write (:mod:`repro.incremental.maintainer`).  What
is particular to a redraw is deciding *which slot* each proposed fragment
lands in: :func:`align_layout` matches the proposed fragments to the deployed
ones by edge overlap, so a fragment that survives the redraw keeps its id —
and with it its site object, compact state, cache entries and owner worker.

``FragmentedDatabase.refragment`` aligns the layout here, then hands it to
:meth:`~repro.incremental.maintainer.IncrementalMaintainer.redraw`: a pair
whose border-node membership is unchanged keeps its complementary values
verbatim (the graph did not change), pairs whose membership moved are
recomputed by the write path's membership repair, only the changed fragments'
sites are rebuilt, and the returned
:class:`~repro.incremental.maintainer.RefragmentResult` drives scoped cache
eviction, per-fragment version bumps, placement-plan remapping and owner-only
re-pins upstream.  Outside the envelope (custom semiring, no live engine) the
database performs the classic full rebuild.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Set, Tuple

Node = Hashable
Edge = Tuple[Node, Node]


def align_layout(
    old_layout: Sequence[Set[Edge]], proposed: Sequence[Set[Edge]]
) -> List[Set[Edge]]:
    """Arrange ``proposed`` fragments so survivors keep their old ids.

    Fragment ids are positional (a :class:`~repro.fragmentation.Fragmentation`
    numbers fragments by list index), so *which slot* a proposed fragment
    lands in decides whether the deployed site, cache entries and owner
    worker survive.  This greedily assigns each proposed fragment to the old
    id it shares the most edges with; proposed fragments matching nothing
    fill the remaining slots in size order.  The result has exactly
    ``len(proposed)`` fragments — old ids beyond that range are dropped by
    the caller.
    """
    slot_count = len(proposed)
    overlaps: List[Tuple[int, int, int]] = []
    for old_id, old_edges in enumerate(old_layout):
        if old_id >= slot_count:
            continue
        for new_index, new_edges in enumerate(proposed):
            shared = len(old_edges & new_edges)
            if shared:
                overlaps.append((shared, old_id, new_index))
    overlaps.sort(key=lambda item: (-item[0], item[1], item[2]))
    slot_of: Dict[int, int] = {}
    taken_slots: Set[int] = set()
    for _, old_id, new_index in overlaps:
        if new_index in slot_of or old_id in taken_slots:
            continue
        slot_of[new_index] = old_id
        taken_slots.add(old_id)
    free_slots = [slot for slot in range(slot_count) if slot not in taken_slots]
    leftovers = sorted(
        (index for index in range(len(proposed)) if index not in slot_of),
        key=lambda index: (-len(proposed[index]), index),
    )
    for slot, new_index in zip(free_slots, leftovers):
        slot_of[new_index] = slot
    aligned: List[Set[Edge]] = [set() for _ in range(slot_count)]
    for new_index, slot in slot_of.items():
        aligned[slot] = set(proposed[new_index])
    return aligned
