"""Per-fragment version vectors: the unit of staleness under updates.

The serving stack used to carry one scalar catalog version, so any update —
however local — aged every cached answer and every pinned worker payload at
once.  The paper's locality argument (Sec. 2.1: a change touches one fragment
and the disconnection sets it borders) calls for versioning at fragment
granularity: a :class:`VersionVector` keeps one monotonically increasing
counter per fragment plus an *epoch* that advances only on whole-catalog
events (refragmentation, a fall-back full rebuild).  Consumers record the
``(epoch, fragment -> version)`` slice they depend on and stay valid exactly
as long as none of those entries moved.

The vector serialises to plain dictionaries so snapshots can persist it and a
reloaded service resumes mid-stream instead of restarting from version zero.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple


class VersionVector:
    """A per-fragment version counter with a whole-catalog epoch.

    Args:
        versions: initial per-fragment versions (defaults to empty; unknown
            fragments implicitly sit at version 0).
        epoch: initial epoch (advanced by whole-catalog invalidations).
    """

    __slots__ = ("_versions", "_epoch")

    def __init__(self, versions: Mapping[int, int] | None = None, *, epoch: int = 0) -> None:
        self._versions: Dict[int, int] = dict(versions or {})
        self._epoch = epoch

    # ------------------------------------------------------------- accessors

    @property
    def epoch(self) -> int:
        """The whole-catalog epoch; a change invalidates every fragment at once."""
        return self._epoch

    def version_of(self, fragment_id: int) -> int:
        """Return the current version of one fragment (0 when never bumped)."""
        return self._versions.get(fragment_id, 0)

    def snapshot_of(self, fragment_ids: Iterable[int]) -> Tuple[Tuple[int, int], ...]:
        """Return a sorted, hashable ``(fragment, version)`` slice of the vector.

        This is what a cache entry records at put time: the exact versions its
        answer depends on.
        """
        return tuple(sorted((fid, self.version_of(fid)) for fid in set(fragment_ids)))

    def tag(self) -> str:
        """Return a compact string identifying the vector's exact state.

        Changes whenever any fragment version or the epoch changes — the
        service folds it into its human-visible catalog version.
        """
        parts = ",".join(f"{fid}:{version}" for fid, version in sorted(self._versions.items()))
        return f"e{self._epoch}({parts})"

    # ------------------------------------------------------------- mutation

    def bump(self, fragment_id: int) -> int:
        """Advance one fragment's version; returns the new version."""
        version = self._versions.get(fragment_id, 0) + 1
        self._versions[fragment_id] = version
        return version

    def bump_all(self, fragment_ids: Iterable[int]) -> Dict[int, int]:
        """Advance several fragments at once; returns their new versions."""
        return {fragment_id: self.bump(fragment_id) for fragment_id in fragment_ids}

    def advance_epoch(self) -> int:
        """Invalidate everything at once (refragmentation, full rebuild)."""
        self._epoch += 1
        return self._epoch

    # ------------------------------------------------------------ validation

    def matches(self, epoch: int, slice_: Iterable[Tuple[int, int]]) -> bool:
        """Return ``True`` when a recorded ``(epoch, slice)`` is still current."""
        if epoch != self._epoch:
            return False
        return all(self.version_of(fid) == version for fid, version in slice_)

    # ---------------------------------------------------------- plain state

    def as_dict(self) -> Dict[str, object]:
        """Return the vector as plain data (snapshot wire format)."""
        return {"epoch": self._epoch, "versions": dict(self._versions)}

    @classmethod
    def from_dict(cls, state: Mapping[str, object]) -> "VersionVector":
        """Rebuild a vector from :meth:`as_dict` output."""
        versions = {int(k): int(v) for k, v in dict(state.get("versions", {})).items()}  # type: ignore[union-attr]
        return cls(versions, epoch=int(state.get("epoch", 0)))  # type: ignore[arg-type]

    def copy(self) -> "VersionVector":
        """Return an independent copy."""
        return VersionVector(self._versions, epoch=self._epoch)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VersionVector):
            return NotImplemented
        return self._epoch == other._epoch and self._versions == other._versions

    def __repr__(self) -> str:
        return f"VersionVector({self.tag()})"
