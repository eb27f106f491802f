"""Shared types for the graph-level transitive closure algorithms.

The algorithms in this package operate directly on
:class:`~repro.graph.digraph.DiGraph` objects.  They all return a
:class:`ClosureResult`, which contains the closure as a mapping from
``(source, target)`` to the path value of the chosen semiring, together with
an evaluation-statistics record that the parallel cost model consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Set, Tuple

from .semiring import Semiring

Node = Hashable
Pair = Tuple[Node, Node]


@dataclass
class ClosureStatistics:
    """Work counters for one closure evaluation.

    Attributes:
        iterations: number of fixpoint rounds executed.
        tuples_produced: total number of (source, target, value) facts derived,
            counting duplicates across rounds — this is the paper's "size of
            the intermediate results" workload driver.
        delta_sizes: number of new facts per round.
        elapsed_seconds: wall-clock seconds spent in the kernel; measured in
            whichever process ran the evaluation, so worker-side timings
            survive the trip back over the result channel.
    """

    iterations: int = 0
    tuples_produced: int = 0
    delta_sizes: List[int] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def record_round(self, produced: int, new: int) -> None:
        """Record one round that produced ``produced`` facts, ``new`` of them novel."""
        self.iterations += 1
        self.tuples_produced += produced
        self.delta_sizes.append(new)


@dataclass
class ClosureResult:
    """The result of evaluating a transitive-closure query on a graph.

    Attributes:
        values: mapping from (source, target) to the semiring path value; only
            pairs whose value differs from the semiring's ``zero`` appear.
        semiring_name: name of the semiring used.
        statistics: evaluation work counters.
    """

    values: Dict[Pair, object]
    semiring_name: str
    statistics: ClosureStatistics = field(default_factory=ClosureStatistics)

    def value(self, source: Node, target: Node, semiring: Optional[Semiring] = None) -> object:
        """Return the path value for ``(source, target)``.

        When the pair is absent the semiring ``zero`` is returned if a
        semiring is supplied, otherwise ``None``.
        """
        if (source, target) in self.values:
            return self.values[(source, target)]
        return semiring.zero if semiring is not None else None

    def reaches(self, source: Node, target: Node) -> bool:
        """Return ``True`` if a path from ``source`` to ``target`` was derived."""
        return (source, target) in self.values

    def pairs(self) -> Set[Pair]:
        """Return the set of connected pairs."""
        return set(self.values)

    def size(self) -> int:
        """Return the number of connected pairs."""
        return len(self.values)
