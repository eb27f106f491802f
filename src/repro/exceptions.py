"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError`, so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class GraphError(ReproError):
    """Base class for errors raised by the graph substrate."""


class NodeNotFoundError(GraphError, KeyError):
    """A node referenced by a graph operation does not exist in the graph."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} is not in the graph")
        self.node = node


class EdgeNotFoundError(GraphError, KeyError):
    """An edge referenced by a graph operation does not exist in the graph."""

    def __init__(self, source: object, target: object) -> None:
        super().__init__(f"edge ({source!r}, {target!r}) is not in the graph")
        self.source = source
        self.target = target


class MissingCoordinatesError(GraphError):
    """An algorithm needed node coordinates, but the graph has none."""


class NegativeWeightError(GraphError):
    """A shortest-path routine received an edge with a negative weight."""


class DisconnectedError(GraphError):
    """A path-dependent quantity was requested for unreachable nodes."""


class FragmentationError(ReproError):
    """Base class for errors raised while fragmenting a graph."""


class InvalidFragmentationError(FragmentationError):
    """A produced fragmentation violates a structural invariant."""


class FragmenterConfigurationError(FragmentationError):
    """A fragmentation algorithm was configured with invalid parameters."""


class DisconnectionSetError(ReproError):
    """Base class for errors raised by the disconnection set query engine."""


class NoChainError(DisconnectionSetError):
    """No chain of fragments connects the source and destination fragments."""


class PlanTruncatedError(DisconnectionSetError):
    """More chains connect the endpoints' fragments than the planner enumerates.

    A plan cut at the cap may miss the chain the best path runs through, so
    its value could be a plain wrong answer; the query fails instead.  Not a
    :class:`NoChainError`: chains do exist, so "not connected" would be wrong
    too.  ``budget`` is set when the enumeration stopped at its work budget
    (that many expanded partial chains) before it could tell.
    """

    def __init__(
        self, source: object, target: object, max_chains: object, budget: object = None
    ) -> None:
        if budget is None:
            cut = f"more than {max_chains} fragment chains connect {source!r} and {target!r}"
        else:
            cut = (
                f"enumerating the fragment chains that connect {source!r} and {target!r} "
                f"expanded more than {budget} partial chains"
            )
        super().__init__(
            f"{cut}; a plan cut there could miss the best path, so the query is not answered"
        )
        self.source = source
        self.target = target
        self.max_chains = max_chains
        self.budget = budget


class ParallelError(ReproError):
    """Base class for errors raised by the parallel execution substrate."""


class SchedulingError(ParallelError):
    """The scheduler could not produce a valid assignment."""


class ExperimentError(ReproError):
    """An experiment harness was invoked with unknown or invalid settings."""
