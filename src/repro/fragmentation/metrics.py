"""Fragmentation characteristics: the quantities Tables 1-3 report.

For a fragmentation the paper reports four numbers (Sec. 4.2):

* ``F``   — average fragment size (number of edges),
* ``DS``  — average disconnection set size (number of nodes),
* ``AF``  — average deviation of the fragment sizes from ``F``,
* ``ADS`` — average deviation of the disconnection set sizes from ``DS``.

This module computes those, plus the structural characteristics that motivate
the three algorithms (cycle count of the fragmentation graph, per-fragment
diameters for the workload-balance view) and the derived workload estimates
used by the parallel cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..graph import hop_diameter, mean, mean_absolute_deviation
from .base import Fragmentation
from .fragmentation_graph import FragmentationGraph


@dataclass(frozen=True)
class FragmentationCharacteristics:
    """The paper's table row for one fragmentation, plus structural extras.

    Attributes:
        algorithm: name of the fragmentation algorithm.
        fragment_count: number of fragments produced.
        average_fragment_size: ``F`` — mean undirected edge count per fragment.
        average_disconnection_set_size: ``DS`` — mean node count over nonempty
            disconnection sets (0.0 when there are none).
        fragment_size_deviation: ``AF`` — mean absolute deviation of fragment
            sizes.
        disconnection_set_deviation: ``ADS`` — mean absolute deviation of
            disconnection set sizes.
        disconnection_set_count: number of nonempty disconnection sets.
        cycle_count: circuit rank of the fragmentation graph (0 = loosely
            connected).
        loosely_connected: whether the fragmentation graph is acyclic.
        max_fragment_diameter: the largest per-fragment hop diameter, the
            driver of the slowest processor's iteration count.
    """

    algorithm: str
    fragment_count: int
    average_fragment_size: float
    average_disconnection_set_size: float
    fragment_size_deviation: float
    disconnection_set_deviation: float
    disconnection_set_count: int
    cycle_count: int
    loosely_connected: bool
    max_fragment_diameter: int

    def as_dict(self) -> Dict[str, object]:
        """Return the characteristics as a flat dictionary for reporting."""
        return {
            "algorithm": self.algorithm,
            "fragment_count": self.fragment_count,
            "F": self.average_fragment_size,
            "DS": self.average_disconnection_set_size,
            "AF": self.fragment_size_deviation,
            "ADS": self.disconnection_set_deviation,
            "disconnection_set_count": self.disconnection_set_count,
            "cycle_count": self.cycle_count,
            "loosely_connected": self.loosely_connected,
            "max_fragment_diameter": self.max_fragment_diameter,
        }


def characterize(fragmentation: Fragmentation, *, include_diameter: bool = True) -> FragmentationCharacteristics:
    """Compute the :class:`FragmentationCharacteristics` of a fragmentation.

    Args:
        fragmentation: the fragmentation to measure.
        include_diameter: computing per-fragment diameters costs a BFS per
            node; disable for very large sweeps where only the table columns
            are needed.
    """
    sizes = [float(size) for size in fragmentation.fragment_sizes()]
    ds_sizes = [float(size) for size in fragmentation.disconnection_set_sizes()]
    fragmentation_graph = FragmentationGraph(fragmentation)
    if include_diameter:
        max_diameter = max(
            (
                hop_diameter(fragmentation.fragment_subgraph(fragment.fragment_id))
                for fragment in fragmentation.fragments
            ),
            default=0,
        )
    else:
        max_diameter = 0
    return FragmentationCharacteristics(
        algorithm=fragmentation.algorithm,
        fragment_count=fragmentation.fragment_count(),
        average_fragment_size=mean(sizes),
        average_disconnection_set_size=mean(ds_sizes),
        fragment_size_deviation=mean_absolute_deviation(sizes),
        disconnection_set_deviation=mean_absolute_deviation(ds_sizes),
        disconnection_set_count=len(ds_sizes),
        cycle_count=fragmentation_graph.cycle_count(),
        loosely_connected=fragmentation_graph.is_loosely_connected(),
        max_fragment_diameter=max_diameter,
    )


def fragment_diameters(fragmentation: Fragmentation) -> List[int]:
    """Return the hop diameter of every fragment (iteration-count proxy)."""
    return [
        hop_diameter(fragmentation.fragment_subgraph(fragment.fragment_id))
        for fragment in fragmentation.fragments
    ]


def border_node_set(fragmentation: Fragmentation) -> set:
    """Return the distinct nodes that appear in any disconnection set.

    The single definition of "border node" shared by the table metrics, the
    refragmentation advisor's locality signals and the live refragmenter's
    recovery accounting.
    """
    border = set()
    for nodes in fragmentation.disconnection_sets().values():
        border |= nodes
    return border


def total_border_nodes(fragmentation: Fragmentation) -> int:
    """Return the number of distinct nodes that appear in any disconnection set."""
    return len(border_node_set(fragmentation))


def complementary_information_size(fragmentation: Fragmentation) -> int:
    """Estimate the number of precomputed border-to-border facts.

    For each fragment the complementary information stores a value for every
    ordered pair of its border nodes; small disconnection sets keep this
    quadratic term small, which is the paper's argument for preferring them.
    """
    size = 0
    for fragment in fragmentation.fragments:
        border = fragmentation.border_nodes(fragment.fragment_id)
        size += len(border) * max(0, len(border) - 1)
    return size
