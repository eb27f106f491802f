"""Graph substrate: directed weighted graphs, metrics, traversals, paths.

This package provides everything the fragmentation algorithms and the
disconnection set engine need from graph theory: the mutable
:class:`~repro.graph.digraph.DiGraph` container, its immutable array-backed
counterpart :class:`~repro.graph.compact.CompactGraph` (the substrate of the
closure kernels), traversals and components, shortest paths, diameters, the
Hoede-style status score used for center selection, and k-connectivity
analysis.
"""

from .coordinates import (
    Point,
    bounding_box,
    centroid,
    spread_out_selection,
)
from .compact import (
    DEFAULT_OVERLAY_THRESHOLD,
    ENV_OVERLAY_THRESHOLD,
    OVERLAY_COMPACTIONS_COUNTER,
    OVERLAY_DEPTH_GAUGE,
    CompactDelta,
    CompactGraph,
    merge_overlay_metrics,
    overlay_compaction_counts,
    overlay_threshold_default,
)
from .connectivity import (
    articulation_points,
    k_connectivity,
    relevant_nodes,
    vertex_disjoint_path_count,
)
from .digraph import DiGraph
from .io import from_dict, load_json, save_json, to_dict
from .metrics import (
    GraphSummary,
    average_degree,
    clustering_ratio,
    diameter,
    mean,
    mean_absolute_deviation,
    summarize,
)
from .shortest_path import (
    dijkstra,
    hop_diameter,
    reconstruct_path,
    shortest_path,
    shortest_path_length,
)
from .status import rank_by_status, status_scores, top_candidates
from .traversal import (
    bfs_levels,
    bfs_order,
    is_reachable,
    is_weakly_connected,
    strongly_connected_components,
    undirected_cycle_count,
    weakly_connected_components,
)

__all__ = [
    "DEFAULT_OVERLAY_THRESHOLD",
    "ENV_OVERLAY_THRESHOLD",
    "OVERLAY_COMPACTIONS_COUNTER",
    "OVERLAY_DEPTH_GAUGE",
    "CompactDelta",
    "CompactGraph",
    "DiGraph",
    "Point",
    "GraphSummary",
    "articulation_points",
    "average_degree",
    "bfs_levels",
    "bfs_order",
    "bounding_box",
    "centroid",
    "clustering_ratio",
    "diameter",
    "dijkstra",
    "from_dict",
    "hop_diameter",
    "is_reachable",
    "is_weakly_connected",
    "k_connectivity",
    "load_json",
    "mean",
    "mean_absolute_deviation",
    "merge_overlay_metrics",
    "overlay_compaction_counts",
    "overlay_threshold_default",
    "rank_by_status",
    "reconstruct_path",
    "relevant_nodes",
    "save_json",
    "shortest_path",
    "shortest_path_length",
    "spread_out_selection",
    "status_scores",
    "strongly_connected_components",
    "summarize",
    "to_dict",
    "top_candidates",
    "undirected_cycle_count",
    "vertex_disjoint_path_count",
    "weakly_connected_components",
]
