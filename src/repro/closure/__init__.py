"""Transitive closure algorithms over graphs, generalised by path-problem semirings.

These are the single-processor algorithms a site runs on its fragment, and
the centralised baselines the parallel disconnection set strategy is compared
against.
"""

from .backends import (
    BACKEND_BIGINT,
    BACKEND_CHAIN,
    BACKEND_NUMPY,
    KERNEL_BACKENDS,
    KERNEL_SELECTIONS_COUNTER,
    chain_index,
    graph_shape,
    merge_selection_metrics,
    packed_matrix,
    record_selection,
    select_kernel,
)
from .base import ClosureResult, ClosureStatistics
from .chain import ChainIndex, strongly_connected_components
from .kernels import (
    array_dijkstra,
    bitset_diameter,
    bitset_reachable,
    compact_closure,
    compact_reachability_closure,
    compact_shortest_path_closure,
    ids_to_mask,
    mask_to_ids,
    reachability_rows,
    reconstruct_id_path,
    seminaive_closure_ids,
)
from .packed import PackedBitMatrix, numpy_available
from .iterative import (
    naive_transitive_closure,
    seminaive_transitive_closure,
    smart_transitive_closure,
)
from .path_problems import (
    bill_of_materials,
    is_connected,
    shortest_path_cost,
)
from .semiring import (
    Semiring,
    path_count_semiring,
    reachability_semiring,
    shortest_path_semiring,
    widest_path_semiring,
)
from .warshall import bfs_closure, dijkstra_closure, warshall_closure

__all__ = [
    "BACKEND_BIGINT",
    "BACKEND_CHAIN",
    "BACKEND_NUMPY",
    "ChainIndex",
    "ClosureResult",
    "ClosureStatistics",
    "KERNEL_BACKENDS",
    "KERNEL_SELECTIONS_COUNTER",
    "PackedBitMatrix",
    "Semiring",
    "array_dijkstra",
    "chain_index",
    "graph_shape",
    "merge_selection_metrics",
    "numpy_available",
    "packed_matrix",
    "reachability_rows",
    "record_selection",
    "select_kernel",
    "strongly_connected_components",
    "bfs_closure",
    "bill_of_materials",
    "bitset_diameter",
    "bitset_reachable",
    "compact_closure",
    "compact_reachability_closure",
    "compact_shortest_path_closure",
    "dijkstra_closure",
    "ids_to_mask",
    "is_connected",
    "mask_to_ids",
    "naive_transitive_closure",
    "reconstruct_id_path",
    "seminaive_closure_ids",
    "path_count_semiring",
    "reachability_semiring",
    "seminaive_transitive_closure",
    "shortest_path_cost",
    "shortest_path_semiring",
    "smart_transitive_closure",
    "warshall_closure",
    "widest_path_semiring",
]
