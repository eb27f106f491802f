"""Graph and workload generators used by the experiments.

The random generator reproduces the paper's Sec. 4.1 process (coordinates plus
the distance probability ``P(p,q) = (c1/n^2) e^{-c2 d(p,q)}``); the
transportation generator builds the clustered graphs of Fig. 3; the structured
generators provide deterministic graphs for tests; the workload generators
produce query streams for the speed-up benchmarks.
"""

from .random_graph import (
    RandomGraphConfig,
    edge_probability,
    generate_coordinates,
    generate_random_graph,
    graph_from_coordinates,
)
from .structured import (
    chain_graph,
    complete_graph,
    cycle_graph,
    european_railway_example,
    grid_graph,
    layered_dag,
    star_graph,
    two_cluster_dumbbell,
)
from .transportation import (
    TransportationGraph,
    TransportationGraphConfig,
    generate_transportation_graph,
    paper_table1_config,
    paper_table2_config,
)
from .workload import (
    PathQuery,
    cross_cluster_queries,
    intra_cluster_queries,
    mixed_workload,
)

__all__ = [
    "PathQuery",
    "RandomGraphConfig",
    "TransportationGraph",
    "TransportationGraphConfig",
    "chain_graph",
    "complete_graph",
    "cross_cluster_queries",
    "cycle_graph",
    "edge_probability",
    "european_railway_example",
    "generate_coordinates",
    "generate_random_graph",
    "generate_transportation_graph",
    "graph_from_coordinates",
    "grid_graph",
    "intra_cluster_queries",
    "layered_dag",
    "mixed_workload",
    "paper_table1_config",
    "paper_table2_config",
    "star_graph",
    "two_cluster_dumbbell",
]
