"""repro: Data fragmentation for parallel transitive closure strategies.

A full reproduction of Houtsma, Apers and Schipper (ICDE 1993): the
disconnection set approach to parallel transitive-closure evaluation, the
three data fragmentation algorithms the paper contributes (center-based,
bond-energy, linear), the graph generators of its evaluation, and a simulated
shared-nothing multiprocessor to stand in for the PRISMA/DB machine.

Typical usage::

    from repro import (
        generate_transportation_graph, paper_table1_config,
        BondEnergyFragmenter, DisconnectionSetEngine,
    )

    network = generate_transportation_graph(paper_table1_config(), seed=7)
    fragmentation = BondEnergyFragmenter(fragment_count=4).fragment(network.graph)
    engine = DisconnectionSetEngine(fragmentation)
    answer = engine.query(source, target)
"""

from .closure import (
    ClosureResult,
    ClosureStatistics,
    Semiring,
    bill_of_materials,
    is_connected,
    naive_transitive_closure,
    reachability_semiring,
    seminaive_transitive_closure,
    shortest_path_cost,
    shortest_path_semiring,
    smart_transitive_closure,
    warshall_closure,
)
from .disconnection import (
    ComplementaryInformation,
    DisconnectionSetEngine,
    DistributedCatalog,
    FragmentedDatabase,
    HierarchicalEngine,
    QueryAnswer,
    QueryPlanner,
    UpdateEvent,
    precompute_complementary_information,
    reachability_engine,
    shortest_path_engine,
)
from .exceptions import (
    DisconnectedError,
    FragmentationError,
    GraphError,
    NoChainError,
    PlanTruncatedError,
    ReproError,
)
from .fragmentation import (
    BondEnergyFragmenter,
    CenterBasedFragmenter,
    Fragment,
    Fragmentation,
    FragmentationCharacteristics,
    FragmentationGraph,
    Fragmenter,
    GroundTruthFragmenter,
    HashFragmenter,
    KConnectivityFragmenter,
    LinearFragmenter,
    characterize,
)
from .generators import (
    PathQuery,
    RandomGraphConfig,
    TransportationGraph,
    TransportationGraphConfig,
    european_railway_example,
    generate_random_graph,
    generate_transportation_graph,
    paper_table1_config,
    paper_table2_config,
)
from .graph import CompactGraph, DiGraph, Point
from .observability import MetricsRegistry, QueryLog, Tracer
from .parallel import (
    CostModel,
    ParallelSimulator,
    SpeedupPoint,
    compare_fragmenters,
    speedup_curve,
)
from .placement import (
    Migration,
    PlacementPlan,
    RebalanceAdvisor,
    plan_placement,
)
from .refragmentation import (
    LiveRefragmenter,
    RefragmentResult,
    RefragmentationAdvisor,
    measure_layout,
)
from .service import (
    BatchPlanner,
    LRUCache,
    PlacedWorkerPool,
    QueryService,
    ServiceAnswer,
    ServiceStatistics,
    load_snapshot,
    save_snapshot,
)

__version__ = "1.0.0"

__all__ = [
    "BatchPlanner",
    "BondEnergyFragmenter",
    "CenterBasedFragmenter",
    "ClosureResult",
    "ClosureStatistics",
    "CompactGraph",
    "ComplementaryInformation",
    "CostModel",
    "DiGraph",
    "DisconnectedError",
    "DisconnectionSetEngine",
    "DistributedCatalog",
    "Fragment",
    "Fragmentation",
    "FragmentationCharacteristics",
    "FragmentationError",
    "FragmentationGraph",
    "FragmentedDatabase",
    "Fragmenter",
    "GraphError",
    "GroundTruthFragmenter",
    "HashFragmenter",
    "HierarchicalEngine",
    "KConnectivityFragmenter",
    "LRUCache",
    "LinearFragmenter",
    "LiveRefragmenter",
    "MetricsRegistry",
    "Migration",
    "NoChainError",
    "ParallelSimulator",
    "PathQuery",
    "PlacedWorkerPool",
    "PlacementPlan",
    "PlanTruncatedError",
    "plan_placement",
    "Point",
    "QueryAnswer",
    "QueryLog",
    "QueryPlanner",
    "QueryService",
    "RandomGraphConfig",
    "RebalanceAdvisor",
    "RefragmentResult",
    "RefragmentationAdvisor",
    "ReproError",
    "Semiring",
    "ServiceAnswer",
    "ServiceStatistics",
    "SpeedupPoint",
    "Tracer",
    "TransportationGraph",
    "TransportationGraphConfig",
    "UpdateEvent",
    "bill_of_materials",
    "characterize",
    "compare_fragmenters",
    "european_railway_example",
    "generate_random_graph",
    "generate_transportation_graph",
    "is_connected",
    "load_snapshot",
    "measure_layout",
    "naive_transitive_closure",
    "paper_table1_config",
    "paper_table2_config",
    "precompute_complementary_information",
    "reachability_engine",
    "reachability_semiring",
    "save_snapshot",
    "seminaive_transitive_closure",
    "shortest_path_cost",
    "shortest_path_engine",
    "shortest_path_semiring",
    "smart_transitive_closure",
    "speedup_curve",
    "warshall_closure",
]
