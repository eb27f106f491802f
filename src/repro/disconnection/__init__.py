"""The disconnection set approach: the parallel transitive-closure strategy
the fragmentations of this package are designed for.

Complementary-information precomputation, the distributed catalog, query
planning over the fragmentation graph, independent per-fragment local queries,
final assembly joins, the query core's two pipelines (:func:`answer_pairs`
over the border graph behind the service and the end-to-end
:class:`DisconnectionSetEngine`; :func:`answer_chains`, the paper's fragment
chains, behind the parallel simulator, the hierarchical engine and the paper
scripts), and the Parallel Hierarchical Evaluation extension.
"""

from .assembly import AssemblyResult, assemble_chain, collect_task_keys
from .catalog import CompactFragmentSite, DistributedCatalog, FragmentSite
from .complementary import ComplementaryInformation, precompute_complementary_information
from .core import (
    BorderRun,
    CoreResult,
    PairAnswer,
    answer_chains,
    answer_pairs,
    assemble_best_chain,
    plan_pairs,
)
from .engine import (
    DisconnectionSetEngine,
    ExecutionReport,
    QueryAnswer,
    SiteWork,
    answer_in_process,
    reachability_engine,
    shortest_path_engine,
)
from .hierarchical import BackboneStatistics, HierarchicalEngine
from .local_query import LocalQueryEvaluator, LocalQueryResult
from .maintenance import FragmentedDatabase, UpdateEvent, UpdateStatistics
from .planner import ChainPlan, LocalQuerySpec, QueryPlan, QueryPlanner
from .routes import RoutedAnswer

__all__ = [
    "AssemblyResult",
    "BackboneStatistics",
    "BorderRun",
    "ChainPlan",
    "CompactFragmentSite",
    "ComplementaryInformation",
    "CoreResult",
    "DisconnectionSetEngine",
    "DistributedCatalog",
    "ExecutionReport",
    "FragmentSite",
    "FragmentedDatabase",
    "HierarchicalEngine",
    "LocalQueryEvaluator",
    "LocalQueryResult",
    "LocalQuerySpec",
    "PairAnswer",
    "QueryAnswer",
    "QueryPlan",
    "QueryPlanner",
    "RoutedAnswer",
    "SiteWork",
    "UpdateEvent",
    "UpdateStatistics",
    "answer_chains",
    "answer_in_process",
    "answer_pairs",
    "assemble_best_chain",
    "assemble_chain",
    "collect_task_keys",
    "plan_pairs",
    "precompute_complementary_information",
    "reachability_engine",
    "shortest_path_engine",
]
