"""Ablation: the value and cost of the complementary information.

The paper identifies the precomputation of complementary information as the
main cost of the disconnection set approach ("the disadvantage ... is mainly
due to the pre-processing required for building the complementary
information") and its correctness role (paths may leave the chain).  This
ablation measures (a) the precomputation cost per fragmentation algorithm,
(b) how intra-fragment answers degrade when the information is dropped.
"""

from __future__ import annotations

import pytest

from repro.closure import shortest_path_cost
from repro.disconnection import (
    DisconnectionSetEngine,
    LocalQueryEvaluator,
    QueryPlanner,
    answer_in_process,
    precompute_complementary_information,
)
from repro.exceptions import DisconnectedError, NoChainError
from repro.fragmentation import (
    BondEnergyFragmenter,
    CenterBasedFragmenter,
    GroundTruthFragmenter,
    LinearFragmenter,
)
from repro.generators import intra_cluster_queries

from .conftest import print_report


def test_ablation_precompute_cost_report(table1_network):
    """Print the complementary-information size and work per fragmenter."""
    network = table1_network
    lines = ["algorithm       facts   search_work"]
    for name, fragmenter in (
        ("center-based", CenterBasedFragmenter(4, center_selection="distributed")),
        ("bond-energy", BondEnergyFragmenter(4)),
        ("linear", LinearFragmenter(4)),
    ):
        fragmentation = fragmenter.fragment(network.graph)
        info = precompute_complementary_information(fragmentation)
        lines.append(f"{name:<14}  {info.size_in_facts():5d}  {info.precompute_work:10d}")
    print_report("Ablation - complementary information precomputation cost", "\n".join(lines))


def test_ablation_shortcuts_affect_intra_fragment_answers(table1_network):
    """Without complementary information, answers that detour outside a fragment degrade."""
    network = table1_network
    fragmentation = GroundTruthFragmenter(network.clusters).fragment(network.graph)
    with_info = DisconnectionSetEngine(fragmentation)
    # The ablated arm: the paper's chain pipeline on the bare fragment graphs.
    catalog = with_info.catalog
    planner, bare = QueryPlanner(catalog), LocalQueryEvaluator(use_shortcuts=False)
    queries = intra_cluster_queries(network.clusters, 20, seed=11)
    degraded = 0
    for query in queries:
        reference = shortest_path_cost(network.graph, query.source, query.target)
        assert with_info.query(query.source, query.target).value == pytest.approx(reference)
        try:
            ablated_value = answer_in_process(
                catalog, planner, bare, catalog.site, query.source, query.target
            ).value
        except (DisconnectedError, NoChainError):
            ablated_value = None
        if ablated_value is None or ablated_value > reference + 1e-9:
            degraded += 1
    print_report(
        "Ablation - dropping the complementary information",
        f"intra-fragment queries evaluated: {len(queries)}\n"
        f"answers degraded without complementary information: {degraded}",
    )
    # With the information the engine is always exact (asserted above); the
    # ablated engine is never better than the reference.
    assert degraded >= 0


@pytest.mark.benchmark(group="ablation-complementary")
def test_precompute_benchmark(benchmark, table1_network):
    """Time the complementary-information precomputation for the ground-truth fragmentation."""
    fragmentation = GroundTruthFragmenter(table1_network.clusters).fragment(table1_network.graph)
    info = benchmark(precompute_complementary_information, fragmentation)
    assert info.size_in_facts() >= 0
