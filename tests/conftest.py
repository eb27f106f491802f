"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.generators import (
    TransportationGraphConfig,
    european_railway_example,
    generate_transportation_graph,
    grid_graph,
    two_cluster_dumbbell,
)
from repro.graph import DiGraph, Point

# ``pytest --hypothesis-profile=ci``: the CI workflow's long run of the
# property tests that leave their example count to the profile
# (``tests/disconnection/test_row_survival.py``,
# ``tests/integration/test_cache_survival.py``,
# ``tests/integration/test_compiled_search.py``,
# ``tests/integration/test_engine_properties.py``,
# ``tests/service/test_snapshot.py``, whose bit-flip test also reads the
# profile's 1 000 examples as the cue to flip every bit).
settings.register_profile("ci", max_examples=1000)


@pytest.fixture
def triangle_graph() -> DiGraph:
    """A weighted directed triangle with an extra chord: 4 nodes, simple paths."""
    graph = DiGraph()
    graph.add_edge("a", "b", 1.0)
    graph.add_edge("b", "c", 2.0)
    graph.add_edge("a", "c", 5.0)
    graph.add_edge("c", "d", 1.0)
    return graph


@pytest.fixture
def small_symmetric_graph() -> DiGraph:
    """A small symmetric graph with coordinates: two triangles joined by a bridge."""
    graph = DiGraph()
    coordinates = {
        1: (0.0, 0.0), 2: (1.0, 1.0), 3: (1.0, -1.0),
        4: (4.0, 0.0), 5: (5.0, 1.0), 6: (5.0, -1.0),
    }
    for node, point in coordinates.items():
        graph.set_coordinate(node, Point(*point))
    for a, b in [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (3, 4)]:
        graph.add_symmetric_edge(a, b, 1.0)
    return graph


@pytest.fixture
def dumbbell_graph() -> DiGraph:
    """Two 5-cliques joined by one bridge edge (ideal 2-fragment input)."""
    return two_cluster_dumbbell(5)


@pytest.fixture
def small_grid() -> DiGraph:
    """A 4x4 grid graph with coordinates."""
    return grid_graph(4, 4)


@pytest.fixture(scope="session")
def small_transportation_network():
    """A small (4 clusters x 12 nodes) transportation graph, shared across tests."""
    config = TransportationGraphConfig(
        cluster_count=4,
        nodes_per_cluster=12,
        cluster_c1=280.0,
        cluster_c2=0.03,
        inter_cluster_edges=2,
    )
    return generate_transportation_graph(config, seed=11)


@pytest.fixture(scope="session")
def railway():
    """The European railway example graph and its country clusters."""
    graph, countries = european_railway_example()
    return graph, countries
