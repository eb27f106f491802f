"""Smoke tests for the top-level public API surface."""

import importlib

import pytest

import repro


class TestPublicExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists {name} but it is not importable"

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.graph",
            "repro.relational",
            "repro.generators",
            "repro.closure",
            "repro.fragmentation",
            "repro.disconnection",
            "repro.incremental",
            "repro.service",
            "repro.parallel",
            "repro.experiments",
            "repro.cli",
        ],
    )
    def test_subpackage_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.__all__ lists {name} but it is not importable"

    def test_there_is_one_worker_pool(self):
        import repro.service

        assert repro.PlacedWorkerPool is repro.service.PlacedWorkerPool
        assert not hasattr(repro, "ResidentWorkerPool")
        assert not hasattr(repro.service, "ResidentWorkerPool")

    def test_readme_quickstart_symbols_exist(self):
        # The classes/functions the README quickstart relies on.
        for name in (
            "generate_transportation_graph",
            "paper_table1_config",
            "BondEnergyFragmenter",
            "DisconnectionSetEngine",
            "characterize",
        ):
            assert hasattr(repro, name)

    def test_exceptions_form_a_hierarchy(self):
        from repro.exceptions import (
            DisconnectionSetError,
            FragmentationError,
            GraphError,
            NoChainError,
            ReproError,
        )

        assert issubclass(GraphError, ReproError)
        assert issubclass(FragmentationError, ReproError)
        assert issubclass(NoChainError, DisconnectionSetError)
        assert issubclass(DisconnectionSetError, ReproError)
