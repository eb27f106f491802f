"""Smoke tests for the top-level public API surface."""

import importlib
import re
from pathlib import Path

import pytest

import repro

README = Path(__file__).resolve().parents[1] / "README.md"


def resolve(dotted: str) -> object:
    """Import the longest module prefix of ``dotted`` and look up the rest as attributes."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[split:]:
            target = getattr(target, attribute)
        return target
    raise ModuleNotFoundError(dotted)


README_NAMES = sorted(
    {
        name
        for span in re.findall(r"`([^`\n]+)`", README.read_text())
        for name in re.findall(r"(?<![\w./-])repro(?:\.\w+)+", span)
    }
)


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
            "repro.generators",
            "repro.closure",
            "repro.fragmentation",
            "repro.disconnection",
            "repro.incremental",
            "repro.service",
            "repro.serving",
            "repro.observability",
            "repro.placement",
            "repro.refragmentation",
            "repro.parallel",
            "repro.experiments",
            "repro.cli",
        ],
    )
    def test_subpackage_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.__all__ lists {name} but it is not importable"

    def test_readme_name_scan_finds_dotted_names(self):
        assert "repro.closure.kernels.bitset_diameter" in README_NAMES

    @pytest.mark.parametrize("name", README_NAMES)
    def test_readme_names_resolve(self, name):
        try:
            resolve(name)
        except (ImportError, AttributeError) as error:
            pytest.fail(f"README.md names {name}, which does not exist: {error}")

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
