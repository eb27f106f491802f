"""Module census: every public name in ``src/repro`` has a caller outside the tests.

A public top-level function or class, or a public method of a top-level
class, stays in ``src/repro`` only if code outside every ``tests`` directory
uses it: ``src`` itself, the benchmark scripts, the scale harness or the
examples.  A use is a name read or an attribute read (or a literal name
passed to ``getattr`` / ``hasattr``); an import line or an ``__all__`` entry
is not a use, so a re-export keeps nothing alive.  Uses inside a definition
that is itself dead, or inside the definition they name, do not count, and
the scan repeats until nothing more drops out, so a helper whose only caller
is a dead helper is reported together with it.

Matching is by name only (``x.count(...)`` keeps every method called
``count``), which errs towards keeping code.  Names that other tests use as
fixtures or oracles stay in ``ALLOWLIST``, each with its reason; a name whose
only user is its own unit test is deleted together with that test.
"""

from __future__ import annotations

import ast
import functools
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_ROOTS = (ROOT / "src", ROOT / "benchmarks", ROOT / "examples")

ALLOWLIST = {
    "repro.closure.semiring.widest_path_semiring": "the one semiring that exercises the custom-semiring fallback",
    "repro.fragmentation.base.Fragmentation.edge_fragment": "oracle: a write-derived layout owns each edge as a fresh build does",
    "repro.fragmentation.base.Fragmentation.fragments_of_node": "oracle: a write-derived layout owns each node as a fresh build does",
    "repro.generators.structured.chain_graph": "fixture graph of the closure, graph, fragmentation and planner tests",
    "repro.generators.structured.complete_graph": "fixture graph of the connectivity, metrics and k-connectivity tests",
    "repro.generators.structured.cycle_graph": "fixture graph of the closure, traversal and connectivity tests",
    "repro.generators.structured.layered_dag": "fixture graph of the path-count (bill of materials) tests",
    "repro.generators.structured.star_graph": "fixture graph of the status-score tests",
    "repro.generators.structured.two_cluster_dumbbell": "the `dumbbell_graph` fixture of tests/conftest.py and most two-fragment tests",
    "repro.graph.compact.CompactGraph.backward_csr": "oracle: the bulk and per-edge CSR builds produce the same arrays",
    "repro.graph.compact.CompactGraph.from_edges": "fixture: builds the kernel and backend tests' compact graphs",
    "repro.graph.digraph.DiGraph.predecessor_items": "oracle: compact predecessor rows equal the dict graph's",
    "repro.graph.shortest_path.shortest_path_length": "oracle: complementary information equals whole-graph distances",
    "repro.graph.traversal.is_reachable": "oracle: engine reachability equals whole-graph reachability",
    "repro.graph.traversal.is_weakly_connected": "oracle: the generators produce connected graphs",
    "repro.observability.tracing.Tracer.assemble": "oracle: one request's coordinator and worker spans form one trace",
}


@dataclass(frozen=True)
class Definition:
    qualname: str
    name: str
    path: Path
    start: int
    end: int
    owner: Optional[str] = None

    def contains(self, path: Path, line: int) -> bool:
        return self.path == path and self.start <= line <= self.end


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _definition(node: ast.AST, qualname: str, path: Path, owner: Optional[str] = None) -> Definition:
    start = min([node.lineno] + [decorator.lineno for decorator in node.decorator_list])
    return Definition(qualname, node.name, path, start, node.end_lineno, owner)


def _definitions(path: Path) -> List[Definition]:
    module = _module_name(path)
    found = []
    for node in ast.parse(path.read_text(), str(path)).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        qualname = f"{module}.{node.name}"
        found.append(_definition(node, qualname, path))
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and not member.name.startswith("_"):
                    found.append(_definition(member, f"{qualname}.{member.name}", path, owner=qualname))
    return found


def _uses(path: Path) -> Iterable[tuple]:
    """Yield ``(name, line)`` for every read of a name or attribute in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            yield node.args[1].value, node.lineno


def _caller_files() -> Iterable[Path]:
    for root in CALLER_ROOTS:
        for path in sorted(root.rglob("*.py")):
            if "tests" not in path.relative_to(ROOT).parts:
                yield path


def _test_files() -> Iterable[Path]:
    for root in (ROOT / "tests", ROOT / "benchmarks"):
        for path in sorted(root.rglob("*.py")):
            if "tests" in path.relative_to(ROOT).parts:
                yield path


@functools.lru_cache(maxsize=None)
def _dead_definitions(allowlist: FrozenSet[str]) -> Tuple[Definition, ...]:
    definitions = [definition for path in sorted(PACKAGE.rglob("*.py")) for definition in _definitions(path)]
    uses: Dict[str, List[tuple]] = defaultdict(list)
    for path in _caller_files():
        for name, line in _uses(path):
            uses[name].append((path, line))

    dead: Set[Definition] = set()
    while True:
        newly_dead = {
            definition
            for definition in definitions
            if definition not in dead
            and definition.qualname not in allowlist
            and all(
                definition.contains(path, line) or any(other.contains(path, line) for other in dead)
                for path, line in uses[definition.name]
            )
        }
        if not newly_dead:
            break
        dead |= newly_dead
    dead_classes = {definition.qualname for definition in dead if definition.owner is None}
    return tuple(
        sorted(
            (definition for definition in dead if definition.owner not in dead_classes),
            key=lambda definition: definition.qualname,
        )
    )


def dead_names(allowlist: Iterable[str] = ALLOWLIST, module: Optional[str] = None) -> List[str]:
    """The qualified names of every public definition nothing outside the tests uses.

    With ``module``, only the names defined in that module.
    """
    return [
        definition.qualname
        for definition in _dead_definitions(frozenset(allowlist))
        if module is None or _module_name(definition.path) == module
    ]


@functools.lru_cache(maxsize=None)
def _names_tests_use() -> FrozenSet[str]:
    return frozenset(name for path in _test_files() for name, _ in _uses(path))


MODULES = sorted(_module_name(path) for path in PACKAGE.rglob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_has_a_caller_outside_the_tests(module):
    dead = dead_names(module=module)
    assert not dead, (
        f"public names of {module} only tests use "
        "(delete them with their tests, or allowlist a fixture or oracle):\n" + "\n".join(dead)
    )


@pytest.mark.parametrize("qualname", sorted(ALLOWLIST))
def test_every_allowlist_entry_is_a_definition_nothing_outside_the_tests_uses(qualname):
    assert qualname in dead_names(allowlist=())


@pytest.mark.parametrize("qualname", sorted(ALLOWLIST))
def test_every_allowlist_entry_is_used_by_a_test(qualname):
    assert qualname.rsplit(".", 1)[1] in _names_tests_use(), f"no test uses {qualname}: delete it"


# ---------------------------------------------------------- parameter census
#
# The same rule for options.  An option is a keyword-only parameter with a
# default on a public function, a public method or the ``__init__`` of a
# public class, or a field of a ``*Config`` dataclass.  It stays only if code
# outside the tests sets it: a call passing it by keyword to a callee of the
# same name (the class name for ``__init__`` and for a config field), or a
# string literal equal to its name (the CLI builds its ``QueryService``
# options as a dict).  String literals err towards keeping an option: a
# document key of the same name keeps it too.  Every other option becomes a
# module constant.  Test seams, fixture options and the advisor thresholds
# ROADMAP item 13 replaces with one cost function stay in
# ``OPTION_ALLOWLIST``, each with its reason.

_ITEM_13 = "advisor threshold: item 13 replaces the advisors' thresholds with one cost function"

OPTION_ALLOWLIST = {
    "repro.closure.warshall.bfs_closure(use_compact)": "test seam: pins the dict or compact path so the equivalence tests compare both",
    "repro.closure.warshall.dijkstra_closure(use_compact)": "test seam: pins the dict or compact path so the equivalence tests compare both",
    "repro.closure.warshall.warshall_closure(use_compact)": "test seam: pins the dict or compact path so the equivalence tests compare both",
    "repro.experiments.tables.run_table1(config)": "test seam: the table tests run the paper's workload at a small scale",
    "repro.experiments.tables.run_table2(config)": "test seam: the table tests run the paper's workload at a small scale",
    "repro.experiments.tables.run_table3(config)": "test seam: the table tests run the paper's workload at a small scale",
    "repro.generators.structured.chain_graph(symmetric)": "fixture option: the one-way chain of the reachability tests",
    "repro.generators.structured.complete_graph(symmetric)": "fixture option: the one-way complete graph of the closure tests",
    "repro.generators.structured.cycle_graph(symmetric)": "fixture option: the one-way cycle of the closure and traversal tests",
    "repro.generators.structured.grid_graph(symmetric)": "fixture option: the one-way grid of the closure tests",
    "repro.generators.structured.star_graph(symmetric)": "fixture option: the one-way star of the status-score tests",
    "repro.generators.structured.two_cluster_dumbbell(bridge_nodes)": "fixture option: the two-bridge dumbbell of the disconnection-set tests",
    "repro.generators.structured.two_cluster_dumbbell(symmetric)": "fixture option: the one-way dumbbell of the reachability tests",
    "repro.observability.profiler.SamplingProfiler(backend_probe)": "test seam: a fake probe tags samples with a known backend",
    "repro.observability.slo.SLOMonitor(clock)": "test seam: a fake clock walks the burn-rate windows",
    "repro.observability.slo.SLOMonitor(windows)": "test seam: short windows make a burn observable in a test",
    "repro.placement.advisor.RebalanceAdvisor(max_migrations)": _ITEM_13,
    "repro.placement.advisor.RebalanceAdvisor(skew_threshold)": _ITEM_13,
    "repro.placement.advisor.RebalanceAdvisor(update_weight)": _ITEM_13,
    "repro.placement.advisor.RebalanceAdvisor.skew(delta_log)": "advisor input: item 13 replaces the rebalance load model with one cost function",
    "repro.refragmentation.advisor.RefragmentationAdvisor(border_growth_threshold)": _ITEM_13,
    "repro.refragmentation.advisor.RefragmentationAdvisor(cross_ratio_threshold)": _ITEM_13,
    "repro.refragmentation.advisor.RefragmentationAdvisor(min_query_sample)": _ITEM_13,
    "repro.refragmentation.advisor.RefragmentationAdvisor(update_skew_threshold)": _ITEM_13,
    "repro.serving.admission.AdmissionController(clock)": "test seam: a fake clock drives the token buckets",
    "repro.serving.admission.AdmissionController.admit(now)": "test seam: a fake clock drives the token buckets",
    "repro.service.server.QueryService.rebalance(advisor)": "advisor seam: how tests set the item-13 thresholds of a live rebalance",
}


@dataclass(frozen=True)
class Option:
    qualname: str
    callee: str
    keyword: str


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _keyword_options(function: ast.AST, qualname: str, callee: str) -> List[Option]:
    arguments = function.args
    return [
        Option(f"{qualname}({argument.arg})", callee, argument.arg)
        for argument, default in zip(arguments.kwonlyargs, arguments.kw_defaults)
        if default is not None
    ]


def _options(path: Path) -> List[Option]:
    module = _module_name(path)
    found: List[Option] = []
    for node in ast.parse(path.read_text(), str(path)).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        qualname = f"{module}.{node.name}"
        if not isinstance(node, ast.ClassDef):
            found += _keyword_options(node, qualname, node.name)
        else:
            if node.name.endswith("Config") and _is_dataclass(node):
                found += [
                    Option(f"{qualname}({member.target.id})", node.name, member.target.id)
                    for member in node.body
                    if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name)
                ]
            for member in node.body:
                if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if member.name == "__init__":
                    found += _keyword_options(member, qualname, node.name)
                elif not member.name.startswith("_"):
                    found += _keyword_options(member, f"{qualname}.{member.name}", member.name)
    return found


def _option_uses(path: Path) -> Iterable[Tuple[str, str]]:
    """Yield ``(callee, keyword)`` per keyword argument, ``("", text)`` per string literal."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call):
            function = node.func
            callee = (
                function.id
                if isinstance(function, ast.Name)
                else function.attr if isinstance(function, ast.Attribute) else ""
            )
            for keyword in node.keywords:
                if keyword.arg is not None:
                    yield callee, keyword.arg
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield "", node.value


@functools.lru_cache(maxsize=None)
def _all_options() -> Tuple[Tuple[str, Option], ...]:
    return tuple(
        (_module_name(path), option)
        for path in sorted(PACKAGE.rglob("*.py"))
        for option in _options(path)
    )


@functools.lru_cache(maxsize=None)
def _options_set_outside_the_tests() -> FrozenSet[Tuple[str, str]]:
    return frozenset(use for path in _caller_files() for use in _option_uses(path))


def unset_options(allowlist: Iterable[str] = OPTION_ALLOWLIST, module: Optional[str] = None) -> List[str]:
    """The qualified names (``callable(keyword)``) of every option only tests set."""
    allowed = set(allowlist)
    set_by_callers = _options_set_outside_the_tests()
    return [
        option.qualname
        for option_module, option in _all_options()
        if (module is None or option_module == module)
        and option.qualname not in allowed
        and (option.callee, option.keyword) not in set_by_callers
        and ("", option.keyword) not in set_by_callers
    ]


@functools.lru_cache(maxsize=None)
def _keywords_tests_use() -> FrozenSet[str]:
    return frozenset(keyword for path in _test_files() for _, keyword in _option_uses(path))


@pytest.mark.parametrize("module", MODULES)
def test_every_option_is_set_outside_the_tests(module):
    unset = unset_options(module=module)
    assert not unset, (
        f"options of {module} only tests set (make each a module constant with "
        "its default value, or allowlist a test seam with its reason):\n" + "\n".join(unset)
    )


@pytest.mark.parametrize("qualname", sorted(OPTION_ALLOWLIST))
def test_every_allowlisted_option_is_unset_outside_the_tests(qualname):
    assert qualname in unset_options(allowlist=())


@pytest.mark.parametrize("qualname", sorted(OPTION_ALLOWLIST))
def test_every_allowlisted_option_is_set_by_a_test(qualname):
    keyword = qualname[qualname.index("(") + 1 : -1]
    assert keyword in _keywords_tests_use(), f"no test sets {qualname}: make it a constant"
