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

A bare name keeps only top-level functions and classes: a local variable
or a builtin called ``reversed`` keeps no method of that name.  A read
``K.name`` where ``K`` names a class keeps only the member of ``K`` or of a
class ``K`` inherits from, so ``VersionVector.from_dict`` keeps no other
``from_dict``.  Any other attribute read matches by name only
(``x.count(...)`` keeps every method called ``count``), which errs towards
keeping code.  Names that other tests use as fixtures or oracles stay in
``ALLOWLIST``, each with its reason; a name whose only user is its own unit
test is deleted together with that test.
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
    "repro.disconnection.catalog.FragmentSite.stores_node": "oracle: the catalog's owner-index read equals a scan of every site",
    "repro.fragmentation.base.Fragmentation.edge_fragment": "oracle: a write-derived layout owns each edge as a fresh build does",
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


@dataclass(frozen=True)
class Use:
    """A read of ``name`` at ``line``; ``qualifier`` is ``None`` for a bare name,
    ``K`` for ``K.name`` and ``""`` for any other attribute read."""

    name: str
    line: int
    qualifier: Optional[str]


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


def _uses(path: Path) -> Iterable[Use]:
    """Yield a :class:`Use` for every read of a name or attribute in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield Use(node.id, node.lineno, None)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            qualifier = node.value.id if isinstance(node.value, ast.Name) else ""
            yield Use(node.attr, node.lineno, qualifier)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            yield Use(node.args[1].value, node.lineno, "")


def _base_name(node: ast.AST) -> str:
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _class_bases(paths: Iterable[Path]) -> Dict[str, Set[str]]:
    """Map every class name defined in ``paths`` to the names of its bases."""
    bases: Dict[str, Set[str]] = defaultdict(set)
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                bases[node.name].update(_base_name(base) for base in node.bases)
    return bases


def _lineage(name: str, bases: Dict[str, Set[str]]) -> Set[str]:
    """``name`` and every class it inherits from, by name."""
    seen: Set[str] = set()
    stack = [name]
    while stack:
        current = stack.pop()
        if current not in seen:
            seen.add(current)
            stack.extend(bases.get(current, ()))
    return seen


def _can_mean(use: Use, definition: Definition, bases: Dict[str, Set[str]]) -> bool:
    """Whether ``use`` may read ``definition``: a bare name reads no method, ``K.name`` only ``K``'s."""
    if use.qualifier is None:
        return definition.owner is None
    if use.qualifier in bases:
        return definition.owner is not None and definition.owner.rsplit(".", 1)[1] in _lineage(use.qualifier, bases)
    return True


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
    callers = list(_caller_files())
    bases = _class_bases(callers)
    uses: Dict[str, List[Tuple[Path, Use]]] = defaultdict(list)
    for path in callers:
        for use in _uses(path):
            uses[use.name].append((path, use))
    readers = {
        definition: [(path, use.line) for path, use in uses[definition.name] if _can_mean(use, definition, bases)]
        for definition in definitions
    }

    dead: Set[Definition] = set()
    while True:
        newly_dead = {
            definition
            for definition in definitions
            if definition not in dead
            and definition.qualname not in allowlist
            and all(
                definition.contains(path, line) or any(other.contains(path, line) for other in dead)
                for path, line in readers[definition]
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
    return frozenset(use.name for path in _test_files() for use in _uses(path))


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
# string key of a dict that the same function unpacks with ``**`` into such
# a call — a dict display, ``d["k"] = ...`` or ``d.setdefault("k", ...)``
# (the CLI builds its ``QueryService`` options as a dict).  Inside a class,
# ``cls(...)`` calls that class.  Any other string literal keeps nothing.
# Every other option becomes a module constant.  Test seams, fixture options
# and the advisor thresholds ROADMAP item 13 replaces with one cost function
# stay in ``OPTION_ALLOWLIST``, each with its reason; a test must set each
# of them through the same callee.

_ITEM_13 = "advisor threshold: item 13 replaces the advisors' thresholds with one cost function"

OPTION_ALLOWLIST = {
    "repro.closure.warshall.bfs_closure(use_compact)": "test seam: pins the dict or compact path so the equivalence tests compare both",
    "repro.closure.warshall.dijkstra_closure(use_compact)": "test seam: pins the dict or compact path so the equivalence tests compare both",
    "repro.closure.warshall.warshall_closure(use_compact)": "test seam: pins the dict or compact path so the equivalence tests compare both",
    "repro.experiments.tables.run_table1(config)": "test seam: the table tests run the paper's workload at a small scale",
    "repro.experiments.tables.run_table2(config)": "test seam: the table tests run the paper's workload at a small scale",
    "repro.experiments.tables.run_table3(config)": "test seam: the table tests run the paper's workload at a small scale",
    "repro.generators.structured.chain_graph(symmetric)": "fixture option: the one-way chain of the reachability tests",
    "repro.generators.structured.cycle_graph(symmetric)": "fixture option: the one-way cycle of the closure and traversal tests",
    "repro.generators.structured.two_cluster_dumbbell(bridge_nodes)": "fixture option: the two-bridge dumbbell of the disconnection-set tests",
    "repro.graph.compact.CompactGraph.from_edges(nodes)": "oracle: the per-edge build interns the digraph's nodes first, as the bulk build must",
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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _scope_nodes(scope: ast.AST) -> List[ast.AST]:
    """The nodes of ``scope`` outside the functions and classes nested in it."""
    found, stack = [], list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        found.append(node)
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return found


def _string(node: Optional[ast.AST]) -> Optional[str]:
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def _dict_keys(node: ast.AST) -> Iterable[Tuple[str, str]]:
    """Yield ``(variable, key)`` for ``d = {"k": ...}``, ``d["k"] = ...`` and ``d.setdefault("k", ...)``."""
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and isinstance(node.value, ast.Dict):
                for key in node.value.keys:
                    if _string(key) is not None:
                        yield target.id, _string(key)
            elif isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name) and _string(target.slice):
                yield target.value.id, _string(target.slice)
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "setdefault"
        and isinstance(node.func.value, ast.Name)
        and node.args
        and _string(node.args[0]) is not None
    ):
        yield node.func.value.id, _string(node.args[0])


def _scope_option_uses(scope: ast.AST, owner: Optional[str]) -> Iterable[Tuple[str, str]]:
    nodes = _scope_nodes(scope)
    unpacked: Dict[str, Set[str]] = defaultdict(set)
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        function = node.func
        callee = (
            function.id
            if isinstance(function, ast.Name)
            else function.attr if isinstance(function, ast.Attribute) else ""
        )
        if callee == "cls" and owner is not None:
            callee = owner
        for keyword in node.keywords:
            if keyword.arg is not None:
                yield callee, keyword.arg
            elif isinstance(keyword.value, ast.Dict):
                yield from ((callee, _string(key)) for key in keyword.value.keys if _string(key) is not None)
            elif isinstance(keyword.value, ast.Name):
                unpacked[keyword.value.id].add(callee)
    for node in nodes:
        for variable, key in _dict_keys(node):
            yield from ((callee, key) for callee in unpacked.get(variable, ()))
        if isinstance(node, _SCOPES):
            yield from _scope_option_uses(node, node.name if isinstance(node, ast.ClassDef) else owner)


def _option_uses(path: Path) -> Iterable[Tuple[str, str]]:
    """Yield ``(callee, keyword)`` per keyword argument and per key of a dict a call unpacks.

    A key counts only if the function that holds the dict unpacks it with
    ``**`` into the call; inside a class, ``cls(...)`` calls the class.
    """
    return _scope_option_uses(ast.parse(path.read_text(), str(path)), None)


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
    ]


@functools.lru_cache(maxsize=None)
def _options_tests_set() -> FrozenSet[Tuple[str, str]]:
    return frozenset(use for path in _test_files() for use in _option_uses(path))


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
    (option,) = [option for _, option in _all_options() if option.qualname == qualname]
    assert (option.callee, option.keyword) in _options_tests_set(), f"no test sets {qualname}: make it a constant"


# ------------------------------------------------------------- option budget
#
# The option count (keyword-only defaults plus ``*Config`` fields) and both
# allowlists, pinned like a work budget.  An option a caller sets raises
# ``OPTION_BUDGET`` with its reason in CHANGES.md; one that goes lowers it.

OPTION_BUDGET = 207
OPTION_ALLOWLIST_BUDGET = 22
ALLOWLIST_BUDGET = 16


@pytest.mark.parametrize(
    "name, count, budget",
    [
        ("options", lambda: len(_all_options()), OPTION_BUDGET),
        ("OPTION_ALLOWLIST", lambda: len(OPTION_ALLOWLIST), OPTION_ALLOWLIST_BUDGET),
        ("ALLOWLIST", lambda: len(ALLOWLIST), ALLOWLIST_BUDGET),
    ],
    ids=["options", "OPTION_ALLOWLIST", "ALLOWLIST"],
)
def test_the_option_count_and_the_allowlists_stay_in_budget(name, count, budget):
    assert count() == budget, (
        f"the {name} count moved: update its budget and give the reason in CHANGES.md"
    )


# ------------------------------------------------------------- the rules pinned


def _option_uses_of(tmp_path: Path, source: str) -> Set[Tuple[str, str]]:
    path = tmp_path / "caller.py"
    path.write_text(source)
    return set(_option_uses(path))


def test_a_key_of_a_dict_unpacked_into_a_call_sets_an_option(tmp_path):
    uses = _option_uses_of(
        tmp_path,
        "def build(graph):\n"
        "    options = {'workers': 2}\n"
        "    return QueryService(graph, **options)\n",
    )
    assert ("QueryService", "workers") in uses


def test_a_key_assigned_to_a_dict_unpacked_into_a_call_sets_an_option(tmp_path):
    uses = _option_uses_of(
        tmp_path,
        "def build(graph):\n"
        "    options = {}\n"
        "    options['cache_size'] = 8\n"
        "    return QueryService(graph, **options)\n",
    )
    assert ("QueryService", "cache_size") in uses


def test_a_key_of_a_document_dict_sets_no_option(tmp_path):
    uses = _option_uses_of(
        tmp_path,
        "def report():\n"
        "    return {'capacity': 3}\n"
        "\n"
        "def build(options):\n"
        "    return SLOMonitor(**options)\n",
    )
    assert all(keyword != "capacity" for _, keyword in uses)


def test_setdefault_sets_an_option(tmp_path):
    uses = _option_uses_of(
        tmp_path,
        "def build(path, **kwargs):\n"
        "    kwargs.setdefault('compact_sites', True)\n"
        "    return QueryService(path, **kwargs)\n",
    )
    assert ("QueryService", "compact_sites") in uses


def test_cls_inside_a_class_calls_the_class(tmp_path):
    uses = _option_uses_of(
        tmp_path,
        "class QueryService:\n"
        "    @classmethod\n"
        "    def from_snapshot(cls, path):\n"
        "        options = {'version_vector': None}\n"
        "        return cls(path, **options)\n",
    )
    assert ("QueryService", "version_vector") in uses


@pytest.mark.parametrize(
    "keyword",
    [
        "workers",
        "cache_size",
        "auto_refragment",
        "refragment_cadence",
        "placement",
        "compact_sites",
        "version_vector",
        "delta_sequence",
    ],
)
def test_the_cli_and_from_snapshot_set_the_service_options(keyword):
    assert f"repro.service.server.QueryService({keyword})" not in unset_options(allowlist=())


def _keeps(tmp_path: Path, source: str, qualname: str) -> bool:
    """Whether a caller made of ``source`` keeps the definition ``qualname`` (``module.[Class.]name``)."""
    path = tmp_path / "caller.py"
    path.write_text(source)
    parts = qualname.split(".")
    owner = ".".join(parts[:-1]) if len(parts) > 2 else None
    definition = Definition(qualname, parts[-1], tmp_path / "defined.py", 1, 1, owner)
    bases = _class_bases([path])
    return any(use.name == definition.name and _can_mean(use, definition, bases) for use in _uses(path))


def test_a_bare_name_keeps_no_method(tmp_path):
    source = "rows = reversed([1, 2])\n"
    assert not _keeps(tmp_path, source, "m.DiGraph.reversed")
    assert _keeps(tmp_path, source, "m.reversed")


def test_a_class_read_keeps_only_that_class_and_its_bases(tmp_path):
    source = (
        "class Mine:\n    pass\n"
        "class Other:\n    pass\n"
        "class Sub(Mine):\n    pass\n"
        "Other.from_dict({})\n"
    )
    assert _keeps(tmp_path, source, "m.Other.from_dict")
    assert not _keeps(tmp_path, source, "m.Mine.from_dict")
    assert _keeps(tmp_path, source + "Sub.from_dict({})\n", "m.Mine.from_dict")
    assert _keeps(tmp_path, "value.from_dict({})\n", "m.Mine.from_dict")
