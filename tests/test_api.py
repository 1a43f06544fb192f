"""The public API, pinned by name.

Adding or deleting a public name is a visible diff here.  The benchmark in
``perfbench/`` imports several of these names (``n_junctions``,
``n_sources``, ``node_degree``, ``surrogate_allocation``, ...), so deleting
one of them fails this test before it breaks the benchmark.
"""

import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import wdsres

PACKAGE = Path(wdsres.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402

EXPORTS = [
    "BaselineInfeasibleError", "BinaryStateSeries", "CLUSTER_FEATURES",
    "CatalogSummary", "ClusteringResult", "ComputationError", "CorrelationMatrix", "Event", "FLAG_COLUMNS", "FlowAllocation", "GAMMA_W",
    "HydraulicSeries", "Indicator", "InfeasibleDesignError", "InfiniteResilienceError",
    "Junction", "MC_METRICS", "Merge", "MetricRecord", "MetricValue", "MonteCarloResult",
    "Network", "Pipe", "Pump", "ResilienceError", "ScenarioSpec", "Source",
    "UndefinedInputError", "ValidationError", "WeightedPath", "WprChecklist",
    "allocate_flows", "apply_scenario", "balaei_aggregate", "buffering_capacity",
    "classify_states", "connectivity_buffering", "connectivity_feasibility",
    "cut_clusters", "demand_weighted_index", "dendrogram_export",
    "flow_based_resilience", "hashimoto_recovery", "k_shortest_paths", "load_answers",
    "load_catalog", "load_checklist", "load_indicators", "load_network", "load_scenario",
    "load_series", "monte_carlo", "network_from_dict", "node_index_table",
    "node_resilience_index", "partition_agreement", "pearson_matrix",
    "pipe_fragility", "pipe_resistance", "reference_agreement", "save_network",
    "save_series", "scenario_from_dict", "summary_counts", "supply_buffering",
    "supply_feasibility", "surrogate_allocation", "todini_index", "trimmed_mean_index",
    "user_functionality", "user_severity", "ward_clustering", "ward_linkage", "wpr_score",
    "zhuang_availability",
]

MEMBERS = {
    wdsres.Network: [
        "digest", "incident_pipes", "is_node", "junction", "junction_ids", "junctions",
        "n_junctions", "n_sources", "node_degree", "node_ids", "pipe",
        "pipe_ids", "pipes", "pump", "pump_ids", "pumps", "reachable_from_sources",
        "source", "source_ids", "sources", "to_dict", "total_design_demand",
        "validate_failed_sets",
    ],
    wdsres.HydraulicSeries: [
        "delivered", "demand", "digest", "head", "n_steps", "node_ids", "node_index",
        "required_head", "system_ratio",
    ],
    wdsres.FlowAllocation: [
        "delivered", "demands", "pipe_flows", "source_outflows", "total_delivered",
        "total_demand",
    ],
    wdsres.MonteCarloResult: ["metric", "n", "seed", "summary", "to_dict", "values"],
    wdsres.BinaryStateSeries: ["digest", "per_node", "states", "threshold"],
    wdsres.MetricValue: [
        "inputs_digest", "name", "nominal_range", "to_dict", "value", "warnings",
    ],
    wdsres.ScenarioSpec: ["events", "horizon", "seed", "to_dict"],
    wdsres.WprChecklist: ["criteria", "names", "total"],
}

# the functions whose options were deleted, so that bringing one back is a diff
PARAMETERS = {
    "allocate_flows": ["net", "failed_pipes", "demand_factors", "supply_factors"],
    "surrogate_allocation": ["net", "failed_pipes", "demand_factors", "supply_factors"],
    "apply_scenario": ["net", "spec"],
    "monte_carlo": ["net", "spec", "n", "metric", "exhaustive", "threshold"],
    "node_resilience_index": ["net", "node_id", "k"],
    "demand_weighted_index": ["net", "node_id", "k"],
    "node_index_table": ["net", "k"],
    "ward_clustering": ["records", "k"],
    "pearson_matrix": ["records"],
    "cut_clusters": ["merges", "k"],
    "dendrogram_export": ["result", "path"],
    "ClusteringResult": ["leaf_names", "merges", "labels"],
    "CorrelationMatrix": ["labels", "values"],
    "CatalogSummary": ["flag_counts", "function_histogram", "property_histogram"],
    "load_network": ["path"],
    "network_from_dict": ["data"],
}


def test_package_exports():
    # exports load on first use, so vars(wdsres) holds only those touched so far
    assert sorted(wdsres.__all__) == sorted(EXPORTS)
    public = sorted(
        name for name in dir(wdsres)
        if not name.startswith("_") and not isinstance(getattr(wdsres, name), types.ModuleType)
    )
    assert public == sorted(EXPORTS)


def test_each_export_is_what_its_defining_module_binds():
    for name in EXPORTS:
        value = getattr(wdsres, name)
        module = importlib.import_module(f"wdsres.{wdsres._EXPORTS[name]}")
        assert value is vars(module)[name], name
        assert vars(wdsres)[name] is value, name  # kept, so the next lookup is a plain one
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == module.__name__, name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        wdsres.no_such_name


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from wdsres import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(EXPORTS)


def test_import_loads_no_submodule():
    probe = "import sys, wdsres; print(sorted(m for m in sys.modules if m.startswith('wdsres')))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert out.stdout.strip() == "['wdsres']"


@pytest.mark.parametrize("cls", list(MEMBERS), ids=lambda cls: cls.__name__)
def test_class_members(cls):
    # fields without a default are not class attributes, so add them by hand
    names = {f.name for f in dataclasses.fields(cls)} | set(dir(cls))
    assert sorted(n for n in names if not n.startswith("_")) == MEMBERS[cls]


@pytest.mark.parametrize("name", sorted(PARAMETERS))
def test_function_parameters(name):
    assert list(inspect.signature(getattr(wdsres, name)).parameters) == PARAMETERS[name]


def _unused_imports(path: Path) -> list[str]:
    """Names that the module at ``path`` imports but never reads.

    An import inside a function counts as used only where that function reads
    the name; ``__future__`` imports are compiler directives and exempt.
    """
    tree = ast.parse(path.read_text())
    unused = []
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        stack = list(scope.body)
        while stack:  # the scope's own statements, not those of the functions in it
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stack.extend(ast.iter_child_nodes(node))
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]  # "import a.b" binds "a"
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno}: {name}")
    return sorted(unused)


MODULES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert _unused_imports(path) == []


def _imported_modules(path: Path) -> set[str]:
    """Top-level names of the absolute imports in the module at ``path``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_only_the_input_boundary_imports_csv():
    assert [p.name for p in MODULES if "csv" in _imported_modules(p)] == ["inputs.py"]


@pytest.mark.parametrize("module", ["hashlib", "numbers"])
def test_only_the_input_boundary_imports_the_digest_and_integer_rules(module):
    # inputs.short_digest and inputs.is_integer are the only users
    assert [p.name for p in MODULES if module in _imported_modules(p)] == ["inputs.py"]


def test_only_the_network_module_reads_its_id_maps():
    # Network._by_id is the network's own index; other modules go through its lookups
    readers = [p.name for p in MODULES if any(
        isinstance(node, ast.Attribute) and node.attr == "_by_id"
        for node in ast.walk(ast.parse(p.read_text())))]
    assert readers == ["network.py"]


# public names that no code in the package or the benchmark names, and why each stays
UNNAMED = {
    "save_network": "the documented writer of the network format",
    "user_functionality": "Huizar's catalogued metric",
}


def _named(paths) -> set[str]:
    """Every name that the modules at ``paths`` read as a name or an attribute."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _is_click_command(node: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def _public_definitions(path: Path):
    """``(qualified name, name)`` of each public function, class and method
    that the module at ``path`` defines, click commands left out."""
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_") and not (
                isinstance(node, ast.FunctionDef) and _is_click_command(node)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member.name


def test_no_public_name_serves_only_the_tests():
    named = _named(MODULES) | _named(PERFBENCH.rglob("*.py"))
    for target in tracing.TARGETS:
        named.update(target.name.split("."))
    unnamed = sorted(f"{path.name}: {qualified}" for path in MODULES
                     for qualified, name in _public_definitions(path)
                     if name not in named and name not in UNNAMED)
    assert unnamed == []
