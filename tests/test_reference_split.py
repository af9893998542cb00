"""netoco.reference holds the per-unit algorithm and metrics that the kernel is
tested against, and only there: no run-path module imports it or keeps a copy
of what it defines, and the package exports its library API, the one call
that runs and scores a batch (checkpoint_series) among it.
"""

import ast
import types
from pathlib import Path

import pytest

import netoco
from netoco.problems import RegressionRound

PACKAGE = Path(netoco.__file__).resolve().parent
RUN_PATH = ("algorithm", "problems", "metrics", "network", "bench", "cli")

# What reference.py took from algorithm, then from metrics, then from problems, then the
# fresh-array forms of a round's loss values and gradients (RegressionRound's methods before)
# and of the mix (from network), then the contraction of mixing products (from network).
MOVED = (
    "project_ball", "sample_unit_sphere", "one_point_estimator", "augmented_lagrangian", "primal_direction",
    "dual_update", "RunState", "initial_state", "RoundRecord", "_round", "run_round_full", "run_round_bandit",
    "offline_comparator", "system_cumulative_losses", "regret", "sreg", "cacv",
    "LossOracle", "regression_loss", "clipped_subgradient",
    "loss_values", "loss_gradients", "consensus_mix",
    "product_deviation",
)

EXPORTS = {
    "BoundConstants", "BoxConstraintSet", "ConstraintSet", "ConvergenceError", "DatasetTable", "Graph",
    "HyperSchedule", "LossOracle", "MetricSeries", "RegressionStream",
    "ScenarioConfig", "TopologySchedule", "WeightMatrix", "averaged_metrics", "bound_constants", "cacv",
    "checkpoint_grid", "checkpoint_series", "clipped_subgradient", "communication_cost", "consensus_mix",
    "dataset_stream", "default_ring_6", "list_presets", "load_config", "make_schedule", "max_degree_weights",
    "offline_comparator", "offline_comparators", "one_point_estimator", "parse_libsvm", "preset_config",
    "product_deviation", "project_ball", "regression_loss", "regret", "run_suite",
    "sample_unit_sphere", "schedule_from_graphs", "serialize_libsvm", "sreg", "synthetic_stream",
    "validate_mixing", "verify_window_connectivity",
}


def parsed(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))


def imported_modules(node) -> list:
    """The absolute names of what an import statement in a netoco module may load."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        base = ".".join(filter(None, ["netoco" if node.level else "", node.module]))
        return [base] + [f"{base}.{alias.name}" for alias in node.names]
    return []


def imports_reference(node) -> bool:
    return any(f"{name}.".startswith("netoco.reference.") for name in imported_modules(node))


def top_level_names(tree) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    return names


@pytest.mark.parametrize(
    "source",
    [
        "from .reference import project_ball",
        "from . import reference",
        "import netoco.reference",
        "from netoco import reference",
    ],
)
def test_the_import_check_sees_relative_and_absolute_imports(source):
    assert imports_reference(ast.parse(source).body[0])


@pytest.mark.parametrize("module", RUN_PATH)
def test_no_run_path_module_imports_the_reference(module):
    offending = [ast.unparse(node) for node in ast.walk(parsed(module)) if imports_reference(node)]
    assert offending == []


@pytest.mark.parametrize("module", RUN_PATH)
def test_no_moved_name_is_left_in_a_run_path_module(module):
    assert top_level_names(parsed(module)) & set(MOVED) == set()


def test_the_reference_defines_every_moved_name_once():
    defined = [
        node.name for node in parsed("reference").body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    assert sorted(name for name in defined if name in MOVED) == sorted(MOVED)


def test_no_run_path_class_keeps_the_moved_loss_forms():
    """RegressionRound keeps only the system sums the run needs; the loss values and
    gradients on fresh arrays are reference.loss_values and loss_gradients."""
    assert not hasattr(RegressionRound, "values") and not hasattr(RegressionRound, "gradients")


def test_the_package_exports_its_library_api():
    exported = {
        name for name in dir(netoco)
        if not name.startswith("_") and not isinstance(getattr(netoco, name), types.ModuleType)
    }
    assert exported == EXPORTS
