"""Functions of netoco whose body the benchmark's traffic never executes.

Usage (from the repository root):

    PYTHONPATH=src python tools/traffic.py

The traffic is every preset at T = 2048 with seeds 1 and 2 (as
tools/golden_digests.py runs them) and every scenario file under
perfbench/scenarios/, each through validate_scenario and run_suite (CSVs go
to a temporary directory), plus one `netoco presets` call. The standard
library's trace module counts the lines executed. A function counts as run
when any statement of its own body ran; nested functions are judged apart.
Prints one `module.qualname (file:line)` per function that never ran, then
their number. Reads perfbench/ and writes nothing there. A pass took 4.5 to
5.4 s on a 2-core x86-64 host.

Exits 1, naming them, when a never-run function lies outside netoco.reference
(the per-unit oracle the tests compare the kernel with) and outside
LIBRARY_API, when a LIBRARY_API name is not a never-run function (it was
renamed, deleted or now runs), or when a LIBRARY_API name lies in
netoco.reference, which needs no declaration: the run-path modules hold what
the benchmark runs, and what it does not run is declared there as library API
or a safety branch.
"""

from __future__ import annotations

import os

# The pins must be in the environment before numpy loads its BLAS.
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import ast
import contextlib
import io
import sys
import sysconfig
import tempfile
import trace
from pathlib import Path

SCENARIOS = Path(__file__).resolve().parent.parent / "perfbench" / "scenarios"
HORIZON = 2048
SEED_COUNT = 2

# Never-run functions the run-path modules keep on purpose, each group under its reason.
# netoco.reference needs no entry: none of its functions has to run.
LIBRARY_API = (
    # Overflow branches the benchmark's finite data never reach.
    "netoco.algorithm._overflow_factors",
    # The error of a comparator solve that does not converge; the benchmark's solves all do.
    "netoco.metrics.ConvergenceError.__init__",
    # A step size by round and the guarantee bounds, for library use (README).
    "netoco.algorithm.HyperSchedule.eta",
    "netoco.metrics.BoundConstants.sreg_bound",
    "netoco.metrics.BoundConstants.cacv_bound",
    "netoco.metrics.bound_constants",
    # Graph facts for checking a topology by hand.
    "netoco.network.Graph.degree",
    "netoco.network.Graph.neighbors",
    "netoco.network.Graph.max_degree",
    "netoco.network.TopologySchedule.zeta",
    "netoco.network.TopologySchedule.weights_at",
    "netoco.network.product_deviation",
    # The constraint interface the kernel duck-types, and the box's per-constraint forms.
    "netoco.problems.ConstraintSet.__init__",
    "netoco.problems.ConstraintSet.count",
    "netoco.problems.ConstraintSet.value",
    "netoco.problems.ConstraintSet.gradient",
    "netoco.problems.ConstraintSet.values",
    "netoco.problems.ConstraintSet.positive_parts",
    "netoco.problems.ConstraintSet.positive_parts_rows",
    "netoco.problems.ConstraintSet.weighted_subgradient_rows",
    "netoco.problems.ConstraintSet.dual_pull_rows",
    "netoco.problems.ConstraintSet._check_index",
    "netoco.problems.BoxConstraintSet.value",
    "netoco.problems.BoxConstraintSet.gradient",
    "netoco.problems.BoxConstraintSet.values",
    # The box's dual pull as a call; the round loop writes it out, and picks it by its identity.
    "netoco.problems.BoxConstraintSet.dual_pull_rows",
    # Examples and rounds one at a time, over the arrays the run uses whole.
    "netoco.problems.RegressionExample.__post_init__",
    "netoco.problems.RegressionExample.dimension",
    "netoco.problems.RegressionStream.example",
    "netoco.problems.RegressionStream.round",
    "netoco.problems.RegressionStream._check_slot",
    # The libsvm writer that tools/make_datasets.py writes the bundled datasets through.
    "netoco.problems.serialize_libsvm",
)


def traffic():
    """Import netoco and run the traffic: functions that run at import count as run."""
    from netoco.bench import list_presets, load_config, preset_config, run_suite, validate_scenario
    from netoco.cli import main as cli_main

    configs = [preset_config(n, seed_count=SEED_COUNT, horizon=HORIZON) for n in list_presets()]
    configs += [load_config(path) for path in sorted(SCENARIOS.glob("*.ini"))]
    with tempfile.TemporaryDirectory() as out_dir:
        for config in configs:
            failures = validate_scenario(config)
            if failures:
                raise SystemExit(f"{config.name}: {'; '.join(failures)}")
            run_suite(config, out_dir=out_dir)
    with contextlib.redirect_stdout(io.StringIO()):
        cli_main(["presets"])


def functions(path: Path):
    """(qualname, line of the def, line numbers of the statements of its own body) per function."""
    found = []

    def own_lines(body):
        lines, pending = set(), list(body)
        while pending:
            node = pending.pop()
            lines.add(node.lineno)
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                pending.extend(child for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt))
        return lines

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = child.body
                if ast.get_docstring(child) is not None and len(body) > 1:
                    body = body[1:]
                found.append((prefix + child.name, child.lineno, own_lines(body)))
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif not isinstance(child, ast.expr):
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def main() -> int:
    paths = sysconfig.get_paths()
    tracer = trace.Trace(
        count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix, paths["stdlib"], paths["purelib"]]
    )
    tracer.runfunc(traffic)
    import netoco

    package = Path(netoco.__file__).resolve().parent
    executed = {}
    for (filename, line), _ in tracer.results().counts.items():
        executed.setdefault(Path(filename).resolve(), set()).add(line)
    never, undeclared, declared = [], [], set()
    for path in sorted(package.glob("*.py")):
        module = f"netoco.{path.stem}" if path.stem != "__init__" else "netoco"
        ran = executed.get(path, set())
        for qualname, line, body in functions(path):
            if not body & ran:
                entry = f"{module}.{qualname} ({path.relative_to(package.parent)}:{line})"
                never.append(entry)
                if f"{module}.{qualname}" in LIBRARY_API:
                    declared.add(f"{module}.{qualname}")
                elif module != "netoco.reference":
                    undeclared.append(entry)
    for entry in never:
        print(entry)
    print(f"{len(never)} function(s) never executed")
    stale = [name for name in LIBRARY_API if name not in declared]
    redundant = [name for name in LIBRARY_API if name.startswith("netoco.reference.")]
    if undeclared:
        print(f"{len(undeclared)} of them outside netoco.reference and LIBRARY_API:")
        for entry in undeclared:
            print(entry)
    if stale:
        print(f"{len(stale)} LIBRARY_API name(s) not a never-run function:")
        for name in stale:
            print(name)
    if redundant:
        print(f"{len(redundant)} LIBRARY_API name(s) in netoco.reference, which needs no declaration:")
        for name in redundant:
            print(name)
    return 1 if undeclared or stale or redundant else 0


if __name__ == "__main__":
    sys.exit(main())
