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
their number. Reads perfbench/ and writes nothing there. A pass took 11 s on
a 2-core x86-64 host.
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
    never = []
    for path in sorted(package.glob("*.py")):
        module = f"netoco.{path.stem}" if path.stem != "__init__" else "netoco"
        ran = executed.get(path, set())
        for qualname, line, body in functions(path):
            if not body & ran:
                never.append(f"{module}.{qualname} ({path.relative_to(package.parent)}:{line})")
    for entry in never:
        print(entry)
    print(f"{len(never)} function(s) never executed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
