"""netoco benchmark: one workload, measured for a fixed time, outputs checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload rate-suite --seed 0 --seconds 30 --trace 0

The benchmark imports netoco from ``src/`` of the checkout it sits in and
drives it only through ``preset_config``/``load_config``, ``validate_scenario``
and ``run_suite``. One caller runs the workload's scenarios back to back (a
closed loop of one client) in this process, with ``workers = 1`` and BLAS
pinned to one thread. A pass is one run of every scenario in the workload;
passes repeat until ``--seconds`` have elapsed. Between scenario runs, a fresh
process sets the workload up about once every PROBE_EVERY_S seconds, for
setup_s.

The host's speed drifts by tens of percent over minutes, so every timed call
(a scenario run or a set-up) is bracketed by reference slices: a fixed piece
of work shaped like netoco's decision loop, whose time stands for the host's
speed at that moment. A call's time in reference seconds is its measured time
times REF_SLICE_S over the mean slice time around it. The end-to-end times are
in reference seconds; the measured ones are printed beside them.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics from the traced
ones (see tracer.py); it also prints the end-to-end figures as text.

Every CSV a pass writes is hashed. A scenario fails if it raises, if its
digest differs from the run's first pass (so traced and untraced output must
match), or, for workload seeds recorded in digests.json, if its digest differs
from the recorded one. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# The pins must be in the environment before numpy loads its BLAS.
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)

import argparse
import contextlib
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from workloads import BENCH_DIR, ROOT, WORKLOADS, import_netoco, scenario_configs

WORK_DIR = ROOT / ".perfbench_work"
DIGESTS_FILE = BENCH_DIR / "digests.json"
PROBE_EVERY_S = 3.0
# Reference slices after a timed call last at least this share of the call.
REF_SHARE = 0.1
# About one reference slice's time on an idle core of the 2-core x86-64 VM the
# workloads were sized on, so that reference seconds read close to seconds there.
REF_SLICE_S = 0.015
VARIANTS = ("convex-full", "strongly-convex-full", "convex-bandit", "strongly-convex-bandit")
MB = 2**20


def reference_slice() -> float:
    """Seconds taken by one fixed slice of per-round numpy calls on 6 x 4 arrays.

    The garbage collector is off during the slice, so that its time does not
    depend on how many objects netoco keeps alive.
    """
    import numpy as np

    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        weights = np.full((6, 6), 1 / 6)
        gradient = np.linspace(-1.0, 1.0, 24).reshape(6, 4)
        x = np.zeros((6, 4))
        for t in range(1, 1500):
            x = weights @ x - (0.1 / t) * gradient
            x = x / np.maximum(1.0, np.linalg.norm(x, axis=1))[:, None]
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def bracketed(call):
    """Run call() between reference slices; return its result and the mean slice time.

    Two slices run before the call and at least one after it, and the slices
    after it last at least REF_SHARE of the call.
    """
    slices = [reference_slice(), reference_slice()]
    start = time.perf_counter()
    result = call()
    until = time.perf_counter() + REF_SHARE * (time.perf_counter() - start)
    slices.append(reference_slice())
    while time.perf_counter() < until:
        slices.append(reference_slice())
    return result, statistics.mean(slices)


def reference_seconds(seconds: float, slice_s: float) -> float:
    return seconds * REF_SLICE_S / slice_s


@contextlib.contextmanager
def output_dir(name: str):
    """A directory for CSVs under WORK_DIR, deleted afterwards with WORK_DIR if empty."""
    path = WORK_DIR / name
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using WORK_DIR
            WORK_DIR.rmdir()


@dataclass
class Pass:
    seconds: dict = field(default_factory=dict)  # scenario -> run_suite call to CSV written or raise
    ref_seconds: dict = field(default_factory=dict)  # scenario -> the same in reference seconds
    digests: dict = field(default_factory=dict)  # scenario -> SHA-256 of its CSV
    errors: dict = field(default_factory=dict)  # scenario -> traceback
    csv_bytes: int = 0
    tracer: object = None


def run_pass(api, configs, out_dir: Path, tracer=None, between=None) -> Pass:
    """Run every scenario once, timing each; call between() after each scenario."""
    result = Pass(tracer=tracer)
    for config in configs:

        def call():
            start = time.perf_counter()
            try:
                if tracer is None:
                    suite = api.run_suite(config, out_dir=out_dir)
                else:
                    with tracer.span("bench.run_suite", config.name):
                        suite = api.run_suite(config, out_dir=out_dir)
                return time.perf_counter() - start, suite, None
            except Exception:  # a failing scenario is counted; the workload goes on
                return time.perf_counter() - start, None, traceback.format_exc()

        (seconds, suite, error), slice_s = bracketed(call)
        result.seconds[config.name] = seconds
        result.ref_seconds[config.name] = reference_seconds(seconds, slice_s)
        if error is None:
            data = Path(suite.csv_path).read_bytes()
            result.digests[config.name] = hashlib.sha256(data).hexdigest()
            result.csv_bytes += len(data)
        else:
            result.errors[config.name] = error
        if between is not None:
            between()
    return result


def pass_seconds(passes, configs, reference=True) -> float:
    """Sum over scenarios of the median time of their runs, in reference or measured seconds."""
    times = [p.ref_seconds if reference else p.seconds for p in passes]
    return sum(statistics.median(t[c.name] for t in times) for c in configs)


def check_passes(passes, configs, recorded, numpy_version):
    """Failure messages, one per failed (pass, scenario)."""
    failures = []
    first = passes[0].digests
    expected = recorded["csv"] if recorded else {}
    for number, p in enumerate(passes, start=1):
        kind = "traced" if p.tracer is not None else "untraced"
        for config in configs:
            name = config.name
            where = f"pass {number} ({kind}), {name}"
            if name in p.errors:
                failures.append(f"{where}: raised\n{p.errors[name]}")
            elif name in expected and p.digests[name] != expected[name]:
                failures.append(
                    f"{where}: CSV SHA-256 {p.digests[name]} differs from the recorded "
                    f"{expected[name]} (numpy {numpy_version} here, "
                    f"digests recorded with numpy {recorded['numpy']})"
                )
            elif p.digests.get(name) != first.get(name):
                failures.append(f"{where}: CSV SHA-256 differs from pass 1 of this run")
    return failures


def recorded_digests(workload: str, seed: int):
    """{"numpy": version, "csv": {scenario: digest}} for a recorded seed, else None."""
    if not DIGESTS_FILE.is_file():
        return None
    table = json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))
    csv = table["workloads"].get(workload, {}).get(str(seed))
    return {"numpy": table["numpy"], "csv": csv} if csv else None


class SetupProbes:
    """setup_s: fresh processes that each set the workload up, spread over the run."""

    def __init__(self, workload: str, seed: int):
        self.command = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)]
        self.times = []  # measured seconds
        self.ref_times = []  # reference seconds
        self.last = time.perf_counter()

    def _set_up(self) -> float:
        """Seconds from process start until the set-up reports ready."""
        start = time.perf_counter()
        with subprocess.Popen(self.command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"error: setup probe exited with {child.returncode}")
        return elapsed

    def probe(self) -> None:
        seconds, slice_s = bracketed(self._set_up)
        self.times.append(seconds)
        self.ref_times.append(reference_seconds(seconds, slice_s))
        self.last = time.perf_counter()

    def probe_if_due(self) -> None:
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.probe()


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_pins": THREAD_PINS,
    }


def layer_metrics(traced, untraced, configs) -> dict:
    """Per-layer metrics: medians over traced passes of per-pass totals."""
    rounds = {v: sum(len(c.seeds) * c.horizon for c in configs if c.variant == v) for v in VARIANTS}
    scenarios = {v: {c.name for c in configs if c.variant == v} for v in VARIANTS}

    def per_pass(p):
        t = p.tracer
        values = {
            "algorithm.run_s": (t.layer("algorithm.run").seconds, "s"),
            "algorithm.trajectory_mb": (t.peak_bytes["algorithm.run"] / MB, "MB"),
            "network.mix_s": (t.layer("network.mix").seconds, "s"),
            "network.mix_calls": (t.layer("network.mix").calls, "count"),
            "metrics.series_s": (t.layer("metrics.series").seconds, "s"),
            "metrics.comparator_s": (t.layer("metrics.comparator").seconds, "s"),
            "metrics.comparator_calls": (t.layer("metrics.comparator").calls, "count"),
            "metrics.comparator_iters": (t.comparator_iters, "count"),
            "problems.stream_s": (t.layer("problems.stream").seconds, "s"),
            "problems.stream_mb": (t.peak_bytes["problems.stream"] / MB, "MB"),
            "problems.parse_s": (t.layer("problems.parse").seconds, "s"),
            "problems.parse_calls": (t.layer("problems.parse").calls, "count"),
            "bench.validate_s": (t.layer("bench.validate").seconds, "s"),
            "bench.self_s": (t.layer("bench.run_suite").self_seconds, "s"),
            "bench.csv_bytes": (p.csv_bytes, "bytes"),
        }
        for v in VARIANTS:
            seconds = t.layer("algorithm.run", scenarios[v]).seconds
            us = seconds / rounds[v] * 1e6 if rounds[v] else 0.0
            values[f"algorithm.us_per_seed_round.{v}"] = (us, "us")
        return values

    samples = [per_pass(p) for p in traced]
    metrics = {
        name: {"value": statistics.median(s[name][0] for s in samples), "unit": unit}
        for name, (_, unit) in samples[0].items()
    }
    overhead = pass_seconds(traced, configs) - pass_seconds(untraced, configs)
    metrics["tracing_overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")

    api = import_netoco()
    import numpy as np

    from tracer import Tracer

    configs = scenario_configs(api, args.workload, args.seed)
    probes = SetupProbes(args.workload, args.seed)
    untraced, traced = [], []
    with output_dir(f"{args.workload}-{os.getpid()}") as out_dir:
        start = time.perf_counter()
        while not untraced or time.perf_counter() - start < args.seconds:
            untraced.append(run_pass(api, configs, out_dir, between=probes.probe_if_due))
            if args.trace:
                tracer = Tracer()
                with tracer.installed():
                    traced.append(run_pass(api, configs, out_dir, tracer, probes.probe_if_due))
    if not probes.times:
        probes.probe()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB
    passes = [p for pair in zip(untraced, traced) for p in pair] if args.trace else untraced
    failures = check_passes(
        passes, configs, recorded_digests(args.workload, args.seed), np.__version__
    )
    for message in failures:
        print(f"FAILED {message}", file=sys.stderr)
    attempted = len(passes) * len(configs)

    wall_ref_s = pass_seconds(untraced, configs)
    wall_s = pass_seconds(untraced, configs, reference=False)
    seed_rounds = sum(len(c.seeds) * c.horizon for c in configs)
    end_to_end = {
        "wall_ref_s": {"value": wall_ref_s, "unit": "s"},
        "seed_rounds_per_ref_s": {"value": seed_rounds / wall_ref_s, "unit": "1/s"},
        "setup_s": {"value": statistics.median(probes.ref_times), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    measured = {
        "wall_s": {"value": wall_s, "unit": "s"},
        "seed_rounds_per_s": {"value": seed_rounds / wall_s, "unit": "1/s"},
        "setup_measured_s": {"value": statistics.median(probes.times), "unit": "s"},
    }
    per_layer = layer_metrics(traced, untraced, configs) if args.trace else {}

    print("environment " + json.dumps(environment(np), sort_keys=True))
    print(
        f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced and "
        f"{len(traced)} traced passes, {len(probes.times)} setup probes, "
        f"{seed_rounds} seed-rounds per pass, "
        f"failed_share {len(failures) / attempted:g} ({len(failures)}/{attempted})"
    )
    print("untraced pass walls (s): " + " ".join(f"{sum(p.seconds.values()):.3f}" for p in untraced))
    print("setup probes (s): " + " ".join(f"{t:.3f}" for t in probes.times))
    print(f"host slowdown: clock / reference seconds = {wall_s / wall_ref_s:.3f}")
    for name, metric in {**end_to_end, **measured, **per_layer}.items():
        print(f"  {name:<50} {metric['value']:>14.6g} {metric['unit']}")
    if args.trace:
        unmeasured = traced[0].tracer.unmeasured
        print("unmeasured (target missing): " + (", ".join(unmeasured) or "none"))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": per_layer if args.trace else end_to_end,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
