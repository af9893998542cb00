"""Cost of the decision loop in reference microseconds per seed-round, for each variant.

Usage (from the repository root):

    PYTHONPATH=src python tools/round_cost.py

Each variant runs the 3 seeds of one synthetic preset at T = 2048 in lockstep
through algorithm.run_seeds, with BLAS pinned to one thread. The streams and
schedules are built once, as run_suite builds them, and are not timed. A run
is one run_seeds call, bracketed by the benchmark's reference slices
(perfbench/run.py's bracketed and reference_seconds): its time times
REF_SLICE_S over the mean slice time around it is its time in reference
seconds, which discounts the drift of the host's speed. The tool prints the
median and the quartiles of RUNS runs per variant, divided by S * T.
"""

from __future__ import annotations

import os

# The pins must be in the environment before numpy loads its BLAS.
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from run import bracketed, reference_seconds  # noqa: E402  (perfbench/run.py)

from netoco.algorithm import run_seeds  # noqa: E402
from netoco.bench import _prepare, _seed_inputs, preset_config  # noqa: E402

PRESETS = ("synthetic-convex-c0.5", "synthetic-sc-rho1", "synthetic-bandit-c0.5", "synthetic-sc-bandit-rho1")
SEED_COUNT, HORIZON = 3, 2048
RUNS = 9


def round_cost(preset: str) -> tuple[str, list[float]]:
    """The preset's variant and the reference microseconds per seed-round of each of RUNS run_seeds calls."""
    config = preset_config(preset, seed_count=SEED_COUNT, horizon=HORIZON)
    failures, prepared = _prepare(config)
    if failures:
        raise SystemExit(f"{preset}: " + "; ".join(failures))
    inputs = [_seed_inputs(config, seed, prepared) for seed in config.seeds]
    streams = [stream for stream, _, _ in inputs]
    schedules = [schedule for _, _, schedule in inputs]

    def timed_run() -> float:
        start = time.perf_counter()
        run_seeds(streams, config.topology, schedules, prepared.constraints, config.seeds, prepared.checkpoints)
        return time.perf_counter() - start

    costs = []
    for _ in range(RUNS):
        seconds, slice_s = bracketed(timed_run)
        costs.append(reference_seconds(seconds, slice_s) / (SEED_COUNT * HORIZON) * 1e6)
    return config.variant, costs


def main(argv) -> int:
    if argv:
        raise SystemExit(f"usage: {sys.argv[0]}")
    print(f"{'variant':<24} {'median':>7} {'q1':>7} {'q3':>7}  (reference us per seed-round)")
    for preset in PRESETS:
        variant, costs = round_cost(preset)
        q1, median, q3 = statistics.quantiles(costs, n=4)
        print(f"{variant:<24} {median:7.2f} {q1:7.2f} {q3:7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
