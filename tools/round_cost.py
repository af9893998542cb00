"""Cost of the decision loop in microseconds per seed-round, for each variant.

Usage (from the repository root):

    PYTHONPATH=src python tools/round_cost.py

Each variant runs the 3 seeds of one synthetic preset at T = 2048 in lockstep
through algorithm.run_seeds, with BLAS pinned to one thread. The streams and
schedules are built once, as run_suite builds them, and are not timed. A run
is one run_seeds call; the figure is the median of five runs divided by S * T.
The host's speed drifts, so compare only figures taken side by side on one
machine.
"""

from __future__ import annotations

import os

# The pins must be in the environment before numpy loads its BLAS.
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import statistics
import sys
import time

from netoco.algorithm import run_seeds
from netoco.bench import _prepare, _seed_inputs, preset_config

PRESETS = ("synthetic-convex-c0.5", "synthetic-sc-rho1", "synthetic-bandit-c0.5", "synthetic-sc-bandit-rho1")
SEED_COUNT, HORIZON = 3, 2048
RUNS = 5


def round_cost(preset: str) -> tuple[str, float]:
    """The preset's variant and the median microseconds per seed-round of run_seeds over RUNS runs."""
    config = preset_config(preset, seed_count=SEED_COUNT, horizon=HORIZON)
    failures, prepared = _prepare(config)
    if failures:
        raise SystemExit(f"{preset}: " + "; ".join(failures))
    inputs = [_seed_inputs(config, seed, prepared) for seed in config.seeds]
    streams = [stream for stream, _, _, _ in inputs]
    schedules = [schedule for _, _, _, schedule in inputs]
    times = []
    for _ in range(RUNS):
        start = time.perf_counter()
        run_seeds(streams, config.topology, schedules, prepared.constraints, config.seeds, prepared.checkpoints)
        times.append(time.perf_counter() - start)
    return config.variant, statistics.median(times) / (SEED_COUNT * HORIZON) * 1e6


def main(argv) -> int:
    if argv:
        raise SystemExit(f"usage: {sys.argv[0]}")
    for preset in PRESETS:
        variant, cost = round_cost(preset)
        print(f"{variant:<24} {cost:6.1f} us per seed-round")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
