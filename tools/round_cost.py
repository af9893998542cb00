"""Cost of the decision loop in microseconds per seed-round, for each variant.

Usage (from the repository root):

    PYTHONPATH=src python tools/round_cost.py

Each variant runs S = 3 seeds in lockstep through algorithm.run_seeds on
synthetic data (N = 6 units on the default ring, d = 4, T = 2048, the box
[-0.15, 0.15]^4 in the ball of its corner norm, the preset parameters c = 0.5
or rho = 1) with BLAS pinned to one thread. The streams and schedules are
built once and are not timed. A run is one run_seeds call; the figure is the
median of five runs divided by S * T. The host's speed drifts, so compare only
figures taken side by side on one machine.
"""

from __future__ import annotations

import os

# The pins must be in the environment before numpy loads its BLAS.
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import statistics
import sys
import time

from netoco.algorithm import VARIANTS, make_schedule, run_seeds, variant_spec
from netoco.metrics import checkpoint_grid
from netoco.network import default_ring_6
from netoco.problems import BoxConstraintSet, synthetic_stream

SEEDS = (1, 2, 3)
UNITS, DIMENSION, HORIZON = 6, 4, 2048
RUNS = 5


def round_cost(variant: str) -> float:
    """Median microseconds per seed-round of run_seeds over RUNS runs."""
    strongly = variant_spec(variant).strongly_convex
    box = BoxConstraintSet(-0.15, 0.15, DIMENSION)
    radius = box.max_vertex_norm()
    rho = 1.0 if strongly else 0.0
    streams = [synthetic_stream(UNITS, DIMENSION, HORIZON, rho, seed) for seed in SEEDS]
    schedules = [
        make_schedule(
            variant, p=box.count, G=max(stream.bounds(radius)[0], box.gradient_bound),
            radius=radius, horizon=HORIZON, c=None if strongly else 0.5,
            sigma=stream.strong_convexity if strongly else None,
        )
        for stream in streams
    ]
    topology, checkpoints = default_ring_6(), checkpoint_grid(HORIZON)
    times = []
    for _ in range(RUNS):
        start = time.perf_counter()
        run_seeds(streams, topology, schedules, box, SEEDS, checkpoints)
        times.append(time.perf_counter() - start)
    return statistics.median(times) / (len(SEEDS) * HORIZON) * 1e6


def main(argv) -> int:
    if argv:
        raise SystemExit(f"usage: {sys.argv[0]}")
    for variant in VARIANTS:
        print(f"{variant:<24} {round_cost(variant):6.1f} us per seed-round")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
