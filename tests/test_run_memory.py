"""What a run holds: each seed's stream once, one kernel block and O(K) metric rows.

The size check (bench._stream_failure) estimates a run as its streams plus one
128-round block of the kernel. The bounds, the dealing of dataset rows and
the step sizes work a block at a time and the finiteness check makes no
temporary, so the traced peak of a warm run stays close to that estimate,
and validate cannot pass a scenario that run cannot hold. A synthetic stream
is drawn a 1024-round chunk at a time, so drawing it holds no more than its
own arrays and one chunk's draw. metric_series sums a stored trajectory a
block at a time, so it holds one block's products.
"""

import tracemalloc

import pytest

import netoco.bench
from netoco.algorithm import make_schedule, run_experiment
from netoco.bench import preset_config, run_suite
from netoco.metrics import metric_series
from netoco.network import Graph, schedule_from_graphs
from netoco.problems import BoxConstraintSet, synthetic_stream

CASES = [
    ("bodyfat-convex", 1),
    ("mg-sc", 1),
    ("synthetic-sc-bandit-rho1", 1),
    ("synthetic-convex-c0.5", 3),
]


@pytest.mark.parametrize("preset, seeds", CASES)
def test_a_runs_traced_peak_is_within_a_quarter_of_the_size_estimate(preset, seeds, monkeypatch):
    config = preset_config(preset, seed_count=seeds, horizon=8192)
    estimates = []
    check = netoco.bench._memory_failure

    def recording(need, what, kind):
        if kind == "stream data and block arrays":
            estimates.append(need)
        return check(need, what, kind)

    monkeypatch.setattr(netoco.bench, "_memory_failure", recording)
    run_suite(config, write=False)  # warm-up: first-call allocations are not the run's
    estimates.clear()
    tracemalloc.start()
    try:
        run_suite(config, write=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    [estimate] = estimates
    assert peak <= 1.25 * estimate, f"peak {peak / 2**20:.2f} MiB, estimate {estimate / 2**20:.2f} MiB"


def test_metric_series_holds_one_block_of_a_stored_run():
    """A stored 100-unit run is summed a 128-round block at a time, not as one
    (T, N, N) product: that product alone would take 312 MiB at T = 2048."""
    n, d, horizon = 100, 4, 2048
    stream = synthetic_stream(n, d, horizon, rho=1.0, seed=1)
    box = BoxConstraintSet(-0.15, 0.15, d)
    radius = box.max_vertex_norm()
    hyper = make_schedule(
        "strongly-convex-full", p=box.count, G=max(stream.bounds(radius)[0], box.gradient_bound),
        radius=radius, horizon=horizon, sigma=stream.strong_convexity,
    )
    ring = schedule_from_graphs([Graph(n, tuple((i, i % n + 1) for i in range(1, n + 1)))], window=1)
    trajectory = run_experiment(stream, ring, hyper, box)
    checkpoints = (512, 1024, 2048)
    metric_series(trajectory, stream, box, checkpoints)  # warm-up
    tracemalloc.start()
    try:
        metric_series(trajectory, stream, box, checkpoints)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 2**20, f"peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("horizon", [8192, 32768])
def test_a_synthetic_stream_holds_one_chunks_draw_above_its_arrays(horizon):
    """A chunk's (1024, d) uniform draw takes 32 KiB at d = 4; a unit's whole (T, d) draw
    would take 256 KiB at T = 8192 and 1 MiB at 32768."""
    synthetic_stream(1, 4, horizon, rho=0.0, seed=1)  # warm-up
    tracemalloc.start()
    try:
        stream = synthetic_stream(1, 4, horizon, rho=0.0, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    above = peak - stream.features.nbytes - stream.targets.nbytes
    assert above <= 64 * 2**10, f"{above / 2**10:.1f} KiB above the stream's arrays"
