"""What a run holds: each seed's stream once, one kernel block and O(K) metric rows.

The size check (bench._stream_failure) estimates a run as its streams plus one
128-round block of the kernel. The bounds, the dealing of dataset rows and
the step sizes work a block at a time and the finiteness check makes no
temporary, so the traced peak of a warm run stays close to that estimate,
and validate cannot pass a scenario that run cannot hold. A synthetic stream
is drawn a 1024-round chunk at a time, so drawing it holds no more than its
own arrays and one chunk's draw.
"""

import tracemalloc

import pytest

import netoco.bench
from netoco.bench import preset_config, run_suite
from netoco.problems import synthetic_stream

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
