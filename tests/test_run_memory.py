"""What a run holds: each seed's stream once, one kernel block and O(K) metric rows.

The size check (bench._stream_failure) estimates a run as its streams plus one
128-round block of the kernel. The bounds, the dealing of dataset rows and
the step sizes work a block at a time and the finiteness check makes no
temporary, so the traced peak of a warm run stays close to that estimate,
and validate cannot pass a scenario that run cannot hold.
"""

import tracemalloc

import pytest

import netoco.bench
from netoco.bench import preset_config, run_suite

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
