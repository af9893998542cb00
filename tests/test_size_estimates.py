"""What the size checks count: the kernel's block arrays beside the streams,
and an explicit topology's weight matrices."""

import math
import os
import tracemalloc
from dataclasses import replace

import pytest

import netoco.bench
from netoco.algorithm import block_bytes, run_seeds
from netoco.bench import _prepare, _seed_inputs, load_config, preset_config, validate_scenario
from netoco.network import Graph, TopologySchedule

SMALL_RUN = "[algorithm]\nvariant = convex-full\nc = 0.5\nhorizon = 128\n[run]\nseeds = 1\n"


def ring(units):
    return " ".join(f"{i}-{i % units + 1}" for i in range(1, units + 1))


def test_the_pairwise_residuals_of_a_block_count_against_memory(tmp_path):
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    # The fewest units whose one (128, 1, N, N) residual array exceeds memory.
    units = math.isqrt(memory // (128 * 8)) + 1
    assert units * units * 8 <= memory  # the ring's weights fit
    assert 128 * units * (4 + 1) * 8 <= memory  # so does the seed's stream
    path = tmp_path / "wide-ring.ini"
    path.write_text(
        f"[problem]\nunits = {units}\n[topology]\ngraphs = {ring(units)}\n" + SMALL_RUN,
        encoding="utf-8",
    )
    [failure] = validate_scenario(load_config(path))
    assert f"horizon = 128 for one seed, units = {units} and dimension = 4 needs" in failure
    assert "GiB of stream data and block arrays" in failure
    assert "GiB of physical memory" in failure


@pytest.mark.parametrize("preset", ["synthetic-convex-c0.5", "synthetic-sc-bandit-rho1"])
def test_block_bytes_is_what_run_seeds_allocates(preset):
    # 64 units on a ring: the (B, S, N, N) arrays of a block are most of it, as at scale.
    units = 64
    edges = tuple((i, i % units + 1) for i in range(1, units + 1))
    topology = TopologySchedule([Graph(units, edges)], window=1)
    config = replace(
        preset_config(preset, seed_count=2, horizon=512), n_units=units, topology=topology
    )
    failures, prepared = _prepare(config)
    assert failures == []
    inputs = [_seed_inputs(config, seed, prepared) for seed in config.seeds]
    tracemalloc.start()
    try:
        run_seeds(
            [stream for stream, _, _ in inputs], config.topology,
            [schedule for _, _, schedule in inputs], prepared.constraints, config.seeds,
            prepared.checkpoints,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    estimate = block_bytes(2, units, 4, prepared.constraints.count, 512)
    assert 0.8 * estimate <= peak <= 1.25 * estimate


def test_an_explicit_topology_counts_one_matrix_per_graph(tmp_path, monkeypatch):
    """The count is what loading holds at its peak: the weights and a few small arrays."""
    units = 400
    needs = []
    check = netoco.bench._memory_failure

    def recording(need, what, kind):
        needs.append((need, kind))
        return check(need, what, kind)

    monkeypatch.setattr(netoco.bench, "_memory_failure", recording)
    path = tmp_path / "three-graphs.ini"
    graphs = f"{ring(units)} | 1-2 3-4 | 5-1"
    path.write_text(f"[problem]\nunits = {units}\n[topology]\ngraphs = {graphs}\n" + SMALL_RUN, encoding="utf-8")
    load_config(path)
    need = 3 * units * units * 8
    assert needs == [(need, "mixing weights")]
    tracemalloc.start()
    try:
        load_config(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert need <= peak <= 1.1 * need
