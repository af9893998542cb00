"""The seed-batched round kernel against per-seed runs and the round functions."""

import numpy as np
import pytest

from netoco.algorithm import (
    _check_in_ball,
    _sphere_block,
    _sphere_rngs,
    initial_state,
    make_schedule,
    run_experiment,
    run_round_bandit,
    run_round_full,
    run_seeds,
    sample_unit_sphere,
)
from netoco.metrics import checkpoint_series, communication_cost, metric_series
from netoco.network import default_ring_6
from netoco.problems import BoxConstraintSet, synthetic_stream

# Longer than two blocks of the kernel, so block boundaries are crossed.
HORIZON = 300
# Shorter than a block, exactly one block, one round past it, and several blocks.
HORIZONS = (1, 128, 129, HORIZON)
VARIANTS = ("convex-full", "strongly-convex-full", "convex-bandit", "strongly-convex-bandit")


def checkpoints_for(horizon):
    return tuple(T for T in (1, 7, 128, 129, 256) if T < horizon) + (horizon,)


def batch(variant, seeds, horizon=HORIZON):
    box = BoxConstraintSet(-0.15, 0.15, 4)
    # A bandit schedule needs pi = 1 / (R T^b) < 1, so a one-round run needs R > 1.
    radius = box.max_vertex_norm() if horizon > 1 else 1.5
    rho = 1.0 if variant.startswith("strongly") else 0.0
    streams = [synthetic_stream(6, 4, horizon, rho=rho, seed=40 + s) for s in seeds]
    schedules = [
        make_schedule(
            variant,
            p=box.count,
            G=max(stream.gradient_bound(radius), box.gradient_bound),
            radius=radius,
            horizon=horizon,
            c=None if variant.startswith("strongly") else 0.75,
            sigma=stream.strong_convexity if variant.startswith("strongly") else None,
        )
        for stream in streams
    ]
    return streams, schedules, box


class TestContainmentCheck:
    def test_row_outside_the_ball_raises(self):
        rows = np.array([[0.0, 0.0], [0.3, 0.4]])  # second row has norm 0.5
        with pytest.raises(RuntimeError, match="containment"):
            _check_in_ball(rows, 0.4)

    def test_rows_on_the_boundary_pass(self):
        _check_in_ball(np.array([[0.3, 0.4], [0.0, -0.5]]), 0.5)


class TestSphereBlock:
    def test_matches_the_scalar_sampler(self):
        seeds = (3, 4)
        block = _sphere_block([_sphere_rngs(seed, 6) for seed in seeds], 50, 4)
        for s, seed in enumerate(seeds):
            for i, rng in enumerate(_sphere_rngs(seed, 6)):
                scalar = np.stack([sample_unit_sphere(rng, 4) for _ in range(50)])
                np.testing.assert_array_equal(block[:, s, i], scalar)

    def test_zero_draw_raises(self):
        class ZeroGaussians:
            def standard_normal(self, size):
                return np.zeros(size)

        with pytest.raises(RuntimeError, match="zero vector"):
            _sphere_block([[ZeroGaussians()]], 3, 4)


class TestRunSeeds:
    @pytest.mark.parametrize(
        ("variant", "horizon"),
        [
            # The HORIZON cases keep the ids they had before the horizon was a parameter.
            pytest.param(v, T, id=v if T == HORIZON else f"{v}-T{T}")
            for v in VARIANTS
            for T in HORIZONS
        ],
    )
    def test_batch_equals_per_seed_runs(self, variant, horizon):
        seeds = (1, 2, 5)
        streams, schedules, box = batch(variant, seeds, horizon)
        topology = default_ring_6()
        checkpoints = checkpoints_for(horizon)
        totals = run_seeds(streams, topology, schedules, box, seeds, checkpoints)
        comm = np.array([communication_cost(topology, T) for T in checkpoints], dtype=np.int64)
        for s, seed in enumerate(seeds):
            trajectory = run_experiment(streams[s], topology, schedules[s], box, seed=seed)
            alone = metric_series(trajectory, streams[s], box, checkpoints)
            batched = checkpoint_series(
                streams[s], box, checkpoints, totals.system_losses[:, s], totals.violations[:, s], comm
            )
            np.testing.assert_array_equal(batched.regrets, alone.regrets)
            np.testing.assert_array_equal(batched.sreg, alone.sreg)
            np.testing.assert_array_equal(batched.cacv, alone.cacv)
            np.testing.assert_array_equal(batched.comm_cost, alone.comm_cost)

    def test_schedules_may_differ_only_in_g(self):
        streams, schedules, box = batch("convex-full", (1, 2))
        other = make_schedule(
            "convex-full", p=box.count, G=schedules[1].G, radius=schedules[1].radius,
            horizon=HORIZON, c=0.5,
        )
        with pytest.raises(ValueError, match="only in G"):
            run_seeds(streams, default_ring_6(), [schedules[0], other], box, (1, 2), (HORIZON,))

    def test_checkpoints_past_the_horizon_are_rejected(self):
        streams, schedules, box = batch("convex-full", (1,))
        with pytest.raises(ValueError, match="checkpoints"):
            run_seeds(streams, default_ring_6(), schedules, box, (1,), (10, HORIZON + 1))


def chained_rounds_equal_the_kernel(variant, seed, horizon, run_round):
    streams, schedules, box = batch(variant, (seed,), horizon)
    stream, hyper = streams[0], schedules[0]
    topology = default_ring_6()
    trajectory = run_experiment(stream, topology, hyper, box, seed=seed)
    state = initial_state(6, box, seed=seed, bandit=hyper.is_bandit)
    for t in range(1, horizon + 1):
        state, record = run_round(state, stream.round(t), topology.weights_at(t), hyper, box, t)
        if hyper.is_bandit:
            np.testing.assert_array_equal(record.queries, trajectory.queries[t - 1])
        np.testing.assert_array_equal(record.decisions, trajectory.decisions[t - 1])
        np.testing.assert_array_equal(record.losses, trajectory.losses[t - 1])
        np.testing.assert_array_equal(record.violations, trajectory.violations[t - 1])


@pytest.mark.parametrize("horizon", HORIZONS, ids=lambda T: f"T{T}")
def test_kernel_run_equals_chained_bandit_rounds(horizon):
    """run_experiment draws sphere directions in blocks; run_round_bandit draws
    them one round at a time from the same streams."""
    chained_rounds_equal_the_kernel("strongly-convex-bandit", 9, horizon, run_round_bandit)


@pytest.mark.parametrize("horizon", HORIZONS, ids=lambda T: f"T{T}")
def test_kernel_run_equals_chained_full_rounds(horizon):
    """run_experiment evaluates a block's losses in one call; run_round_full one round."""
    chained_rounds_equal_the_kernel("convex-full", 9, horizon, run_round_full)


def test_step_sizes_match_the_per_round_formulas():
    for variant, extra in (("convex-bandit", {"c": 0.75}), ("strongly-convex-full", {"sigma": 2.0})):
        hyper = make_schedule(variant, p=8, G=3.7, radius=0.3, horizon=HORIZON, **extra)
        etas, betas = hyper.step_sizes()
        assert etas.tolist() == [hyper.eta(t) for t in range(1, HORIZON + 1)]
        assert betas.tolist() == [hyper.beta(t) for t in range(1, HORIZON + 1)]
