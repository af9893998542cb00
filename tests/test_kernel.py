"""The seed-batched round kernel against per-seed runs and the round functions."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import netoco.algorithm as algorithm
from netoco.algorithm import _check_in_ball, _sphere_block, _sphere_rngs, make_schedule, run_experiment, run_seeds
from netoco.metrics import checkpoint_series, communication_cost, metric_series
from netoco.network import default_ring_6
from netoco.problems import BoxConstraintSet, ConstraintSet, synthetic_stream
from netoco.reference import initial_state, run_round_bandit, run_round_full, sample_unit_sphere

ROOT = Path(__file__).resolve().parent.parent

# Longer than two blocks of the kernel, so block boundaries are crossed.
HORIZON = 300
# Shorter than a block, exactly one block, one round past it, and several blocks.
HORIZONS = (1, 128, 129, HORIZON)
VARIANTS = ("convex-full", "strongly-convex-full", "convex-bandit", "strongly-convex-bandit")


def checkpoints_for(horizon):
    return tuple(T for T in (1, 7, 128, 129, 256) if T < horizon) + (horizon,)


def batch(variant, seeds, horizon=HORIZON, box=None, radius=None):
    box = BoxConstraintSet(-0.15, 0.15, 4) if box is None else box
    # A bandit schedule needs pi = 1 / (R T^b) < 1, so a one-round run needs R > 1.
    if horizon == 1:
        radius = 1.5
    elif radius is None:  # only a box has vertices
        radius = box.max_vertex_norm()
    rho = 1.0 if variant.startswith("strongly") else 0.0
    streams = [synthetic_stream(6, 4, horizon, rho=rho, seed=40 + s) for s in seeds]
    schedules = [
        make_schedule(
            variant,
            p=box.count,
            G=max(stream.bounds(radius)[0], box.gradient_bound),
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

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_schedules_may_differ_in_what_enters_only_the_steps(self, variant):
        """Seed 2's schedule has another G, and another a (convex) or sigma (strongly convex),
        than its stream gives; each seed of the batch still runs as it does alone."""
        seeds = (1, 2)
        streams, schedules, box = batch(variant, seeds)
        strongly = variant.startswith("strongly")
        first = schedules[0]
        schedules[1] = make_schedule(
            variant, p=first.p, G=1.5 * schedules[1].G, radius=first.radius, horizon=HORIZON, c=first.c,
            a=3.0, sigma=5.0 * schedules[1].sigma if strongly else None,
        )
        topology, checkpoints = default_ring_6(), checkpoints_for(HORIZON)
        totals = run_seeds(streams, topology, schedules, box, seeds, checkpoints)
        comm = np.array([communication_cost(topology, T) for T in checkpoints], dtype=np.int64)
        for s, seed in enumerate(seeds):
            alone = run_seeds(streams[s:s + 1], topology, schedules[s:s + 1], box, (seed,), checkpoints)
            np.testing.assert_array_equal(totals.system_losses[:, s], alone.system_losses[:, 0])
            np.testing.assert_array_equal(totals.violations[:, s], alone.violations[:, 0])
            trajectory = run_experiment(streams[s], topology, schedules[s], box, seed=seed)
            stored = metric_series(trajectory, streams[s], box, checkpoints)
            batched = checkpoint_series(
                streams[s], box, checkpoints, totals.system_losses[:, s], totals.violations[:, s], comm
            )
            np.testing.assert_array_equal(batched.regrets, stored.regrets)
            np.testing.assert_array_equal(batched.cacv, stored.cacv)

    @pytest.mark.parametrize(
        ("key", "variant", "changes", "value"),
        [
            ("bandit", "convex-full", {"variant": "convex-bandit"}, True),
            ("p", "convex-full", {"p": 9}, 9),
            ("T", "strongly-convex-full", {"horizon": HORIZON + 1}, HORIZON + 1),
            ("R", "strongly-convex-bandit", {"radius": 0.5}, 0.5),
            ("b", "convex-bandit", {"c": 0.9}, 0.9 / 3.0),
        ],
        ids=["feedback", "p", "T", "R", "b"],
    )
    def test_schedules_must_agree_on_what_the_rounds_share(self, key, variant, changes, value):
        """The rounds read the feedback, p, T, R and b (so pi, eps and the decision radius)
        from the first schedule; a batch whose schedules disagree on one is refused."""
        streams, schedules, box = batch(variant, (1, 2))
        first = schedules[0]
        fields = dict(p=first.p, G=first.G, radius=first.radius, horizon=HORIZON, c=first.c, sigma=first.sigma)
        fields.update(changes)
        other = make_schedule(fields.pop("variant", variant), **fields)
        with pytest.raises(ValueError, match="must agree on the feedback, p, T, R and b") as caught:
            run_seeds(streams, default_ring_6(), [first, other], box, (1, 2), (HORIZON,))
        # The message names the disagreeing value of schedule 1, and schedule 0's shared values.
        theirs, ours = str(caught.value).split("schedule 0 has")
        assert f"'{key}': {value!r}" in theirs.split("schedule 1 has")[1]
        assert f"'{key}': {value!r}" not in ours

    def test_checkpoints_past_the_horizon_are_rejected(self):
        streams, schedules, box = batch("convex-full", (1,))
        with pytest.raises(ValueError, match="checkpoints"):
            run_seeds(streams, default_ring_6(), schedules, box, (1,), (10, HORIZON + 1))


def chained_rounds_equal_the_kernel(variant, seed, horizon, run_round, box=None, radius=None):
    streams, schedules, box = batch(variant, (seed,), horizon, box, radius)
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
    return trajectory


@pytest.mark.parametrize("horizon", HORIZONS, ids=lambda T: f"T{T}")
def test_kernel_run_equals_chained_bandit_rounds(horizon):
    """run_experiment draws sphere directions in blocks; run_round_bandit draws
    them one round at a time from the same streams."""
    chained_rounds_equal_the_kernel("strongly-convex-bandit", 9, horizon, run_round_bandit)


@pytest.mark.parametrize("horizon", HORIZONS, ids=lambda T: f"T{T}")
def test_kernel_run_equals_chained_full_rounds(horizon):
    """run_experiment evaluates a block's losses in one call; run_round_full one round."""
    chained_rounds_equal_the_kernel("convex-full", 9, horizon, run_round_full)


@pytest.mark.parametrize(
    ("variant", "run_round"),
    [("convex-full", run_round_full), ("strongly-convex-bandit", run_round_bandit)],
    ids=["full", "bandit"],
)
def test_kept_blocks_equal_per_seed_runs_and_chained_rounds(variant, run_round):
    """The kernel runs its rounds in buffers; every block it yields must still
    hold its own rounds after later blocks were computed, so no array is
    reused across yields."""
    seeds = (1, 2)
    streams, schedules, box = batch(variant, seeds)
    topology = default_ring_6()
    blocks = list(algorithm._lockstep(streams, topology, schedules, box, seeds))
    assert [block[0] for block in blocks] == [0, 128, 256]
    for s, seed in enumerate(seeds):
        stream, hyper = streams[s], schedules[s]
        trajectory = run_experiment(stream, topology, hyper, box, seed=seed)
        state = initial_state(6, box, seed=seed, bandit=hyper.is_bandit)
        for start, block_losses, committed, violated, observed, queries in blocks:
            losses = block_losses.values(committed) if queries is None else observed
            for k in range(len(committed)):
                t = start + k + 1
                state, record = run_round(state, stream.round(t), topology.weights_at(t), hyper, box, t)
                kept = [
                    (committed[k, s], trajectory.decisions[t - 1], record.decisions),
                    (violated[k, s], trajectory.violations[t - 1], record.violations),
                    (losses[k, s], trajectory.losses[t - 1], record.losses),
                ]
                if queries is not None:
                    kept.append((queries[k, s], trajectory.queries[t - 1], record.queries))
                for block_rows, alone, chained in kept:
                    np.testing.assert_array_equal(block_rows, alone)
                    np.testing.assert_array_equal(block_rows, chained)


def generic_constraints():
    """Constraints with no closed forms in the kernel, and constraint gradients of
    norms other than 1; the first is violated at x = 0, so round 1 already has a
    violation while its duals, and so its pull, are still zero."""
    a1, a3 = np.array([2.0, 1.0, 0.0, -0.5]), np.array([0.0, 0.0, 3.0, 0.5])
    return ConstraintSet(
        4,
        values=[lambda x: 0.02 - a1 @ x, lambda x: x @ x - 0.01, lambda x: a3 @ x - 0.05],
        gradients=[lambda x: -a1, lambda x: 2.0 * x, lambda x: a3],
        gradient_bound=3.1,
    )


CONSTRAINT_SETS = {
    "generic": lambda: (generic_constraints(), 0.3),
    # x = 0 lies below every lower face.
    "box-above-zero": lambda: (BoxConstraintSet(0.05, 0.2, 4), None),
}


@pytest.mark.parametrize("horizon", HORIZONS, ids=lambda T: f"T{T}")
@pytest.mark.parametrize(
    ("variant", "run_round"),
    [("convex-full", run_round_full), ("strongly-convex-bandit", run_round_bandit)],
    ids=["full", "bandit"],
)
@pytest.mark.parametrize("constraints", sorted(CONSTRAINT_SETS))
def test_kernel_run_equals_chained_rounds_for_other_constraint_sets(constraints, variant, run_round, horizon):
    """The kernel pulls through dual_pull_rows, the round functions through the
    duals of the state; both must give the same bits for any constraint set."""
    box, radius = CONSTRAINT_SETS[constraints]()
    trajectory = chained_rounds_equal_the_kernel(variant, 9, horizon, run_round, box, radius)
    # Every constraint gradient is nonzero where its constraint is violated, so
    # the violation of round 1 makes round 2 pull.
    assert trajectory.violations[0].max() > 0


# The projection of round 199 gives the decisions of round 200, in the kernel's
# second block of rounds 129..256.
BROKEN_ROUND, BROKEN_UNIT = 200, 3


def push_a_decision_out(monkeypatch, broken_round=BROKEN_ROUND):
    """Sabotage the projection that yields the decisions of broken_round: one
    unit's row of every seed lands at twice the radius."""
    original, calls = algorithm._project_rows, []

    def sabotaged(rows, radius):
        out = original(rows, radius)
        calls.append(None)
        if len(calls) == broken_round - 1:
            out[..., BROKEN_UNIT - 1, :] = 0.0
            out[..., BROKEN_UNIT - 1, 0] = 2.0 * radius
        return out

    monkeypatch.setattr(algorithm, "_project_rows", sabotaged)


def record_yielded_blocks(monkeypatch):
    """The start of every block the kernel hands out, in order."""
    original, starts = algorithm._lockstep, []

    def recording(*args):
        for block in original(*args):
            starts.append(block[0])
            yield block

    monkeypatch.setattr(algorithm, "_lockstep", recording)
    return starts


class TestDeferredContainment:
    """Containment is checked once per block; a broken row must still stop the
    run, with its round and unit named, before its block is handed out."""

    message = f"containment broken at round {BROKEN_ROUND}: the decision of unit {BROKEN_UNIT} "

    def test_run_seeds(self, monkeypatch):
        streams, schedules, box = batch("convex-full", (1, 2))
        push_a_decision_out(monkeypatch)
        starts = record_yielded_blocks(monkeypatch)
        with pytest.raises(RuntimeError, match=self.message):
            run_seeds(streams, default_ring_6(), schedules, box, (1, 2), (HORIZON,))
        assert starts == [0]

    def test_run_experiment(self, monkeypatch):
        streams, schedules, box = batch("strongly-convex-full", (1,))
        push_a_decision_out(monkeypatch)
        starts = record_yielded_blocks(monkeypatch)
        with pytest.raises(RuntimeError, match=self.message):
            run_experiment(streams[0], default_ring_6(), schedules[0], box, seed=1)
        assert starts == [0]

    def test_the_decisions_left_after_the_last_round(self, monkeypatch):
        streams, schedules, box = batch("convex-full", (1,))
        push_a_decision_out(monkeypatch, HORIZON + 1)
        starts = record_yielded_blocks(monkeypatch)
        with pytest.raises(RuntimeError, match=f"round {HORIZON + 1}: the decision of unit {BROKEN_UNIT} "):
            run_experiment(streams[0], default_ring_6(), schedules[0], box, seed=1)
        assert starts == [0, 128]

    def test_a_probe_outside_the_full_ball(self, monkeypatch):
        seeds = (1, 2)
        streams, schedules, box = batch("strongly-convex-bandit", seeds)
        hyper = schedules[0]
        original, drawn = algorithm._sphere_block, [0]  # rounds drawn so far

        def stretched(rngs, rounds, dimension):
            directions = original(rngs, rounds, dimension)
            k = BROKEN_ROUND - drawn[0] - 1
            if 0 <= k < rounds:
                # A direction of length 3 R / eps puts the probe x + eps * u at
                # distance 3 R from a decision inside the ball of radius R.
                directions[k, 0, BROKEN_UNIT - 1] *= 3.0 * hyper.radius / hyper.eps(1)
            drawn[0] += rounds
            return directions

        monkeypatch.setattr(algorithm, "_sphere_block", stretched)
        starts = record_yielded_blocks(monkeypatch)
        with pytest.raises(RuntimeError, match=f"round {BROKEN_ROUND}: the probe of unit {BROKEN_UNIT} "):
            run_seeds(streams, default_ring_6(), schedules, box, seeds, (HORIZON,))
        assert starts == [0]

    def test_under_optimized_mode(self):
        script = textwrap.dedent(
            f"""
            import netoco.algorithm as algorithm
            from netoco.network import default_ring_6
            from netoco.problems import BoxConstraintSet, synthetic_stream

            if __debug__:
                raise SystemExit("not running under -O")
            original, calls, starts = algorithm._project_rows, [], []

            def sabotaged(rows, radius):
                out = original(rows, radius)
                calls.append(None)
                if len(calls) == {BROKEN_ROUND - 1}:
                    out[..., {BROKEN_UNIT - 1}, 0] = 2.0 * radius
                return out

            lockstep = algorithm._lockstep

            def recording(*args):
                for block in lockstep(*args):
                    starts.append(block[0])
                    yield block

            algorithm._project_rows, algorithm._lockstep = sabotaged, recording
            box = BoxConstraintSet(-0.15, 0.15, 4)
            stream = synthetic_stream(6, 4, {HORIZON}, rho=0.0, seed=40)
            hyper = algorithm.make_schedule(
                "convex-full", p=box.count, G=stream.bounds(0.3)[0], radius=0.3,
                horizon={HORIZON}, c=0.75,
            )
            try:
                algorithm.run_seeds([stream], default_ring_6(), [hyper], box, [1], [{HORIZON}])
            except RuntimeError as exc:
                print(exc)
                print("yielded", starts)
            else:
                raise SystemExit("a decision outside the ball passed")
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        child = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert child.returncode == 0, child.stderr
        assert self.message in child.stdout
        assert "yielded [0]" in child.stdout
