"""The seed-batched round kernel against one-seed runs and the reference's chained rounds."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import netoco.algorithm as algorithm
from netoco.algorithm import _check_in_ball, _sphere_block, _sphere_rngs, make_schedule, run_seeds
from netoco.metrics import checkpoint_series
from netoco.network import default_ring_6
from netoco.problems import BoxConstraintSet, ConstraintSet, synthetic_stream
from netoco.reference import loss_values, record_run, sample_unit_sphere

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
        block = np.empty((50, 2, 6, 4))
        assert _sphere_block([_sphere_rngs(seed, 6) for seed in seeds], block) is None
        for s, seed in enumerate(seeds):
            for i, rng in enumerate(_sphere_rngs(seed, 6)):
                scalar = np.stack([sample_unit_sphere(rng, 4) for _ in range(50)])
                np.testing.assert_array_equal(block[:, s, i], scalar)

    def test_zero_draw_raises(self):
        class ZeroGaussians:
            def standard_normal(self, size):
                return np.zeros(size)

        with pytest.raises(RuntimeError, match="zero vector"):
            _sphere_block([[ZeroGaussians()]], np.empty((3, 1, 1, 4)))


def assert_each_seed_runs_as_alone(totals, series, streams, topology, schedules, box, seeds, checkpoints):
    """Each seed's sums and scores in a batch are bit for bit those of run_seeds on that seed alone."""
    assert len(series) == len(seeds)
    for s, (seed, batched) in enumerate(zip(seeds, series)):
        alone = run_seeds(streams[s:s + 1], topology, schedules[s:s + 1], box, (seed,), checkpoints)
        np.testing.assert_array_equal(totals.system_losses[:, s], alone.system_losses[:, 0])
        np.testing.assert_array_equal(totals.violations[:, s], alone.violations[:, 0])
        (scored,) = checkpoint_series(streams[s:s + 1], topology, schedules[s:s + 1], box, (seed,), checkpoints)
        for field in ("regrets", "sreg", "cacv", "comm_cost"):
            np.testing.assert_array_equal(getattr(batched, field), getattr(scored, field))


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
        series = checkpoint_series(streams, topology, schedules, box, seeds, checkpoints)
        assert_each_seed_runs_as_alone(totals, series, streams, topology, schedules, box, seeds, checkpoints)

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
        series = checkpoint_series(streams, topology, schedules, box, seeds, checkpoints)
        assert_each_seed_runs_as_alone(totals, series, streams, topology, schedules, box, seeds, checkpoints)

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


def lent_blocks_equal_the_recorded_runs(variant, seeds, horizon=HORIZON, box=None, radius=None):
    """Each block the kernel lends for a batch of seeds, read as it arrives, holds the
    rounds of each seed's run recorded by chaining the reference's round functions
    (reference.record_run). Returns the records."""
    streams, schedules, box = batch(variant, seeds, horizon, box, radius)
    topology = default_ring_6()
    records = [record_run(stream, topology, hyper, box, seed) for stream, hyper, seed in zip(streams, schedules, seeds)]
    starts = []
    for start, block_losses, committed, violated, observed, queries in algorithm._lockstep(
        streams, topology, schedules, box, seeds
    ):
        starts.append(start)
        rounds = slice(start, start + len(committed))
        losses = loss_values(block_losses, committed) if queries is None else observed
        for s, record in enumerate(records):
            np.testing.assert_array_equal(committed[:, s], record.decisions[rounds])
            np.testing.assert_array_equal(violated[:, s], record.violations[rounds])
            np.testing.assert_array_equal(losses[:, s], record.losses[rounds])
            if queries is not None:
                np.testing.assert_array_equal(queries[:, s], record.queries[rounds])
    assert starts == list(range(0, horizon, 128))
    return records


@pytest.mark.parametrize("horizon", HORIZONS, ids=lambda T: f"T{T}")
def test_kernel_run_equals_chained_bandit_rounds(horizon):
    """The kernel draws sphere directions in blocks; run_round_bandit draws
    them one round at a time from the same streams."""
    lent_blocks_equal_the_recorded_runs("strongly-convex-bandit", (9,), horizon)


@pytest.mark.parametrize("horizon", HORIZONS, ids=lambda T: f"T{T}")
def test_kernel_run_equals_chained_full_rounds(horizon):
    """The kernel runs a block of rounds in one call; run_round_full one round."""
    lent_blocks_equal_the_recorded_runs("convex-full", (9,), horizon)


@pytest.mark.parametrize("variant", ["convex-full", "strongly-convex-bandit"], ids=["full", "bandit"])
def test_each_lent_block_equals_per_seed_runs_and_chained_rounds(variant):
    """A batch of two seeds: each block holds the rounds of each seed's own chained run."""
    lent_blocks_equal_the_recorded_runs(variant, (1, 2))


@pytest.mark.parametrize("variant", ["convex-full", "strongly-convex-bandit"])
def test_successive_blocks_are_lent_from_one_set_of_arrays(variant):
    """The kernel refills its block arrays in place: two blocks in a row are
    views of the same memory, not copies."""
    seeds = (1, 2)
    streams, schedules, box = batch(variant, seeds)
    blocks = algorithm._lockstep(streams, default_ring_6(), schedules, box, seeds)
    _, first_losses, first, _, first_observed, first_queries = next(blocks)
    _, second_losses, second, _, second_observed, second_queries = next(blocks)
    assert np.shares_memory(first, second)
    assert np.shares_memory(first_losses.features, second_losses.features)
    assert np.shares_memory(first_losses.targets, second_losses.targets)
    if variant.endswith("bandit"):
        assert np.shares_memory(first_observed, second_observed)
        assert np.shares_memory(first_queries, second_queries)


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
@pytest.mark.parametrize("variant", ["convex-full", "strongly-convex-bandit"], ids=["full", "bandit"])
@pytest.mark.parametrize("constraints", sorted(CONSTRAINT_SETS))
def test_kernel_run_equals_chained_rounds_for_other_constraint_sets(constraints, variant, horizon):
    """The kernel pulls through dual_pull_rows, the round functions through the
    duals of the state; both must give the same bits for any constraint set."""
    box, radius = CONSTRAINT_SETS[constraints]()
    (record,) = lent_blocks_equal_the_recorded_runs(variant, (9,), horizon, box, radius)
    # Every constraint gradient is nonzero where its constraint is violated, so
    # the violation of round 1 makes round 2 pull.
    assert record.violations[0].max() > 0


# The projection of round 199 gives the decisions of round 200, in the kernel's
# second block of rounds 129..256.
BROKEN_ROUND, BROKEN_UNIT = 200, 3


def push_a_decision_out(monkeypatch, broken_round=BROKEN_ROUND, seed_index=None):
    """Sabotage the projection that yields the decisions of broken_round: one
    unit's row of every seed, or of the seed at seed_index only, lands at
    twice the radius."""
    original, calls = algorithm._project_rows, []

    def sabotaged(rows, radius):
        out = original(rows, radius)
        calls.append(None)
        if len(calls) == broken_round - 1:
            pushed = out if seed_index is None else out[seed_index]
            pushed[..., BROKEN_UNIT - 1, :] = 0.0
            pushed[..., BROKEN_UNIT - 1, 0] = 2.0 * radius
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

    def test_the_seed_of_the_broken_row_is_named(self, monkeypatch):
        """Only the second seed of a batch leaves the ball; the error names that seed."""
        seeds = (1, 2)
        streams, schedules, box = batch("convex-full", seeds)
        push_a_decision_out(monkeypatch, seed_index=1)
        with pytest.raises(RuntimeError, match=self.message + "of seed 2 has norm"):
            run_seeds(streams, default_ring_6(), schedules, box, seeds, (HORIZON,))

    def test_one_seed(self, monkeypatch):
        streams, schedules, box = batch("strongly-convex-full", (1,))
        push_a_decision_out(monkeypatch)
        starts = record_yielded_blocks(monkeypatch)
        with pytest.raises(RuntimeError, match=self.message + "of seed 1 has norm"):
            run_seeds(streams, default_ring_6(), schedules, box, (1,), (HORIZON,))
        assert starts == [0]

    def test_the_decisions_left_after_the_last_round(self, monkeypatch):
        streams, schedules, box = batch("convex-full", (1,))
        push_a_decision_out(monkeypatch, HORIZON + 1)
        starts = record_yielded_blocks(monkeypatch)
        with pytest.raises(RuntimeError, match=f"round {HORIZON + 1}: the decision of unit {BROKEN_UNIT} "):
            run_seeds(streams, default_ring_6(), schedules, box, (1,), (HORIZON,))
        assert starts == [0, 128]

    def test_a_probe_outside_the_full_ball(self, monkeypatch):
        seeds = (1, 2)
        streams, schedules, box = batch("strongly-convex-bandit", seeds)
        hyper = schedules[0]
        original, drawn = algorithm._sphere_block, [0]  # rounds drawn so far

        def stretched(rngs, directions):
            original(rngs, directions)
            rounds = len(directions)
            k = BROKEN_ROUND - drawn[0] - 1
            if 0 <= k < rounds:
                # A direction of length 3 R / eps puts the probe x + eps * u at
                # distance 3 R from a decision inside the ball of radius R.
                directions[k, 0, BROKEN_UNIT - 1] *= 3.0 * hyper.radius / hyper.eps(1)
            drawn[0] += rounds

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
