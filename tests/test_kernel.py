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
from netoco.bench import preset_config, run_suite
from netoco.metrics import checkpoint_series
from netoco.network import default_ring_6
from netoco.problems import BoxConstraintSet, RegressionStream, synthetic_stream
from netoco.reference import box_constraints, loss_values, record_run, sample_unit_sphere

ROOT = Path(__file__).resolve().parent.parent

# Longer than two blocks of the kernel, so block boundaries are crossed.
HORIZON = 300
# Shorter than a block, exactly one block, one round past it, and several blocks.
HORIZONS = (1, 128, 129, HORIZON)
VARIANTS = ("convex-full", "strongly-convex-full", "convex-bandit", "strongly-convex-bandit")


def checkpoints_for(horizon):
    return tuple(T for T in (1, 7, 128, 129, 256) if T < horizon) + (horizon,)


def batch(variant, seeds, horizon=HORIZON, box=None, radius=None, streams=None, understated=1.0):
    """Synthetic streams, unless given, with their schedules and the box (the presets' by default).

    Each schedule's G is the stream's gradient bound over the understated factor."""
    box = BoxConstraintSet(-0.15, 0.15, 4) if box is None else box
    # A bandit schedule needs pi = 1 / (R T^b) < 1, so a one-round run needs R > 1.
    if horizon == 1:
        radius = 1.5
    elif radius is None:  # only a box has vertices
        radius = box.max_vertex_norm()
    rho = 1.0 if variant.startswith("strongly") else 0.0
    if streams is None:
        streams = [synthetic_stream(6, 4, horizon, rho=rho, seed=40 + s) for s in seeds]
    schedules = [
        make_schedule(
            variant,
            p=box.count,
            G=max(stream.bounds(radius)[0], box.gradient_bound) / understated,
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

    def test_a_seed_list_of_another_length_is_refused_under_full_information(self):
        """Full information reads no seed, yet the counts must still agree."""
        streams, schedules, box = batch("convex-full", (1,))
        with pytest.raises(ValueError, match="need one stream, schedule and seed per run"):
            run_seeds(streams, default_ring_6(), schedules, box, (1, 2), (HORIZON,))

    def test_a_constraint_set_that_is_not_a_box_is_refused_by_name(self):
        streams, schedules, box = batch("convex-full", (1,))
        generic = box_constraints(box)
        with pytest.raises(ValueError, match="the round kernel needs a BoxConstraintSet, got ConstraintSet"):
            run_seeds(streams, default_ring_6(), schedules, generic, (1,), (HORIZON,))
        with pytest.raises(ValueError, match="needs a BoxConstraintSet, got ConstraintSet"):
            checkpoint_series(streams, default_ring_6(), schedules, generic, (1,), (HORIZON,))

    def test_checkpoints_past_the_horizon_are_rejected(self):
        streams, schedules, box = batch("convex-full", (1,))
        with pytest.raises(ValueError, match="checkpoints"):
            run_seeds(streams, default_ring_6(), schedules, box, (1,), (10, HORIZON + 1))


def lent_blocks_equal_the_recorded_runs(
    variant, seeds, horizon=HORIZON, box=None, radius=None, streams=None, understated=1.0
):
    """Each block the kernel lends for a batch of seeds, read as it arrives, holds the
    rounds of each seed's run recorded by chaining the reference's round functions
    (reference.record_run). Returns the records."""
    streams, schedules, box = batch(variant, seeds, horizon, box, radius, streams, understated)
    topology = default_ring_6()
    records = [record_run(stream, topology, hyper, box, seed) for stream, hyper, seed in zip(streams, schedules, seeds)]
    starts = []
    for start, features, targets, committed, violated, observed, queries in algorithm._lockstep(
        streams, topology, schedules, box, seeds
    ):
        starts.append(start)
        rounds = slice(start, start + len(committed))
        losses = loss_values(features, targets, streams[0].rho, committed) if queries is None else observed
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
    """The kernel draws sphere directions in blocks; run_round under a bandit
    schedule draws them one round at a time from the same streams."""
    lent_blocks_equal_the_recorded_runs("strongly-convex-bandit", (9,), horizon)


@pytest.mark.parametrize("horizon", HORIZONS, ids=lambda T: f"T{T}")
def test_kernel_run_equals_chained_full_rounds(horizon):
    """The kernel runs a block of rounds in one call; run_round one round."""
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
    _, first_features, first_targets, first, _, first_observed, first_queries = next(blocks)
    _, second_features, second_targets, second, _, second_observed, second_queries = next(blocks)
    assert np.shares_memory(first, second)
    assert np.shares_memory(first_features, second_features)
    assert np.shares_memory(first_targets, second_targets)
    if variant.endswith("bandit"):
        assert np.shares_memory(first_observed, second_observed)
        assert np.shares_memory(first_queries, second_queries)


@pytest.mark.parametrize("horizon", HORIZONS, ids=lambda T: f"T{T}")
@pytest.mark.parametrize("variant", ["convex-full", "strongly-convex-bandit"], ids=["full", "bandit"])
@pytest.mark.parametrize("constraints", ["box-above-zero"])
def test_kernel_run_equals_chained_rounds_for_other_constraint_sets(constraints, variant, horizon):
    """The kernel pulls through the box's closed form, the round functions through
    the duals of the state on the box stated constraint by constraint; both must
    give the same bits for a box that x = 0 lies below, face by face."""
    (record,) = lent_blocks_equal_the_recorded_runs(variant, (9,), horizon, BoxConstraintSet(0.05, 0.2, 4))
    # The violation of round 1 makes round 2 pull.
    assert record.violations[0].max() > 0


def square_wave_streams(phases, horizon=HORIZON):
    """One stream per phase, rho = 1: every unit sees the feature e_1 and the target +1 or -1,
    switching every 12 rounds from round 1 - phase, so that under full information the
    decisions swing through the origin and out again about every 12 rounds."""
    features = np.zeros((horizon, 6, 4))
    features[..., 0] = 1.0
    t = np.arange(horizon)[:, None]
    signs = [np.where((t + phase) // 12 % 2 == 0, 1.0, -1.0) for phase in phases]
    return [RegressionStream(features, np.repeat(sign, 6, axis=1), 1.0) for sign in signs]


def each_round(monkeypatch, after_round):
    """Call after_round(t, entry, radius) once round t of the kernel has run, where entry is
    _round_views' entry of round t, so entry[1] holds the decisions of round t + 1; and
    before round t + 1 runs. The calls come from the rounds as _run_block walks them,
    whichever of its steps a round takes."""
    run_block = algorithm._run_block

    def rounds_of(rounds, start, radius):
        for k, entry in enumerate(rounds):
            yield entry
            after_round(start + k + 1, entry, radius)

    def running(rounds, pull, start, weights, radius, *rest):
        return run_block(rounds_of(rounds, start, radius), pull, start, weights, radius, *rest)

    monkeypatch.setattr(algorithm, "_run_block", running)


def full_pulls_by_round(monkeypatch):
    """One entry per round the kernel runs, appended once the round has run: whether it took the box's full pull."""
    clip, pulled, clipped = algorithm._clip, [], []

    def clipping(*args):
        clipped.append(None)
        return clip(*args)

    def after_round(t, entry, radius):
        pulled.append(bool(clipped))
        clipped.clear()

    each_round(monkeypatch, after_round)
    monkeypatch.setattr(algorithm, "_clip", clipping)
    return pulled


class TestPullSkip:
    """A round whose new decisions all lie strictly inside the box's inscribed ball of radius
    m = min(-lower, upper), by reach <= m (1 - 1e-9) (algorithm._reach_limits), skips the box's
    pull, whose formula gives +0.0 there; the others take it. Each run below moves into and out
    of that ball within blocks and across block edges, in both directions, and must keep the
    bits of the reference's chained rounds. No row of these runs lies near enough to the
    ball's edge for the margin to matter: the rounds that skip are exactly those whose rows
    all satisfy ||x||^2 <= m^2 (1 - 1e-12)."""

    @pytest.mark.parametrize(
        ("variant", "seeds", "box", "radius"),
        [
            # Decisions follow a target that switches sign (square_wave_streams), seed 1 eight rounds ahead.
            ("strongly-convex-full", (1, 2), BoxConstraintSet(-0.01, 0.01, 4), 0.3),
            # The presets' box and synthetic streams; the probes' noise moves the decisions in and out.
            ("strongly-convex-bandit", (3, 10), BoxConstraintSet(-0.15, 0.15, 4), None),
        ],
        ids=["full", "bandit"],
    )
    def test_the_skipped_rounds_keep_the_recorded_bits(self, monkeypatch, variant, seeds, box, radius):
        streams = square_wave_streams((8, 0)) if variant.endswith("full") else None
        pulled = full_pulls_by_round(monkeypatch)
        records = lent_blocks_equal_the_recorded_runs(variant, seeds, HORIZON, box, radius, streams)
        assert len(pulled) == HORIZON
        inscribed = min(-box.lower, box.upper)
        # Round t leaves the decisions of round t + 1, recorded for t < T.
        squares = np.stack([np.einsum("tnd,tnd->tn", r.decisions[1:], r.decisions[1:]) for r in records], axis=1)
        inside = [float(row.max()) <= inscribed * inscribed * (1.0 - 1e-12) for row in squares]
        assert [not pull for pull in pulled[:-1]] == inside
        # Both branches, a switch inside a block, and a switch each way at a block edge:
        # edges maps each edge e where the rounds switch to whether round e, the last of its block, skipped.
        assert any(inside[t] != inside[t - 1] for t in range(1, HORIZON - 1) if t % 128)
        edges = {edge: inside[edge - 1] for edge in (128, 256) if inside[edge - 1] != inside[edge]}
        assert sorted(edges.values()) == [False, True]
        if variant.endswith("full"):
            # The pull carried into the block that starts skipping is not zero: the decisions
            # left by its last round violate the box, so the skip must clear the pull.
            (edge,) = [edge for edge, skipped in edges.items() if not skipped]
            assert max(record.violations[edge].max() for record in records) > 0.0


def walking_stream(horizon=HORIZON):
    """rho = 0, and every unit sees the feature e_1 and the target 1 in every round, so that under
    full information all units keep one decision, which walks along e_1 toward x_1 = 1."""
    features = np.zeros((horizon, 6, 4))
    features[..., 0] = 1.0
    return RegressionStream(features, np.ones((horizon, 6)), 0.0)


def calls_per_block(monkeypatch, name):
    """For each _run_block call from now on, one per block, the number of calls to algorithm.name it makes."""
    run_block, hook, counts = algorithm._run_block, getattr(algorithm, name), []

    def running(*args):
        counts.append(0)
        return run_block(*args)

    def counting(*args):
        counts[-1] += 1
        return hook(*args)

    monkeypatch.setattr(algorithm, "_run_block", running)
    monkeypatch.setattr(algorithm, name, counting)
    return counts


class TestStepBounds:
    """A round skips _project_rows and the pull where reach, the bound that the block's
    step bounds (_step_bounds, from its features and targets) give on the norm of every
    decision row, stays under min(R, m) (1 - 1e-9). The skip must change no bit."""

    def test_with_zero_step_bounds_a_run_leaves_the_ball_and_the_check_names_it(self, monkeypatch):
        """With every s_t taken as 0, reach stays near the decisions' norm at round 2, so no
        later round of the block projects, and the decisions, walking toward x_1 = 1, leave
        the ball of radius 0.01. The block's containment check names the first round
        outside and unit 1, the first of the six units that move as one."""
        radius = 0.01
        streams, schedules, box = batch("convex-full", (1,), radius=radius, streams=[walking_stream()])
        run_seeds(streams, default_ring_6(), schedules, box, (1,), (HORIZON,))  # projected, it stays inside
        beta, x, t = schedules[0].beta(1), 0.0, 1
        while x * x <= (radius + 1e-12) ** 2:  # the check's tolerance; x_1 of round t + 1, as the kernel rounds it
            x, t = x - beta * (x - 1.0), t + 1
        assert 2 < t <= 128
        monkeypatch.setattr(algorithm, "_step_bounds", lambda features, *rest: [0.0] * len(features))
        with pytest.raises(RuntimeError, match=f"containment broken at round {t}: the decision of unit 1 of seed 1 "):
            run_seeds(streams, default_ring_6(), schedules, box, (1,), (HORIZON,))

    @pytest.mark.parametrize("variant", ["convex-full", "convex-bandit", "strongly-convex-full"])
    def test_a_schedule_that_understates_the_gradients_keeps_the_recorded_bits(self, variant):
        """G 50 times below the streams' gradient bound: beta_t of the convex variants
        grows 2,500-fold and eta_t of the strongly convex one shrinks 2,500-fold. The
        bounds come from the data, so every round keeps record_run's bits."""
        lent_blocks_equal_the_recorded_runs(variant, (1, 2), understated=50.0)

    def test_a_convex_preset_checks_at_most_twice_a_block(self, monkeypatch, tmp_path):
        checks = calls_per_block(monkeypatch, "_project_rows")
        run_suite(preset_config("synthetic-convex-c0.5", seed_count=3, horizon=2048), out_dir=tmp_path)
        assert len(checks) == 16
        assert max(checks) <= 2


def checked_rounds(monkeypatch):
    """One [scaled, clipped] entry per _project_rows call from now on: whether it scaled rows,
    and whether its round went on to take the box's full pull. A round pulls only after a check."""
    project, clip, rounds = algorithm._project_rows, algorithm._clip, []

    def projecting(*args):
        largest = project(*args)
        rounds.append([largest == np.inf, False])
        return largest

    def clipping(*args):
        rounds[-1][1] = True
        return clip(*args)

    monkeypatch.setattr(algorithm, "_project_rows", projecting)
    monkeypatch.setattr(algorithm, "_clip", clipping)
    return rounds


def largest_radius_inside(inscribed):
    """The largest radius R with R (1 + 1e-9) <= m (1 - 1e-9) for m = inscribed, as floats compute both sides."""
    limit = inscribed * (1.0 - 1e-9)
    radius = limit / (1.0 + 1e-9)
    while radius * (1.0 + 1e-9) <= limit:
        radius = np.nextafter(radius, np.inf)
    while radius * (1.0 + 1e-9) > limit:
        radius = np.nextafter(radius, 0.0)
    return float(radius)


class TestScaledRoundsSkipThePull:
    """A round whose rows _project_rows scaled leaves them on the decision ball; where that
    ball lies strictly inside the box, radius (1 + 1e-9) <= m (1 - 1e-9), the pull is +0.0
    and the round skips it. The check that scaled them resets reach to max(R, 2^-100) (1 + 1e-9),
    which the pull's limit m (1 - 1e-9) decides against. The runs against record_run keep its
    bits; the square waves (square_wave_streams) drive their decisions toward x_1 = +-1/3,
    outside the ball, so that rounds scale rows."""

    def test_the_bandit_preset_clips_in_no_round(self, monkeypatch, tmp_path):
        """synthetic-bandit-c0.5: decision radius 0.0194 inside the box +-0.15."""
        rounds = checked_rounds(monkeypatch)
        run_suite(preset_config("synthetic-bandit-c0.5", seed_count=3, horizon=2048), out_dir=tmp_path)
        assert any(scaled for scaled, _ in rounds)
        assert not any(clipped for _, clipped in rounds)

    def test_a_run_whose_ball_lies_inside_the_box_keeps_the_recorded_bits(self, monkeypatch):
        """R = 0.3 shrinks to the decision radius 0.15 at T = 300, inside the box +-0.2:
        some rounds scale rows, and no round clips."""
        rounds = checked_rounds(monkeypatch)
        box = BoxConstraintSet(-0.2, 0.2, 4)
        lent_blocks_equal_the_recorded_runs("strongly-convex-bandit", (3,), HORIZON, box, 0.3)
        assert any(scaled for scaled, _ in rounds)
        assert not any(clipped for _, clipped in rounds)

    @pytest.mark.parametrize("above", [False, True], ids=["largest-inside", "next-float-above"])
    def test_the_largest_radius_inside_the_box_skips_and_the_next_float_pulls(self, monkeypatch, above):
        """At the largest R with R (1 + 1e-9) <= m (1 - 1e-9) no scaled round pulls; one float
        above it, every scaled round pulls, though its pull is +0.0 as well."""
        box = BoxConstraintSet(-0.2, 0.2, 4)
        radius = largest_radius_inside(0.2)
        if above:
            radius = float(np.nextafter(radius, np.inf))
        rounds = checked_rounds(monkeypatch)
        lent_blocks_equal_the_recorded_runs(
            "strongly-convex-full", (1, 2), HORIZON, box, radius, square_wave_streams((8, 0))
        )
        clipped = [clipped for scaled, clipped in rounds if scaled]
        assert clipped and all(clip == above for clip in clipped)

    @pytest.mark.parametrize(
        ("inscribed", "pulls"), [(2.0**-105, True), (0.15, False)], ids=["box-2^-105", "box-0.15"]
    )
    def test_a_radius_under_the_floor_resets_reach_to_the_floor(self, monkeypatch, inscribed, pulls):
        """R = 2^-110: a check that scales rows resets reach to 2^-100 (1 + 1e-9), not R (1 + 1e-9).
        Inside a box of inscribed radius 2^-105 that is above the pull's limit, so every scaled
        round pulls; inside the box +-0.15 it is below, and none does."""
        box = BoxConstraintSet(-inscribed, inscribed, 4)
        rounds = checked_rounds(monkeypatch)
        lent_blocks_equal_the_recorded_runs(
            "strongly-convex-full", (1, 2), HORIZON, box, 2.0**-110, square_wave_streams((8, 0))
        )
        clipped = [clipped for scaled, clipped in rounds if scaled]
        assert clipped and all(clip == pulls for clip in clipped)


# The projection of round 199 gives the decisions of round 200, in the kernel's
# second block of rounds 129..256.
BROKEN_ROUND, BROKEN_UNIT = 200, 3


def push_a_decision_out(monkeypatch, broken_round=BROKEN_ROUND, seed_index=None):
    """Sabotage the round that yields the decisions of broken_round: once it has
    run, one unit's row of every seed, or of the seed at seed_index only, lands
    at twice the radius."""

    def after_round(t, entry, radius):
        if t == broken_round - 1:
            rows = entry[1]
            pushed = rows if seed_index is None else rows[seed_index]
            pushed[..., BROKEN_UNIT - 1, :] = 0.0
            pushed[..., BROKEN_UNIT - 1, 0] = 2.0 * radius

    each_round(monkeypatch, after_round)


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
                directions[k, 0, BROKEN_UNIT - 1] *= 3.0 * hyper.radius / hyper.eps
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
            from netoco.problems import BoxConstraintSet, RegressionStream, synthetic_stream

            if __debug__:
                raise SystemExit("not running under -O")
            run_block, starts = algorithm._run_block, []

            def sabotaged(rounds, pull, start, weights, radius, *rest):
                def pushing():
                    for k, entry in enumerate(rounds):
                        yield entry
                        if start + k + 1 == {BROKEN_ROUND - 1}:
                            entry[1][..., {BROKEN_UNIT - 1}, 0] = 2.0 * radius

                return run_block(pushing(), pull, start, weights, radius, *rest)

            lockstep = algorithm._lockstep

            def recording(*args):
                for block in lockstep(*args):
                    starts.append(block[0])
                    yield block

            algorithm._run_block, algorithm._lockstep = sabotaged, recording
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
