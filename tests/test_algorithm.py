"""Step schedules, the primal-dual round updates, and full runs: the kernel's (run_seeds) and the
reference's chained rounds (record_run)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import netoco.algorithm as algorithm
from netoco.algorithm import VARIANTS, _project_rows, make_schedule, run_seeds
from netoco.network import Graph, TopologySchedule, default_ring_6, max_degree_weights
from netoco.problems import BoxConstraintSet, RegressionRound, RegressionStream, synthetic_stream
from netoco.reference import (
    augmented_lagrangian,
    box_constraints,
    clipped_subgradient,
    dual_update,
    initial_state,
    one_point_estimator,
    primal_direction,
    project_ball,
    record_run,
    regression_loss,
    run_round,
    sample_unit_sphere,
)


def single_node_topology():
    return TopologySchedule([Graph(1, [])], window=1)


def pair_topology():
    return TopologySchedule([Graph(2, [(1, 2)])], window=1)


def zero_stream(n_units, dimension, horizon, rho=0.0):
    """Loss identically zero: zero features, zero targets, no ridge term."""
    return RegressionStream(
        np.zeros((horizon, n_units, dimension)), np.zeros((horizon, n_units)), rho
    )


def round_losses(stream, t):
    """All units' losses at round t, on the stream's arrays."""
    return RegressionRound(stream.features[t - 1], stream.targets[t - 1], stream.rho)


class TestSchedules:
    def test_convex_full_formulas(self):
        hyper = make_schedule("convex-full", p=8, G=2.0, radius=1.0, horizon=64, c=0.5)
        assert hyper.a == 2.0
        for t in (1, 13, 64):
            assert hyper.eta(t) == pytest.approx(0.125)  # 64 ** -0.5
            assert hyper.beta(t) == pytest.approx(1.0 / 512.0)  # 1/(2*8*4*8)
        assert not hyper.is_bandit and not hyper.is_strongly_convex
        assert hyper.decision_radius == 1.0
        assert hyper.pi == 0.0

    def test_strongly_convex_formulas(self):
        hyper = make_schedule(
            "strongly-convex-full", p=4, G=3.0, radius=1.0, horizon=10, sigma=2.0
        )
        assert hyper.eta(1) == pytest.approx(36.0)  # 2*4*9/2
        assert hyper.eta(2) == pytest.approx(18.0)
        assert hyper.beta(1) == pytest.approx(0.5)
        assert hyper.beta(2) == pytest.approx(0.25)
        assert hyper.is_strongly_convex

    def test_strongly_convex_bandit_probe_formulas(self):
        hyper = make_schedule(
            "strongly-convex-bandit", p=2, G=1.0, radius=1.0, horizon=64, sigma=1.0
        )
        assert hyper.b == pytest.approx(1.0 / 3.0)
        assert hyper.eps == pytest.approx(0.25)  # 64 ** (-1/3)
        assert hyper.pi == pytest.approx(0.25)
        assert hyper.decision_radius == pytest.approx(0.75)
        # Probe containment margin holds with equality.
        assert hyper.eps == pytest.approx(hyper.pi * hyper.radius)

    def test_convex_bandit_probe_exponent_is_a_third_of_c(self):
        hyper = make_schedule(
            "convex-bandit", p=2, G=1.0, radius=1.0, horizon=4096, c=0.75
        )
        assert hyper.b == pytest.approx(0.25)
        assert hyper.eps == pytest.approx(4096.0**-0.25)
        assert hyper.pi == pytest.approx(4096.0**-0.25)

    def test_round_range_is_enforced(self):
        hyper = make_schedule("convex-full", p=2, G=1.0, radius=1.0, horizon=8, c=0.5)
        for t in (0, 9, -1):
            with pytest.raises(ValueError, match="round"):
                hyper.eta(t)
            with pytest.raises(ValueError, match="round"):
                hyper.beta(t)

    def test_eps_rejected_outside_bandit_variants(self):
        hyper = make_schedule("convex-full", p=2, G=1.0, radius=1.0, horizon=8, c=0.5)
        assert hyper.eps is None and hyper.b is None

    def test_parameter_validation(self):
        good = dict(p=2, G=1.0, radius=1.0, horizon=8, c=0.5)
        with pytest.raises(ValueError, match="unknown variant"):
            make_schedule("quantum", **good)
        with pytest.raises(ValueError, match="p"):
            make_schedule("convex-full", **{**good, "p": 0})
        with pytest.raises(ValueError, match="G"):
            make_schedule("convex-full", **{**good, "G": 0.0})
        with pytest.raises(ValueError, match="radius"):
            make_schedule("convex-full", **{**good, "radius": -1.0})
        with pytest.raises(ValueError, match="horizon"):
            make_schedule("convex-full", **{**good, "horizon": 0})
        with pytest.raises(ValueError, match="c in"):
            make_schedule("convex-full", **{**good, "c": 1.0})
        with pytest.raises(ValueError, match="c in"):
            make_schedule("convex-full", **{**good, "c": None})
        with pytest.raises(ValueError, match="a > 1"):
            make_schedule("convex-full", **{**good, "a": 1.0})
        with pytest.raises(ValueError, match="sigma"):
            make_schedule("strongly-convex-full", p=2, G=1.0, radius=1.0, horizon=8)

    def test_guard_boundaries(self):
        """p = 0 and radius = 0.0 are refused; p = 1 and the smallest radii are
        not. A step size that underflows to 0.0 is refused too."""
        good = dict(p=2, G=1.0, radius=1.0, horizon=8, c=0.5)
        with pytest.raises(ValueError, match="p must be >= 1"):
            make_schedule("convex-full", **{**good, "p": 0})
        with pytest.raises(ValueError, match="radius must be > 0"):
            make_schedule("convex-full", **{**good, "radius": 0.0})
        assert make_schedule("convex-full", **{**good, "p": 1}).p == 1
        assert make_schedule("convex-full", **{**good, "radius": 1e-300}).radius == 1e-300
        # eta_1 = 2 p G^2 / sigma: G^2 is subnormal and the quotient underflows.
        with pytest.raises(ValueError, match="eta_1 = 0 "):
            make_schedule("strongly-convex-full", p=1, G=1e-160, radius=1.0, horizon=8, sigma=1e10)

    def test_bandit_shrinkage_of_one_or_more_is_rejected(self):
        # pi = 1/(R * T^(1/3)) = 1 exactly at R = 0.5, T = 8.
        with pytest.raises(ValueError, match="pi.*horizon 8"):
            make_schedule(
                "strongly-convex-bandit", p=2, G=1.0, radius=0.5, horizon=8, sigma=1.0
            )
        with pytest.raises(ValueError, match="pi"):
            make_schedule("convex-bandit", p=2, G=1.0, radius=0.2, horizon=4, c=0.5)


class TestProjection:
    def test_identity_inside_the_ball(self):
        x = np.array([0.3, -0.4])  # norm 0.5
        np.testing.assert_array_equal(project_ball(x, 0.5), x)
        np.testing.assert_array_equal(project_ball(x, 2.0), x)

    def test_scales_onto_the_boundary(self):
        out = project_ball(np.array([3.0, 4.0]), 1.0)
        np.testing.assert_allclose(out, [0.6, 0.8], rtol=1e-15)
        assert np.linalg.norm(out) == pytest.approx(1.0)

    def test_a_row_whose_square_overflows_lands_on_the_sphere(self):
        """(3e154, 4e154) . (3e154, 4e154) overflows; the row still has norm
        5e154 and projects to (0.6, 0.8), not to the origin."""
        np.testing.assert_allclose(project_ball(np.array([3e154, 4e154]), 1.0), [0.6, 0.8], rtol=1e-15)
        rows = np.array([[3e154, 4e154], [3.0, 4.0]])
        assert _project_rows(rows, 1.0) == math.inf
        np.testing.assert_allclose(rows, [[0.6, 0.8], [0.6, 0.8]], rtol=1e-15)
        # Inside a ball larger than its norm, such a row stays where it is.
        np.testing.assert_array_equal(project_ball(np.array([3e154, 4e154]), 1e200), [3e154, 4e154])
        rows = np.array([[3e154, 4e154], [3e200, 0.0]])
        assert _project_rows(rows, 1e200) == math.inf
        np.testing.assert_allclose(rows, [[3e154, 4e154], [1e200, 0.0]], rtol=1e-15)
        # A NaN row ahead of it does not hide the overflow.
        rows = np.array([[np.nan, 0.0], [3e154, 4e154]])
        assert _project_rows(rows, 1.0) == math.inf
        assert np.isnan(rows[0]).all()
        np.testing.assert_allclose(rows[1], [0.6, 0.8], rtol=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(-10, 10), min_size=3, max_size=3),
        st.lists(st.floats(-10, 10), min_size=3, max_size=3),
        st.floats(0.1, 5.0),
    )
    def test_non_expansive(self, xs, ys, radius):
        x, y = np.array(xs), np.array(ys)
        px, py = project_ball(x, radius), project_ball(y, radius)
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12


class TestSphereSampling:
    def test_unit_norm_and_determinism(self):
        rng = np.random.default_rng(0)
        draws = np.stack([sample_unit_sphere(rng, 5) for _ in range(200)])
        np.testing.assert_allclose(np.linalg.norm(draws, axis=1), 1.0, atol=1e-12)
        again = np.stack(
            [sample_unit_sphere(np.random.default_rng(0), 5) for _ in range(1)]
        )
        np.testing.assert_array_equal(draws[0], again[0])

    def test_mean_concentrates_at_zero(self):
        rng = np.random.default_rng(1)
        draws = np.stack([sample_unit_sphere(rng, 3) for _ in range(20000)])
        # Coordinate variance is 1/3; the mean of 2e4 draws sits within ~5 SE.
        assert float(np.abs(draws.mean(axis=0)).max()) < 0.025

    def test_dimension_one_gives_signs(self):
        rng = np.random.default_rng(2)
        values = {float(sample_unit_sphere(rng, 1)[0]) for _ in range(50)}
        assert values == {-1.0, 1.0}

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            sample_unit_sphere(np.random.default_rng(0), 0)


class TestOnePointEstimator:
    def test_formula(self):
        direction = np.array([0.6, 0.8])
        out = one_point_estimator(2.5, direction, 2, 0.5)
        np.testing.assert_allclose(out, (2 / 0.5) * 2.5 * direction, rtol=1e-15)

    def test_norm_bound_under_bounded_values(self):
        """With |value| <= C and a unit direction, the estimate has norm
        <= C d / eps."""
        rng = np.random.default_rng(3)
        C, d, eps = 2.0, 6, 0.125
        for _ in range(200):
            value = float(rng.uniform(-C, C))
            direction = sample_unit_sphere(rng, d)
            norm = float(np.linalg.norm(one_point_estimator(value, direction, d, eps)))
            assert norm <= C * d / eps + 1e-12

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError, match="eps"):
            one_point_estimator(1.0, np.ones(2), 2, 0.0)


class TestDualUpdate:
    def setup_method(self):
        self.box = BoxConstraintSet(-0.15, 0.15, 2)

    def test_matches_violation_over_eta(self):
        x = np.array([0.25, -0.4])
        eta = 0.2
        lam = dual_update(self.box, x, eta)
        np.testing.assert_allclose(lam, box_constraints(self.box).positive_parts(x) / eta, rtol=1e-15)
        assert np.all(lam >= 0)

    def test_maximizes_the_augmented_lagrangian(self):
        """The update is the exact argmax over lambda >= 0: every nonnegative
        perturbation scores no higher, and a fine per-coordinate grid agrees."""
        rng = np.random.default_rng(4)
        oracle = regression_loss(np.array([1.0, -1.0]), 0.5, 0.0)
        for _ in range(10):
            x = rng.uniform(-0.5, 0.5, 2)
            eta = float(rng.uniform(0.05, 1.0))
            star = dual_update(self.box, x, eta)
            best = augmented_lagrangian(oracle, self.box, x, star, eta)
            for _ in range(50):
                lam = np.maximum(star + rng.normal(scale=0.5, size=4), 0.0)
                assert augmented_lagrangian(oracle, self.box, x, lam, eta) <= best + 1e-12

    def test_per_coordinate_grid_argmax_agrees(self):
        """The dual objective separates per coordinate; a 1e-4 grid over
        [0, 2 max_violation / eta] lands within one grid step of the update."""
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.uniform(-0.5, 0.5, 2)
            eta = float(rng.uniform(0.1, 1.0))
            star = dual_update(self.box, x, eta)
            violation = box_constraints(self.box).positive_parts(x)
            hi = max(2.0 * float(violation.max()) / eta, 1e-3)
            grid = np.arange(0.0, hi + 1e-4, 1e-4)
            for s in range(4):
                scores = violation[s] * grid - 0.5 * eta * grid * grid
                assert abs(grid[int(np.argmax(scores))] - star[s]) <= 1e-3

    def test_rejects_nonpositive_eta(self):
        with pytest.raises(ValueError, match="eta"):
            dual_update(self.box, np.zeros(2), 0.0)


class TestAugmentedLagrangian:
    def test_hand_computed_value(self):
        box = BoxConstraintSet(-0.15, 0.15, 1)
        oracle = regression_loss(np.array([2.0]), 1.0, 0.0)
        x = np.array([0.25])  # loss = 0.5 * (0.5 - 1)^2 = 0.125
        lam = np.array([0.5, 2.0])  # violations: lower 0, upper 0.1
        # 0.125 + (0.5*0 + 2*0.1) - (0.3/2)(0.25 + 4) = 0.325 - 0.6375
        assert augmented_lagrangian(oracle, box, x, lam, 0.3) == pytest.approx(-0.3125)


class TestPrimalDirection:
    def test_matches_vectorized_box_path(self):
        box = BoxConstraintSet(-0.15, 0.15, 3)
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = rng.uniform(-0.4, 0.4, 3)
            lam = rng.uniform(0, 2, 6)
            grad = rng.normal(size=3)
            via_loop = primal_direction(x, lam, grad, box)
            via_rows = grad + box_constraints(box).weighted_subgradient_rows(x[None, :], lam[None, :])[0]
            np.testing.assert_allclose(via_loop, via_rows, rtol=1e-12, atol=1e-15)

    def test_zero_duals_leave_the_gradient(self):
        box = BoxConstraintSet(-0.15, 0.15, 2)
        grad = np.array([1.0, -2.0])
        np.testing.assert_array_equal(
            primal_direction(np.array([0.9, 0.9]), np.zeros(4), grad, box), grad
        )


def literal_run(stream, topology, hyper, constraints, seed=None):
    """Independent per-unit reference, one vector at a time: each unit descends on
    its violation-augmented loss (its gradient, or a one-point estimate from its
    own sphere stream under bandit feedback, plus dual-weighted clipped
    subgradients), mixes sum_j W_ij y_j, projects onto the ball and resets its
    duals to positive_parts / eta. Returns the committed decisions, (T, N, d)."""
    n, d, bandit = stream.n_units, stream.dimension, hyper.is_bandit
    rngs = algorithm._sphere_rngs(seed, n) if bandit else None
    x = [np.zeros(d) for _ in range(n)]
    lam = [np.zeros(constraints.count) for _ in range(n)]
    decisions = []
    for t in range(1, stream.horizon + 1):
        decisions.append(np.stack(x))
        y = []
        for i in range(n):
            oracle = regression_loss(stream.features[t - 1, i], stream.targets[t - 1, i], stream.rho)
            if bandit:
                u, eps = sample_unit_sphere(rngs[i], d), hyper.eps
                direction = one_point_estimator(oracle.value(x[i] + eps * u), u, d, eps)
            else:
                direction = oracle.gradient(x[i])
            for s in range(1, constraints.count + 1):
                direction = direction + lam[i][s - 1] * clipped_subgradient(constraints, x[i], s)
            y.append(x[i] - hyper.beta(t) * direction)
        w = topology.weights_at(t)
        x = [project_ball(sum(w[i, j] * y[j] for j in range(n)), hyper.decision_radius) for i in range(n)]
        lam = [box_constraints(constraints).positive_parts(x[i]) / hyper.eta(t) for i in range(n)]
    return np.stack(decisions)


def period_3_topology():
    """Three graphs on six nodes, none connected alone, their union a ring."""
    return TopologySchedule(
        [Graph(6, [(1, 2), (4, 5)]), Graph(6, [(2, 3), (5, 6)]), Graph(6, [(3, 4), (6, 1)])], window=3
    )


class TestRoundReductions:
    def test_single_unit_equals_projected_primal_dual_descent(self):
        """On one node the consensus step is the identity, so the run must
        match the literal per-unit loop to machine precision."""
        horizon = 60
        stream = synthetic_stream(1, 3, horizon, rho=1.0, seed=21)
        box = BoxConstraintSet(-0.15, 0.15, 3)
        radius = box.max_vertex_norm()
        hyper = make_schedule(
            "strongly-convex-full",
            p=box.count,
            G=max(stream.bounds(radius)[0], box.gradient_bound),
            radius=radius,
            horizon=horizon,
            sigma=stream.strong_convexity,
        )
        record = record_run(stream, single_node_topology(), hyper, box)
        reference = literal_run(stream, single_node_topology(), hyper, box)
        np.testing.assert_allclose(record.decisions, reference, rtol=0, atol=1e-12)
        # The large early steps must actually leave the box, so the dual path
        # is exercised rather than vacuously zero.
        assert record.violations.max() > 0

    @pytest.mark.parametrize("topology", [default_ring_6, period_3_topology], ids=["ring6", "period3"])
    @pytest.mark.parametrize("rho", [0.0, 0.5], ids=["rho0", "rho0.5"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_chained_rounds_equal_the_literal_per_unit_loop(self, variant, rho, topology):
        """Six units over more than two of the kernel's blocks: record_run's decisions
        within 1e-12 of the literal loop, for every variant, with and without the ridge term."""
        horizon, topology = 300, topology()
        stream = synthetic_stream(6, 4, horizon, rho=rho, seed=24)
        box = BoxConstraintSet(0.02, 0.15, 4)  # the origin lies below every lower face
        radius = 1.0  # a bandit schedule at T = 300 needs pi = 1 / (R T^b) < 1
        strongly = variant.startswith("strongly")
        hyper = make_schedule(
            variant,
            p=box.count,
            G=max(stream.bounds(radius)[0], box.gradient_bound),
            radius=radius,
            horizon=horizon,
            c=None if strongly else 0.5,
            sigma=(stream.strong_convexity or 1.0) if strongly else None,
        )
        record = record_run(stream, topology, hyper, box, seed=5)
        reference = literal_run(stream, topology, hyper, box, seed=5)
        np.testing.assert_allclose(record.decisions, reference, rtol=0, atol=1e-12)
        assert record.violations.max() > 0  # the duals pull

    @pytest.mark.parametrize("variant", ["convex-full", "strongly-convex-bandit"])
    def test_each_seed_of_a_batch_equals_its_own_literal_loop(self, variant):
        """Three seeds in lockstep over three of the kernel's blocks: each seed's lent
        decisions within 1e-12 of the literal loop run on that seed alone."""
        horizon, topology, seeds = 300, period_3_topology(), (1, 2, 3)
        streams = [synthetic_stream(6, 4, horizon, rho=0.5, seed=24 + seed) for seed in seeds]
        box = BoxConstraintSet(0.02, 0.15, 4)
        radius = 1.0
        strongly = variant.startswith("strongly")
        schedules = [
            make_schedule(
                variant,
                p=box.count,
                G=max(stream.bounds(radius)[0], box.gradient_bound),
                radius=radius,
                horizon=horizon,
                c=None if strongly else 0.5,
                sigma=stream.strong_convexity if strongly else None,
            )
            for stream in streams
        ]
        assert len({hyper.G for hyper in schedules}) == 3  # the seeds' step sizes differ
        blocks = [
            committed.copy() for _, _, committed, *_ in algorithm._lockstep(streams, topology, schedules, box, seeds)
        ]
        assert len(blocks) == 3
        decisions = np.concatenate(blocks)
        for s, (stream, hyper, seed) in enumerate(zip(streams, schedules, seeds)):
            reference = literal_run(stream, topology, hyper, box, seed=seed)
            np.testing.assert_allclose(decisions[:, s], reference, rtol=0, atol=1e-12)

    def test_two_units_average_on_the_complete_pair(self):
        """One round on K2 with uniform weights: both units move to the
        projection of the mean of their descent points."""
        box = BoxConstraintSet(-1.0, 1.0, 2)
        stream = zero_stream(2, 2, 1)
        hyper = make_schedule("convex-full", p=4, G=1.0, radius=5.0, horizon=1, c=0.5)
        state = initial_state(2, box)
        state.decisions[:] = np.array([[0.4, 0.0], [0.0, 0.8]])
        weights = max_degree_weights(Graph(2, [(1, 2)]))
        np.testing.assert_array_equal(weights, np.full((2, 2), 0.5))
        next_state, record = run_round(state, round_losses(stream, 1), weights, hyper, box, 1)
        # Zero loss and zero duals: y = x, so both land on the average.
        np.testing.assert_allclose(next_state.decisions, np.full((2, 2), [0.2, 0.4]))
        np.testing.assert_array_equal(record.decisions, [[0.4, 0.0], [0.0, 0.8]])
        np.testing.assert_array_equal(record.losses, [0.0, 0.0])
        assert record.queries is None

    def test_zero_losses_keep_the_origin_fixed(self):
        stream = zero_stream(3, 2, 8)
        box = BoxConstraintSet(-0.15, 0.15, 2)
        topology = TopologySchedule([Graph(3, [(1, 2), (2, 3)])], window=1)
        hyper = make_schedule("convex-full", p=4, G=1.0, radius=0.2, horizon=8, c=0.5)
        record = record_run(stream, topology, hyper, box)
        np.testing.assert_array_equal(record.decisions, np.zeros((8, 3, 2)))
        np.testing.assert_array_equal(record.losses, np.zeros((8, 3)))
        np.testing.assert_array_equal(record.violations, np.zeros((8, 3, 4)))

    def test_dual_vectors_track_the_new_violation(self):
        horizon = 4
        stream = synthetic_stream(2, 2, horizon, rho=2.0, seed=22)
        box = BoxConstraintSet(-0.05, 0.05, 2)
        radius = box.max_vertex_norm()
        hyper = make_schedule(
            "strongly-convex-full", p=4, G=5.0, radius=radius, horizon=horizon, sigma=4.0
        )
        state = initial_state(2, box)
        for t in range(1, horizon + 1):
            state, _ = run_round(state, round_losses(stream, t), max_degree_weights(Graph(2, [(1, 2)])), hyper, box, t)
            np.testing.assert_allclose(
                state.duals,
                box.positive_parts_rows(state.decisions) / hyper.eta(t),
                rtol=1e-15,
            )


class TestBanditRounds:
    def test_zero_losses_keep_consensus_at_the_origin(self):
        stream = zero_stream(2, 3, 16)
        box = BoxConstraintSet(-0.15, 0.15, 3)
        hyper = make_schedule(
            "strongly-convex-bandit", p=6, G=1.0, radius=1.0, horizon=16, sigma=1.0
        )
        record = record_run(stream, pair_topology(), hyper, box, seed=7)
        np.testing.assert_array_equal(record.decisions, np.zeros((16, 2, 3)))
        # Probes still wander at distance eps from each origin-committed point.
        eps = hyper.eps
        np.testing.assert_allclose(
            np.linalg.norm(record.queries, axis=2), eps, rtol=1e-12
        )

    def test_queries_sit_eps_from_the_committed_decision(self):
        horizon = 128
        stream = synthetic_stream(2, 3, horizon, rho=1.0, seed=23)
        box = BoxConstraintSet(-0.15, 0.15, 3)
        radius = box.max_vertex_norm()
        hyper = make_schedule(
            "strongly-convex-bandit",
            p=box.count,
            G=max(stream.bounds(radius)[0], box.gradient_bound),
            radius=radius,
            horizon=horizon,
            sigma=stream.strong_convexity,
        )
        record = record_run(stream, pair_topology(), hyper, box, seed=8)
        offsets = np.linalg.norm(record.queries - record.decisions, axis=2)
        np.testing.assert_allclose(offsets, hyper.eps, rtol=1e-12)
        # Observed losses equal the loss at the probe point.
        for t in (1, 17, 128):
            for i in (1, 2):
                oracle = regression_loss(stream.features[t - 1, i - 1], stream.targets[t - 1, i - 1], stream.rho)
                expected = oracle.value(record.queries[t - 1, i - 1])
                assert record.losses[t - 1, i - 1] == pytest.approx(expected, rel=1e-12)

    def test_containment_with_room_to_violate(self):
        horizon = 128
        stream = synthetic_stream(2, 3, horizon, rho=1.0, seed=24)
        box = BoxConstraintSet(-0.15, 0.15, 3)
        radius = box.max_vertex_norm()
        hyper = make_schedule(
            "strongly-convex-bandit",
            p=box.count,
            G=max(stream.bounds(radius)[0], box.gradient_bound),
            radius=radius,
            horizon=horizon,
            sigma=stream.strong_convexity,
        )
        record = record_run(stream, pair_topology(), hyper, box, seed=9)
        decision_norms = np.linalg.norm(record.decisions, axis=2)
        query_norms = np.linalg.norm(record.queries, axis=2)
        assert float(decision_norms.max()) <= hyper.decision_radius + 1e-12
        assert float(query_norms.max()) <= radius + 1e-12
        assert hyper.decision_radius < radius

    def test_missing_seed_is_rejected(self):
        stream = zero_stream(2, 2, 8)
        box = BoxConstraintSet(-0.15, 0.15, 2)
        hyper = make_schedule(
            "strongly-convex-bandit", p=4, G=1.0, radius=1.0, horizon=8, sigma=1.0
        )
        with pytest.raises(ValueError, match="seed"):
            run_seeds([stream], pair_topology(), [hyper], box, [None], (8,))
        with pytest.raises(ValueError, match="bandit runs need a seed"):
            record_run(stream, pair_topology(), hyper, box)

    def test_the_schedule_decides_whether_a_round_probes(self):
        """One state with sphere streams: a bandit schedule's round probes, a
        full-information schedule's round draws nothing and records no probes."""
        box = BoxConstraintSet(-0.15, 0.15, 2)
        stream = synthetic_stream(2, 2, 8, rho=1.0, seed=3)
        weights = max_degree_weights(Graph(2, [(1, 2)]))
        common = dict(p=box.count, G=10.0, radius=1.0, horizon=8, sigma=1.0)
        bandit = make_schedule("strongly-convex-bandit", **common)
        full = make_schedule("strongly-convex-full", **common)
        state = initial_state(2, box, seed=4)
        _, record = run_round(state, round_losses(stream, 1), weights, bandit, box, 1)
        assert record.queries is not None
        np.testing.assert_allclose(np.linalg.norm(record.queries - record.decisions, axis=1), bandit.eps, rtol=1e-12)
        state = initial_state(2, box, seed=4)
        _, record = run_round(state, round_losses(stream, 1), weights, full, box, 1)
        assert record.queries is None
        untouched = initial_state(2, box, seed=4).rngs
        assert [r.standard_normal() for r in state.rngs] == [r.standard_normal() for r in untouched]

    def test_bandit_state_without_rngs_is_rejected(self):
        box = BoxConstraintSet(-0.15, 0.15, 2)
        stream = zero_stream(2, 2, 1)
        hyper = make_schedule(
            "strongly-convex-bandit", p=4, G=1.0, radius=2.0, horizon=1, sigma=1.0
        )
        state = initial_state(2, box)  # no rng streams
        with pytest.raises(ValueError, match="rng"):
            run_round(state, round_losses(stream, 1), max_degree_weights(Graph(2, [(1, 2)])), hyper, box, 1)


class TestRunSeedsOnOneSeed:
    def make_inputs(self, horizon=12, seed=25):
        stream = synthetic_stream(6, 4, horizon, rho=1.0, seed=seed)
        box = BoxConstraintSet(-0.15, 0.15, 4)
        radius = box.max_vertex_norm()
        hyper = make_schedule(
            "strongly-convex-full",
            p=box.count,
            G=max(stream.bounds(radius)[0], box.gradient_bound),
            radius=radius,
            horizon=horizon,
            sigma=stream.strong_convexity,
        )
        return stream, default_ring_6(), hyper, box

    def test_shapes(self):
        stream, topology, hyper, box = self.make_inputs()
        totals = run_seeds([stream], topology, [hyper], box, [None], (4, 12))
        assert totals.system_losses.shape == (2, 1, 6)
        assert totals.violations.shape == (2, 1)

    def test_bitwise_deterministic(self):
        stream, topology, hyper, box = self.make_inputs()
        one = run_seeds([stream], topology, [hyper], box, [None], (4, 12))
        two = run_seeds([stream], topology, [hyper], box, [None], (4, 12))
        np.testing.assert_array_equal(one.system_losses, two.system_losses)
        np.testing.assert_array_equal(one.violations, two.violations)

    def test_bandit_bitwise_deterministic_per_seed(self):
        horizon = 128
        stream = synthetic_stream(6, 4, horizon, rho=1.0, seed=26)
        box = BoxConstraintSet(-0.15, 0.15, 4)
        radius = box.max_vertex_norm()
        hyper = make_schedule(
            "strongly-convex-bandit",
            p=box.count,
            G=max(stream.bounds(radius)[0], box.gradient_bound),
            radius=radius,
            horizon=horizon,
            sigma=stream.strong_convexity,
        )
        one, two, other = (
            run_seeds([stream], default_ring_6(), [hyper], box, [seed], (64, 128)) for seed in (3, 3, 4)
        )
        np.testing.assert_array_equal(one.system_losses, two.system_losses)
        np.testing.assert_array_equal(one.violations, two.violations)
        assert not np.array_equal(one.system_losses, other.system_losses)

    def test_mismatched_inputs_are_rejected(self):
        stream, topology, hyper, box = self.make_inputs()
        with pytest.raises(ValueError, match="nodes"):
            run_seeds([stream], pair_topology(), [hyper], box, [None], (12,))
        with pytest.raises(ValueError, match="constraint dimension"):
            run_seeds([stream], topology, [hyper], BoxConstraintSet(-0.15, 0.15, 3), [None], (12,))
        short = synthetic_stream(6, 4, 5, rho=1.0, seed=25)
        with pytest.raises(ValueError, match="horizon"):
            run_seeds([short], topology, [hyper], box, [None], (5,))
        wrong_p = make_schedule(
            "strongly-convex-full", p=5, G=hyper.G, radius=hyper.radius,
            horizon=12, sigma=hyper.sigma,
        )
        with pytest.raises(ValueError, match="constraint count"):
            run_seeds([stream], topology, [wrong_p], box, [None], (12,))

    def test_full_information_containment(self):
        stream, topology, hyper, box = self.make_inputs(horizon=64)
        # The blocks run_seeds sums, as the kernel lends them.
        norms = [
            float(np.linalg.norm(committed, axis=-1).max())
            for _, _, committed, *_ in algorithm._lockstep([stream], topology, [hyper], box, [None])
        ]
        assert max(norms) <= hyper.radius + 1e-12
        # Large strongly convex first steps push to the ball boundary, so the
        # projection is active at least once.
        assert max(norms) > 0.9 * hyper.radius


class TestInitialState:
    def test_zero_start(self):
        box = BoxConstraintSet(-0.15, 0.15, 3)
        state = initial_state(4, box)
        np.testing.assert_array_equal(state.decisions, np.zeros((4, 3)))
        np.testing.assert_array_equal(state.duals, np.zeros((4, 6)))
        assert state.rngs is None

    def test_bandit_gets_independent_per_unit_streams(self):
        box = BoxConstraintSet(-0.15, 0.15, 3)
        state = initial_state(3, box, seed=11)
        draws = [rng.standard_normal(4) for rng in state.rngs]
        assert not np.array_equal(draws[0], draws[1])
        again = initial_state(3, box, seed=11)
        np.testing.assert_array_equal(draws[0], again.rngs[0].standard_normal(4))

    def test_variants_tuple_is_exposed(self):
        assert VARIANTS == (
            "convex-full",
            "strongly-convex-full",
            "convex-bandit",
            "strongly-convex-bandit",
        )
