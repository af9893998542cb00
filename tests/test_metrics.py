"""Regret/violation accounting, the hindsight comparator, and bound constants."""

import math

import numpy as np
import pytest

from netoco.algorithm import VARIANTS, check_checkpoints, make_schedule, run_seeds
from netoco.metrics import (
    MetricSeries,
    averaged_metrics,
    bound_constants,
    checkpoint_grid,
    checkpoint_series,
    communication_cost,
)
from netoco.network import Graph, TopologySchedule, default_ring_6
from netoco.problems import BoxConstraintSet, RegressionRound, RegressionStream, synthetic_stream
from netoco.reference import (
    RoundRecord, box_constraints, cacv, offline_comparator, record_run, regret, sreg, system_cumulative_losses,
)


def constant_record(point, horizon, n_units, constraints):
    """A fabricated run record that commits the same point every round."""
    point = np.asarray(point, dtype=float)
    violation = box_constraints(constraints).positive_parts(point)
    return RoundRecord(
        decisions=np.tile(point, (horizon, n_units, 1)),
        losses=np.zeros((horizon, n_units)),
        violations=np.tile(violation, (horizon, n_units, 1)),
        queries=None,
    )


def score_one_seed(stream, topology, hyper, box, checkpoints, seed=None):
    """One seed run and scored by checkpoint_series."""
    (series,) = checkpoint_series([stream], topology, [hyper], box, [seed], checkpoints)
    return series


class TestOfflineComparator:
    def test_zero_curvature_returns_the_projected_origin(self):
        stream = RegressionStream(np.zeros((4, 2, 3)), np.zeros((4, 2)), 0.0)
        box = BoxConstraintSet(-0.15, 0.15, 3)
        comparator = offline_comparator(stream, box, 4)
        np.testing.assert_array_equal(comparator.point, np.zeros(3))
        assert comparator.iterations == 0
        assert comparator.objective == 0.0

    def test_clamps_to_the_box_edge_in_one_dimension(self):
        """Features 1, target 1, no ridge: the unconstrained optimum x = 1
        clamps to the upper box corner 0.15."""
        stream = RegressionStream(np.ones((5, 1, 1)), np.ones((5, 1)), 0.0)
        box = BoxConstraintSet(-0.15, 0.15, 1)
        comparator = offline_comparator(stream, box, 5)
        assert comparator.point[0] == pytest.approx(0.15, abs=1e-8)
        # Objective: 5 * 0.5 * (0.15 - 1)^2
        assert comparator.objective == pytest.approx(2.5 * 0.85**2, rel=1e-9)

    def test_interior_optimum_matches_the_normal_equations(self):
        stream = synthetic_stream(2, 2, 6, rho=2.0, seed=30)
        box = BoxConstraintSet(-5.0, 5.0, 2)  # wide enough to stay interior
        comparator = offline_comparator(stream, box, 6)
        stats = stream.sufficient_statistics(6)
        closed_form = np.linalg.solve(
            stats.gram + 2.0 * stats.rho * stats.count * np.eye(2), stats.cross
        )
        np.testing.assert_allclose(comparator.point, closed_form, atol=1e-8)

    def test_objective_matches_a_fine_grid_search(self):
        """Dual route: minimize by brute force over a 1e-3 grid of the box and
        compare objective values within 1e-5."""
        stream = synthetic_stream(2, 2, 6, rho=0.25, seed=31)
        box = BoxConstraintSet(-0.15, 0.15, 2)
        comparator = offline_comparator(stream, box, 6)
        axis = np.arange(-0.15, 0.15 + 5e-4, 1e-3)
        xs, ys = np.meshgrid(axis, axis)
        points = np.stack([xs.ravel(), ys.ravel()], axis=1)
        totals = np.zeros(len(points))
        for t in range(1, 7):
            totals += RegressionRound(stream.features[t - 1], stream.targets[t - 1], stream.rho).system_values(points)
        grid_best = float(totals.min())
        assert abs(grid_best - comparator.objective) <= 1e-5
        # The grid winner sits next to the iterate.
        winner = points[int(np.argmin(totals))]
        assert float(np.linalg.norm(winner - comparator.point)) <= 2e-3

    def test_rejects_constraints_without_projection(self):
        stream = synthetic_stream(1, 2, 2, rho=0.0, seed=0)
        with pytest.raises(ValueError, match="the comparator needs a BoxConstraintSet, got object"):
            offline_comparator(stream, object(), 2)

    def test_reports_nonconvergence(self):
        # Wide box: the optimum is interior, so three steps cannot land on it.
        stream = synthetic_stream(2, 2, 8, rho=0.0, seed=32)
        box = BoxConstraintSet(-5.0, 5.0, 2)
        with pytest.raises(RuntimeError, match="did not converge"):
            offline_comparator(stream, box, 8, tol=0.0, max_iters=3)


class TestRegret:
    def setup_method(self):
        self.stream = synthetic_stream(2, 2, 10, rho=1.0, seed=33)
        self.box = BoxConstraintSet(-0.15, 0.15, 2)
        self.comparator = offline_comparator(self.stream, self.box, 10)

    def test_zero_at_the_comparator_point(self):
        record = constant_record(self.comparator.point, 10, 2, self.box)
        for i in (1, 2):
            assert abs(regret(record, self.stream, self.comparator, i, 10)) <= 1e-7
        assert abs(sreg(record, self.stream, self.comparator, 10)) <= 1e-7

    def test_positive_away_from_the_optimum(self):
        corner = np.array([0.15, -0.15])
        record = constant_record(corner, 10, 2, self.box)
        value = regret(record, self.stream, self.comparator, 1, 10)
        stream = self.stream
        direct = sum(
            RegressionRound(stream.features[t - 1], stream.targets[t - 1], stream.rho).system_values(corner[None, :])[0]
            for t in range(1, 11)
        )
        assert value == pytest.approx(direct - self.comparator.objective, rel=1e-12)
        assert value > 0

    def test_sreg_is_the_largest_unit_regret(self):
        record = constant_record(self.comparator.point, 10, 2, self.box)
        # Move unit 2's decisions somewhere worse.
        record.decisions[:, 1, :] = np.array([0.15, 0.15])
        values = [regret(record, self.stream, self.comparator, i, 10) for i in (1, 2)]
        assert sreg(record, self.stream, self.comparator, 10) == pytest.approx(
            max(values), rel=1e-12
        )
        totals = system_cumulative_losses(record, self.stream, 10)
        np.testing.assert_allclose(
            totals - self.comparator.objective, values, rtol=1e-12
        )

    def test_unit_index_is_checked(self):
        record = constant_record(self.comparator.point, 10, 2, self.box)
        with pytest.raises(IndexError):
            regret(record, self.stream, self.comparator, 0, 10)
        with pytest.raises(IndexError):
            regret(record, self.stream, self.comparator, 3, 10)

    def test_prefix_range_is_checked(self):
        record = constant_record(self.comparator.point, 10, 2, self.box)
        with pytest.raises(ValueError, match="prefix"):
            system_cumulative_losses(record, self.stream, 11)
        with pytest.raises(ValueError, match="prefix"):
            cacv(record, 0)


class TestCacv:
    def test_hand_computed_totals(self):
        box = BoxConstraintSet(-0.15, 0.15, 1)
        record = constant_record(np.array([0.25]), 4, 3, box)
        # Violation 0.1 on the upper constraint, per unit per round.
        assert cacv(record, 1) == pytest.approx(0.3)
        assert cacv(record, 4) == pytest.approx(1.2)

    def test_monotone_in_the_prefix(self):
        rng = np.random.default_rng(34)
        violations = rng.uniform(0, 1, size=(6, 2, 3))
        record = RoundRecord(
            decisions=np.zeros((6, 2, 1)),
            losses=np.zeros((6, 2)),
            violations=violations,
            queries=None,
        )
        values = [cacv(record, T) for T in range(1, 7)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(float(violations.sum()))


class TestCommunicationCost:
    def test_default_ring_costs_six_messages_per_round(self):
        schedule = default_ring_6()
        assert communication_cost(schedule, 1) == 6
        assert communication_cost(schedule, 10) == 60
        assert communication_cost(schedule, 0) == 0

    def test_complete_graph_on_four_nodes(self):
        k4 = Graph(4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
        schedule = TopologySchedule([k4], window=1)
        assert communication_cost(schedule, 7) == 7 * 12

    def test_partial_periods_split_correctly(self):
        sparse = Graph(3, [(1, 2)])
        dense = Graph(3, [(1, 2), (2, 3), (1, 3)])
        schedule = TopologySchedule([sparse, dense], window=2)
        # Rounds alternate 1 edge, 3 edges: costs 2, 8, 10, 16, ...
        assert [communication_cost(schedule, T) for T in range(5)] == [0, 2, 8, 10, 16]

    def test_rejects_negative_prefix(self):
        with pytest.raises(ValueError, match="T"):
            communication_cost(default_ring_6(), -1)


class TestCheckpointGrid:
    def test_power_of_two_horizon(self):
        assert checkpoint_grid(8192) == (512, 1024, 2048, 4096, 8192)
        assert checkpoint_grid(16) == (1, 2, 4, 8, 16)

    def test_general_horizon_doubles_from_the_sixteenth(self):
        assert checkpoint_grid(100) == (7, 14, 28, 56, 100)
        assert checkpoint_grid(17) == (2, 4, 8, 16, 17)

    def test_tiny_horizons(self):
        assert checkpoint_grid(1) == (1,)
        assert checkpoint_grid(2) == (1, 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            checkpoint_grid(0)


class TestCheckpointSeries:
    def make_run(self, horizon=24):
        stream = synthetic_stream(6, 4, horizon, rho=1.0, seed=35)
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

    def test_matches_standalone_metrics_checkpoint_by_checkpoint(self):
        """Dual route: the single-pass series must equal independent regret,
        cacv, and communication computations at every checkpoint."""
        stream, topology, hyper, box = self.make_run()
        checkpoints = (3, 8, 24)
        series = score_one_seed(stream, topology, hyper, box, checkpoints)
        record = record_run(stream, topology, hyper, box)
        assert series.checkpoints == checkpoints
        for k, T in enumerate(checkpoints):
            comparator = offline_comparator(stream, box, T)
            for i in range(1, 7):
                assert series.regrets[k, i - 1] == pytest.approx(
                    regret(record, stream, comparator, i, T), rel=1e-10, abs=1e-10
                )
            assert series.sreg[k] == pytest.approx(
                sreg(record, stream, comparator, T), rel=1e-10, abs=1e-10
            )
            assert series.cacv[k] == pytest.approx(cacv(record, T), rel=1e-12)
            assert series.comm_cost[k] == communication_cost(topology, T)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_equals_the_per_round_sums_bit_for_bit(self, variant):
        """Dual route, exactly: run_seeds sums the kernel's run a 128-round
        block at a time, reference adds the chained rounds' record round by
        round. T = 300 spans three blocks, the last partial, with checkpoints in
        each. CACV is summed in another order by reference.cacv (one pairwise
        sum), so it is approximate."""
        horizon, checkpoints = 300, (50, 128, 129, 200, 256, 300)
        strongly = variant.startswith("strongly")
        stream = synthetic_stream(6, 4, horizon, rho=1.0 if strongly else 0.0, seed=41)
        box = BoxConstraintSet(-0.15, 0.15, 4)
        # Radius 1 keeps the bandit shrinkage 1 / (R T^b) below 1.
        hyper = make_schedule(
            variant, p=box.count, G=max(stream.bounds(1.0)[0], box.gradient_bound), radius=1.0,
            horizon=horizon, c=None if strongly else 0.75, sigma=stream.strong_convexity if strongly else None,
        )
        series = score_one_seed(stream, default_ring_6(), hyper, box, checkpoints, seed=3)
        record = record_run(stream, default_ring_6(), hyper, box, seed=3)
        for k, T in enumerate(checkpoints):
            comparator = offline_comparator(stream, box, T)
            for i in range(1, 7):
                assert series.regrets[k, i - 1] == regret(record, stream, comparator, i, T), (T, i)
            assert series.sreg[k] == sreg(record, stream, comparator, T), T
            assert series.cacv[k] == pytest.approx(cacv(record, T), rel=1e-12)

    def test_checkpoint_validation(self):
        stream, topology, hyper, box = self.make_run(horizon=8)
        with pytest.raises(ValueError, match="strictly increasing"):
            run_seeds([stream], topology, [hyper], box, [None], (4, 2))
        with pytest.raises(ValueError, match="strictly increasing"):
            run_seeds([stream], topology, [hyper], box, [None], (2, 2, 4))
        with pytest.raises(ValueError, match="at least one"):
            run_seeds([stream], topology, [hyper], box, [None], ())
        with pytest.raises(ValueError, match="prefix"):
            run_seeds([stream], topology, [hyper], box, [None], (2, 9))
        with pytest.raises(ValueError, match="prefix"):
            checkpoint_series([stream], topology, [hyper], box, [None], (2, 9))

    def test_streams_of_two_unit_counts_are_rejected(self):
        stream, topology, hyper, box = self.make_run(horizon=8)
        streams = [stream, synthetic_stream(3, 4, 8, 1.0, 2)]
        with pytest.raises(ValueError, match="must agree on N, d, T and rho"):
            checkpoint_series(streams, topology, [hyper, hyper], box, [None, None], (8,))

    def test_non_integral_checkpoints_are_refused(self):
        """int() would truncate 16.9 to 16 and the series would still carry the label 16.9;
        ints and numpy integers pass, as ints."""
        stream, topology, hyper, box = self.make_run(horizon=64)
        with pytest.raises(ValueError, match=r"checkpoint must be an integer, got 2\.5"):
            check_checkpoints((2.5, 9.99, 12.2), 20)
        with pytest.raises(ValueError, match=r"checkpoint must be an integer, got 16\.9"):
            checkpoint_series([stream], topology, [hyper], box, [None], (16.9, 64.0))
        checked = check_checkpoints(np.array([16, 64]), 64)
        assert checked == (16, 64) and all(type(T) is int for T in checked)
        assert score_one_seed(stream, topology, hyper, box, np.array([16, 64])).checkpoints == (16, 64)

    def test_checkpoints_may_come_from_a_generator(self):
        """The checkpoints are read once, so a one-shot iterable both runs and labels the series."""
        stream, topology, hyper, box = self.make_run()
        series = score_one_seed(stream, topology, hyper, box, (T for T in (8, 24)))
        assert series.checkpoints == (8, 24)
        assert np.array_equal(series.regrets, score_one_seed(stream, topology, hyper, box, (8, 24)).regrets)


class TestAveragedMetrics:
    def series(self, sreg_row, regret_rows, cacv_row, comm=(6, 12)):
        return MetricSeries(
            checkpoints=(1, 2),
            sreg=np.array(sreg_row, dtype=float),
            regrets=np.array(regret_rows, dtype=float),
            cacv=np.array(cacv_row, dtype=float),
            comm_cost=np.array(comm, dtype=np.int64),
        )

    def test_entrywise_means(self):
        one = self.series([1.0, 2.0], [[1.0, 0.5], [2.0, 1.0]], [0.0, 4.0])
        two = self.series([3.0, 6.0], [[3.0, 2.5], [6.0, 3.0]], [2.0, 8.0])
        mean = averaged_metrics([one, two])
        np.testing.assert_allclose(mean.sreg, [2.0, 4.0])
        np.testing.assert_allclose(mean.regrets, [[2.0, 1.5], [4.0, 2.0]])
        np.testing.assert_allclose(mean.cacv, [1.0, 6.0])
        np.testing.assert_array_equal(mean.comm_cost, [6, 12])

    def test_mean_of_max_differs_from_max_of_mean(self):
        """Seeds with opposite worst units: the averaged sreg keeps the
        per-seed maxima, the row maxima of averaged regrets are smaller."""
        one = self.series([10.0, 10.0], [[0.0, 10.0], [0.0, 10.0]], [0.0, 0.0])
        two = self.series([10.0, 10.0], [[10.0, 0.0], [10.0, 0.0]], [0.0, 0.0])
        mean = averaged_metrics([one, two])
        np.testing.assert_allclose(mean.sreg, [10.0, 10.0])  # mean of maxima
        np.testing.assert_allclose(mean.regrets.max(axis=1), [5.0, 5.0])  # max of means

    def test_mismatches_are_rejected(self):
        base = self.series([1.0, 2.0], [[1.0, 0.5], [2.0, 1.0]], [0.0, 4.0])
        other_grid = MetricSeries(
            checkpoints=(1, 3),
            sreg=np.zeros(2),
            regrets=np.zeros((2, 2)),
            cacv=np.zeros(2),
            comm_cost=np.array([6, 12], dtype=np.int64),
        )
        with pytest.raises(ValueError, match="grids differ"):
            averaged_metrics([base, other_grid])
        other_comm = self.series([1.0, 2.0], [[1.0, 0.5], [2.0, 1.0]], [0.0, 4.0], comm=(6, 18))
        with pytest.raises(ValueError, match="communication"):
            averaged_metrics([base, other_comm])
        with pytest.raises(ValueError, match="nothing"):
            averaged_metrics([])


class TestBoundConstants:
    def test_contraction_base_for_the_default_network(self):
        constants = bound_constants(
            "convex-full", n_units=6, window=2, zeta=0.5, p=12, G=1.0, radius=1.0, c=0.5
        )
        assert constants.psi == pytest.approx(287.0 / 288.0, rel=1e-15)

    def test_disagreement_constant_hand_computed(self):
        """N = 1, B = 1, zeta = 1: psi = 3/4, so
        c_hat = 2 (3 / ((3/4)^3 (1/4)) + 4) = 1752/27."""
        constants = bound_constants(
            "convex-full", n_units=1, window=1, zeta=1.0, p=1, G=1.0, radius=1.0, c=0.5
        )
        assert constants.psi == pytest.approx(0.75)
        assert constants.c_hat == pytest.approx(1752.0 / 27.0, rel=1e-12)

    def test_violation_constant_square_root_seven(self):
        """Convex full information with a = 2, p = 1, G = R = 1, N = 1:
        the violation constant is sqrt(1 + 4 + 2) = sqrt(7)."""
        constants = bound_constants(
            "convex-full", n_units=1, window=1, zeta=1.0, p=1, G=1.0, radius=1.0, c=0.5
        )
        assert constants.cacv_constant == pytest.approx(math.sqrt(7.0), rel=1e-12)

    def test_a_network_too_large_for_the_contraction_gap_is_rejected(self):
        # zeta / (4 N^2) = 1.25e-19 is below half an ulp of one, so psi rounds to 1.
        with pytest.raises(ValueError, match="contraction gap"):
            bound_constants(
                "convex-full", n_units=10**9, window=2, zeta=0.5, p=8, G=1.0, radius=0.3, c=0.5
            )

    def test_strongly_convex_constants_hand_computed(self):
        constants = bound_constants(
            "strongly-convex-full",
            n_units=1,
            window=1,
            zeta=1.0,
            p=1,
            G=1.0,
            radius=1.0,
            sigma=2.0,
        )
        ch = 1752.0 / 27.0
        assert constants.sreg_constant == pytest.approx(
            (4.0 + 4.0 * ch + ch * ch) / 4.0, rel=1e-12
        )
        assert constants.cacv_constant == pytest.approx(
            4.0 / math.sqrt(2.0) * (1.0 + math.sqrt(0.5)), rel=1e-12
        )

    def test_bandit_constants_hand_computed(self):
        ch = 1752.0 / 27.0
        convex = bound_constants(
            "convex-bandit",
            n_units=1,
            window=1,
            zeta=1.0,
            p=1,
            G=1.0,
            radius=1.0,
            c=0.5,
            C=2.0,
            dimension=3,
        )
        assert convex.sreg_constant == pytest.approx(
            3.0 + 2.0 * ch * 3.0 / 2.0 + 4.0 * 9.0 / 2.0 + 1.0 + ch * ch / 8.0, rel=1e-12
        )
        assert convex.cacv_constant == pytest.approx(math.sqrt(36.0 + 4.0 + 2.0), rel=1e-12)
        strongly = bound_constants(
            "strongly-convex-bandit",
            n_units=1,
            window=1,
            zeta=1.0,
            p=1,
            G=1.0,
            radius=1.0,
            sigma=1.0,
            C=2.0,
            dimension=3,
        )
        assert strongly.sreg_constant == pytest.approx(
            3.0 + 0.5 * (4.0 * 2.0 * ch * 3.0 + 4.0 * 4.0 * 9.0 + ch * ch), rel=1e-12
        )
        assert strongly.cacv_constant == pytest.approx(4.0 * (1.0 + 6.0), rel=1e-12)

    def test_growth_laws(self):
        kw = dict(n_units=6, window=2, zeta=0.5, p=12, G=1.0, radius=1.0)
        cf = bound_constants("convex-full", c=0.25, **kw)
        # max(c, 1 - c) = 0.75 governs regret; 1 - c/2 = 0.875 governs violation.
        assert cf.sreg_bound(256) == pytest.approx(cf.sreg_constant * 256.0**0.75)
        assert cf.cacv_bound(256) == pytest.approx(cf.cacv_constant * 256.0**0.875)
        sc = bound_constants("strongly-convex-full", sigma=2.0, **kw)
        assert sc.sreg_bound(256) == pytest.approx(sc.sreg_constant * math.log(256.0))
        assert sc.cacv_bound(256) == pytest.approx(
            sc.cacv_constant * math.sqrt(256.0 * math.log(256.0))
        )
        cb = bound_constants("convex-bandit", c=0.75, C=1.0, dimension=4, **kw)
        assert cb.sreg_bound(256) == pytest.approx(cb.sreg_constant * 256.0**0.75)
        assert cb.cacv_bound(256) == pytest.approx(cb.cacv_constant * 256.0**0.625)
        scb = bound_constants("strongly-convex-bandit", sigma=2.0, C=1.0, dimension=4, **kw)
        assert scb.sreg_bound(256) == pytest.approx(
            scb.sreg_constant * 256.0 ** (2.0 / 3.0) * math.log(256.0)
        )

    def test_parameter_validation(self):
        kw = dict(n_units=6, window=2, zeta=0.5, p=12, G=1.0, radius=1.0)
        with pytest.raises(ValueError, match="unknown variant"):
            bound_constants("solipsistic", c=0.5, **kw)
        with pytest.raises(ValueError, match="zeta"):
            bound_constants("convex-full", c=0.5, **{**kw, "zeta": 0.0})
        with pytest.raises(ValueError, match="zeta"):
            bound_constants("convex-full", c=0.5, **{**kw, "zeta": 1.5})
        with pytest.raises(ValueError, match="sigma"):
            bound_constants("strongly-convex-full", **kw)
        with pytest.raises(ValueError, match="c in"):
            bound_constants("convex-full", c=1.5, **kw)
        with pytest.raises(ValueError, match="a must"):
            bound_constants("convex-full", c=0.5, a=1.0, **kw)
        with pytest.raises(ValueError, match="C > 0"):
            bound_constants("convex-bandit", c=0.5, **kw)
        with pytest.raises(ValueError, match="C > 0"):
            bound_constants("convex-bandit", c=0.5, C=1.0, **kw)  # missing dimension
        with pytest.raises(ValueError, match=">= 1"):
            bound_constants("convex-full", c=0.5, **{**kw, "n_units": 0})
