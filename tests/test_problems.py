"""Loss oracles, constraints, streams, and the sparse-text parser."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netoco.problems import (
    BoxConstraintSet,
    DatasetTable,
    ParseError,
    RegressionRound,
    dataset_stream,
    parse_libsvm,
    serialize_libsvm,
    synthetic_stream,
)
from netoco.reference import box_constraints, clipped_subgradient, loss_gradients, loss_values, regression_loss


def random_example(rng, dimension=4):
    """One slot's (features, target)."""
    return rng.uniform(-1, 1, dimension), float(rng.normal())


class TestRegressionLoss:
    def test_gradient_matches_central_differences(self):
        """Finite differences with step 1e-6 agree with the closed form to 1e-5
        relative error."""
        rng = np.random.default_rng(0)
        step = 1e-6
        for _ in range(20):
            example = random_example(rng)
            oracle = regression_loss(*example, rho=float(rng.uniform(0, 2)))
            x = rng.uniform(-0.5, 0.5, 4)
            grad = oracle.gradient(x)
            for m in range(4):
                shift = np.zeros(4)
                shift[m] = step
                numeric = (oracle.value(x + shift) - oracle.value(x - shift)) / (2 * step)
                assert abs(numeric - grad[m]) <= 1e-5 * max(1.0, abs(grad[m]))

    def test_pure_ridge_case(self):
        oracle = regression_loss(np.zeros(3), 0.0, rho=1.0)
        x = np.array([0.5, -0.25, 0.25])
        assert oracle.value(x) == pytest.approx(float(x @ x))
        np.testing.assert_allclose(oracle.gradient(x), 2 * x)
        assert oracle.gradient_bound(0.3) == pytest.approx(0.6)
        assert oracle.value_bound(0.3) == pytest.approx(0.09)
        assert oracle.strong_convexity == 2.0

    def test_bounds_dominate_sampled_values(self):
        rng = np.random.default_rng(1)
        radius = 0.3
        for _ in range(5):
            example = random_example(rng)
            oracle = regression_loss(*example, rho=float(rng.uniform(0, 2)))
            g_bound = oracle.gradient_bound(radius)
            v_bound = oracle.value_bound(radius)
            directions = rng.normal(size=(2000, 4))
            points = directions / np.linalg.norm(directions, axis=1, keepdims=True)
            points *= rng.uniform(0, radius, size=(2000, 1))
            for x in points:
                assert np.linalg.norm(oracle.gradient(x)) <= g_bound + 1e-12
                assert abs(oracle.value(x)) <= v_bound + 1e-12

    def test_strong_convexity_inequality(self):
        """value(y) >= value(x) + grad(x).(y - x) + (sigma/2) ||y - x||^2 on
        1000 random pairs, within 1e-9 slack."""
        rng = np.random.default_rng(2)
        example = random_example(rng)
        rho = 1.5
        oracle = regression_loss(*example, rho=rho)
        sigma = oracle.strong_convexity
        assert sigma == pytest.approx(2 * rho)
        for _ in range(1000):
            x = rng.uniform(-1, 1, 4)
            y = rng.uniform(-1, 1, 4)
            lhs = oracle.value(y)
            rhs = (
                oracle.value(x)
                + float(oracle.gradient(x) @ (y - x))
                + 0.5 * sigma * float((y - x) @ (y - x))
            )
            assert lhs >= rhs - 1e-9

    def test_rejects_negative_rho(self):
        with pytest.raises(ValueError, match="rho"):
            regression_loss(np.zeros(2), 0.0, rho=-0.1)

    @pytest.mark.parametrize("rho", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
    def test_loss_and_stream_reject_a_non_finite_rho_by_name(self, rho):
        with pytest.raises(ValueError, match=f"rho must be finite and >= 0, got rho = {rho}"):
            regression_loss(np.zeros(2), 0.0, rho=rho)
        with pytest.raises(ValueError, match=f"rho must be finite and >= 0, got rho = {rho}"):
            synthetic_stream(6, 4, 64, rho, 1)


class TestBoxConstraints:
    def setup_method(self):
        self.box = BoxConstraintSet(-0.15, 0.15, 3)

    def test_layout_lower_then_upper(self):
        x = np.array([0.2, 0.0, -0.3])
        values = box_constraints(self.box).values(x)
        np.testing.assert_allclose(values[:3], [-0.15 - 0.2, -0.15, -0.15 + 0.3])
        np.testing.assert_allclose(values[3:], [0.05, -0.15, -0.45])
        assert self.box.count == 6
        assert self.box.gradient_bound == 1.0

    def test_clipped_subgradient_cases(self):
        inside = np.zeros(3)
        for s in range(1, 7):
            np.testing.assert_array_equal(clipped_subgradient(self.box, inside, s), np.zeros(3))
        # Coordinate 1 above the upper bound: constraint 4 is active.
        above = np.array([0.2, 0.0, 0.0])
        np.testing.assert_array_equal(
            clipped_subgradient(self.box, above, 4), np.array([1.0, 0.0, 0.0])
        )
        below = np.array([0.0, -0.2, 0.0])
        np.testing.assert_array_equal(
            clipped_subgradient(self.box, below, 2), np.array([0.0, -1.0, 0.0])
        )

    def test_clipped_subgradient_is_zero_on_the_boundary(self):
        boundary = np.array([0.15, -0.15, 0.0])
        for s in range(1, 7):
            np.testing.assert_array_equal(
                clipped_subgradient(self.box, boundary, s), np.zeros(3)
            )

    def test_positive_parts_rows_matches_generic_loop(self):
        rng = np.random.default_rng(3)
        rows = rng.uniform(-0.4, 0.4, size=(8, 3))
        expected = np.stack([box_constraints(self.box).positive_parts(row) for row in rows])
        np.testing.assert_array_equal(self.box.positive_parts_rows(rows), expected)

    def test_weighted_subgradients_match_generic_set(self):
        """The generic set that states the box (box_constraints) weights -e_m where
        x_m is below the lower face and +e_m where it is above the upper one."""
        rng = np.random.default_rng(4)
        rows = rng.uniform(-0.4, 0.4, size=(8, 3))
        duals = rng.uniform(0, 2, size=(8, 6))
        expected = duals[:, 3:] * (rows > 0.15) - duals[:, :3] * (rows < -0.15)
        np.testing.assert_array_equal(box_constraints(self.box).weighted_subgradient_rows(rows, duals), expected)

    def test_projection_and_vertex_norm(self):
        np.testing.assert_allclose(
            self.box.project(np.array([0.5, -0.5, 0.1])), [0.15, -0.15, 0.1]
        )
        assert self.box.max_vertex_norm() == pytest.approx(0.15 * np.sqrt(3))

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError, match="lower < upper"):
            BoxConstraintSet(0.2, 0.2, 2)

    def test_index_bounds(self):
        with pytest.raises(IndexError):
            box_constraints(self.box).value(np.zeros(3), 0)
        with pytest.raises(IndexError):
            box_constraints(self.box).gradient(np.zeros(3), 7)


class TestRoundPanel:
    def test_vectorized_paths_match_per_oracle_loops(self):
        """Round panels must agree with per-(unit, round) oracles: same values,
        gradients, and system sums."""
        stream = synthetic_stream(n_units=5, dimension=3, horizon=4, rho=0.7, seed=11)
        rng = np.random.default_rng(5)
        for t in range(1, 5):
            panel = RegressionRound(stream.features[t - 1], stream.targets[t - 1], stream.rho)
            rows = rng.uniform(-0.3, 0.3, size=(5, 3))
            values, grads = loss_values(panel, rows), loss_gradients(panel, rows)
            for i in range(1, 6):
                oracle = regression_loss(stream.features[t - 1, i - 1], stream.targets[t - 1, i - 1], stream.rho)
                assert values[i - 1] == pytest.approx(oracle.value(rows[i - 1]), rel=1e-12)
                np.testing.assert_allclose(
                    grads[i - 1], oracle.gradient(rows[i - 1]), rtol=1e-12, atol=1e-15
                )
            points = rng.uniform(-0.3, 0.3, size=(2, 3))
            system = panel.system_values(points)
            for k, point in enumerate(points):
                direct = sum(
                    regression_loss(stream.features[t - 1, i - 1], stream.targets[t - 1, i - 1], stream.rho).value(point)
                    for i in range(1, 6)
                )
                assert system[k] == pytest.approx(direct, rel=1e-12)

    def test_sufficient_statistics_match_direct_accumulation(self):
        stream = synthetic_stream(n_units=3, dimension=4, horizon=6, rho=0.5, seed=12)
        stats = stream.sufficient_statistics(5)
        gram = np.zeros((4, 4))
        cross = np.zeros(4)
        tss = 0.0
        for t in range(1, 6):
            for i in range(1, 4):
                features, target = stream.features[t - 1, i - 1], stream.targets[t - 1, i - 1]
                gram += np.outer(features, features)
                cross += features * target
                tss += target**2
        np.testing.assert_allclose(stats.gram, gram, rtol=1e-12)
        np.testing.assert_allclose(stats.cross, cross, rtol=1e-12)
        assert stats.target_square_sum == pytest.approx(tss, rel=1e-12)
        assert stats.count == 15
        assert stats.rho == 0.5


class TestSyntheticStream:
    def test_bitwise_deterministic(self):
        one = synthetic_stream(6, 4, 32, 0.0, seed=9)
        two = synthetic_stream(6, 4, 32, 0.0, seed=9)
        np.testing.assert_array_equal(one.features, two.features)
        np.testing.assert_array_equal(one.targets, two.targets)

    def test_seeds_and_units_decouple(self):
        base = synthetic_stream(2, 4, 16, 0.0, seed=9)
        other = synthetic_stream(2, 4, 16, 0.0, seed=10)
        assert not np.array_equal(base.features, other.features)
        assert not np.array_equal(base.features[:, 0], base.features[:, 1])

    def test_targets_center_on_the_planted_vector(self):
        """b - a.xbar is standard normal noise: mean near 0, variance near 1."""
        stream = synthetic_stream(4, 4, 5000, 0.0, seed=13)
        xbar = np.array([1.0, 1.0, 0.0, 0.0])
        noise = stream.targets - stream.features @ xbar
        assert abs(noise.mean()) < 0.02
        assert abs(noise.std() - 1.0) < 0.02

    def test_feature_entries_obey_the_law_of_large_numbers(self):
        stream = synthetic_stream(2, 4, 12500, 0.0, seed=14)
        assert stream.features.size == 100000
        assert -0.01 <= stream.features.mean() <= 0.01
        assert float(stream.features.min()) >= -1.0
        assert float(stream.features.max()) <= 1.0

    def test_odd_dimension_plants_floor_half_ones(self):
        stream = synthetic_stream(1, 5, 2000, 0.0, seed=15)
        xbar = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
        noise = stream.targets - stream.features @ xbar
        assert abs(noise.mean()) < 0.05

    def test_gradient_bound_is_a_realized_maximum(self):
        stream = synthetic_stream(3, 4, 64, 0.5, seed=16)
        radius = 0.3
        per_oracle = max(
            regression_loss(stream.features[t - 1, i - 1], stream.targets[t - 1, i - 1], stream.rho).gradient_bound(radius)
            for i in range(1, 4)
            for t in range(1, 65)
        )
        assert stream.bounds(radius)[0] == pytest.approx(per_oracle, rel=1e-12)
        per_value = max(
            regression_loss(stream.features[t - 1, i - 1], stream.targets[t - 1, i - 1], stream.rho).value_bound(radius)
            for i in range(1, 4)
            for t in range(1, 65)
        )
        assert stream.bounds(radius)[1] == pytest.approx(per_value, rel=1e-12)


def rescaled(features, targets):
    return DatasetTable(np.array(features, dtype=float), np.array(targets, dtype=float)).rescaled()


class TestDatasetStream:
    def test_single_example_fills_every_slot(self):
        stream = dataset_stream(rescaled([[2.0, -1.0]], [5.0]), n_units=2, horizon=3, rho=0.0, seed=0)
        # One row: every coordinate is constant, so rescaling sends it to zero.
        np.testing.assert_array_equal(stream.features, np.zeros((3, 2, 2)))
        np.testing.assert_array_equal(stream.targets, np.full((3, 2), 5.0))

    def test_rescaling_hits_both_endpoints(self):
        table = rescaled([[0.0, 10.0], [5.0, 30.0], [10.0, 20.0]], [1.0, 2.0, 3.0])
        stream = dataset_stream(table, n_units=1, horizon=3, rho=0.0, seed=1)
        flat = stream.features.reshape(-1, 2)
        assert flat.min() == -1.0
        assert flat.max() == 1.0
        assert set(np.round(flat[:, 0], 12)) == {-1.0, 0.0, 1.0}

    def test_no_repeats_until_the_dataset_is_exhausted(self):
        rng = np.random.default_rng(6)
        table = rescaled(rng.uniform(-1, 1, (12, 3)), range(12))
        stream = dataset_stream(table, n_units=3, horizon=4, rho=0.0, seed=2)
        assert sorted(stream.targets.reshape(-1).tolist()) == list(map(float, range(12)))

    def test_cycling_balances_usage(self):
        table = rescaled(np.arange(5.0)[:, None], range(5))
        stream = dataset_stream(table, n_units=2, horizon=6, rho=0.0, seed=3)
        _, counts = np.unique(stream.targets, return_counts=True)
        assert counts.max() - counts.min() <= 1

    def test_deterministic_for_a_seed(self):
        rng = np.random.default_rng(7)
        table = rescaled(rng.uniform(-1, 1, (9, 3)), range(9))
        one = dataset_stream(table, 2, 5, 0.0, seed=4)
        two = dataset_stream(table, 2, 5, 0.0, seed=4)
        np.testing.assert_array_equal(one.features, two.features)
        assert not np.array_equal(
            one.features, dataset_stream(table, 2, 5, 0.0, seed=5).features
        )

    def test_rejects_an_empty_table(self):
        with pytest.raises(ValueError, match="empty"):
            dataset_stream(DatasetTable(np.zeros((0, 2)), np.zeros(0)), 1, 1, 0.0, seed=0)


class TestParseLibsvm:
    def test_parses_labels_sparsity_and_dimension(self):
        text = "1.5 1:0.5 3:-2\n-0.25 2:4\n\n7 \n"
        table = parse_libsvm(text)
        np.testing.assert_array_equal(
            table.features, [[0.5, 0.0, -2.0], [0.0, 4.0, 0.0], [0.0, 0.0, 0.0]], strict=True
        )
        np.testing.assert_array_equal(table.targets, [1.5, -0.25, 7.0], strict=True)

    def test_accepts_bytes_and_crlf(self):
        table = parse_libsvm(b"1 1:2\r\n2 2:3\r\n")
        assert table.features.shape == (2, 2)
        assert table.targets.tolist() == [1.0, 2.0]

    def test_rejects_bad_label_with_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_libsvm("1 1:2\nx 1:2\n")

    def test_rejects_malformed_pair(self):
        with pytest.raises(ParseError, match="line 1.*idx:val"):
            parse_libsvm("1 15\n")

    def test_rejects_non_increasing_indices(self):
        with pytest.raises(ParseError, match="line 3.*not increasing"):
            parse_libsvm("1 1:1\n1 1:1 2:2\n1 2:2 2:3\n")

    def test_rejects_index_below_one(self):
        with pytest.raises(ParseError, match="line 1.*< 1"):
            parse_libsvm("1 0:3\n")

    def test_rejects_bad_value_and_bad_index(self):
        with pytest.raises(ParseError, match="line 1.*value"):
            parse_libsvm("1 1:zzz\n")
        with pytest.raises(ParseError, match="line 1.*index"):
            parse_libsvm("1 a:1\n")

    def test_rejects_non_finite_numbers(self):
        with pytest.raises(ParseError, match="non-finite"):
            parse_libsvm("nan 1:1\n")
        with pytest.raises(ParseError, match="non-finite"):
            parse_libsvm("1 1:inf\n")

    def test_rejects_invalid_utf8(self):
        with pytest.raises(ParseError, match="UTF-8"):
            parse_libsvm(b"\xff\xfe1 1:2\n")

    def test_round_trip_is_a_fixed_point(self):
        text = "1.5 1:0.5 3:-2\n-0.25 2:4\n7\n"
        table = parse_libsvm(text)
        again = parse_libsvm(serialize_libsvm(table))
        np.testing.assert_array_equal(again.features, table.features, strict=True)
        np.testing.assert_array_equal(again.targets, table.targets, strict=True)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_round_trip_fixed_point_on_random_tables(self, data):
        """parse -> serialize -> parse reproduces labels and features exactly,
        provided the last coordinate is realized somewhere."""
        n_rows = data.draw(st.integers(1, 6))
        dimension = data.draw(st.integers(1, 5))
        finite = st.floats(
            min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=64
        )
        size = n_rows * dimension
        features = np.array(data.draw(st.lists(finite, min_size=size, max_size=size))).reshape(n_rows, dimension)
        if features[0, -1] == 0.0:
            features[0, -1] = 1.0
        targets = np.array(data.draw(st.lists(finite, min_size=n_rows, max_size=n_rows)))
        parsed = parse_libsvm(serialize_libsvm(DatasetTable(features, targets)))
        np.testing.assert_array_equal(parsed.features, features, strict=True)
        np.testing.assert_array_equal(parsed.targets, targets, strict=True)
