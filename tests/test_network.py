"""Graphs, mixing weights, connectivity windows, and product contraction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netoco.network import (
    Graph,
    TopologySchedule,
    WeightMatrix,
    default_ring_6,
    max_degree_weights,
    schedule_from_graphs,
    validate_mixing,
    verify_window_connectivity,
)
from netoco.reference import consensus_mix, product_deviation


class TestGraph:
    def test_edges_are_canonicalized_and_sorted(self):
        g = Graph(4, ((3, 1), (4, 2)))
        assert g.edges == ((1, 3), (2, 4))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, ((2, 2),))

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValueError, match="leaves"):
            Graph(3, ((1, 4),))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, ((1, 2), (2, 1)))


class TestMaxDegreeWeights:
    def test_three_node_path(self):
        # Max degree 2: edges get 1/3, diagonals absorb 2/3, 1/3, 2/3.
        w = max_degree_weights(Graph(3, ((1, 2), (2, 3))))
        expected = np.array(
            [
                [2 / 3, 1 / 3, 0.0],
                [1 / 3, 1 / 3, 1 / 3],
                [0.0, 1 / 3, 2 / 3],
            ]
        )
        np.testing.assert_allclose(w.entries, expected, rtol=0, atol=1e-15)
        assert w.zeta == pytest.approx(1 / 3, abs=1e-15)

    def test_single_edge_pair(self):
        w = max_degree_weights(Graph(2, ((1, 2),)))
        np.testing.assert_array_equal(w.entries, np.full((2, 2), 0.5))
        assert w.zeta == 0.5

    def test_empty_graph_is_identity(self):
        w = max_degree_weights(Graph(3, ()))
        np.testing.assert_array_equal(w.entries, np.eye(3))
        assert w.zeta == 1.0

    def test_complete_triangle_is_uniform(self):
        w = max_degree_weights(Graph(3, ((1, 2), (1, 3), (2, 3))))
        np.testing.assert_allclose(w.entries, np.full((3, 3), 1 / 3), rtol=0, atol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_random_graphs_give_doubly_stochastic_weights(self, data):
        """Rows and columns sum to one, support matches the graph, zeta is the
        smallest positive entry."""
        n = data.draw(st.integers(2, 7))
        possible = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        chosen = data.draw(st.sets(st.sampled_from(possible), max_size=len(possible)))
        g = Graph(n, tuple(chosen))
        w = max_degree_weights(g)
        np.testing.assert_allclose(w.entries.sum(axis=0), np.ones(n), atol=1e-12, rtol=0)
        np.testing.assert_allclose(w.entries.sum(axis=1), np.ones(n), atol=1e-12, rtol=0)
        np.testing.assert_array_equal(w.entries, w.entries.T)
        assert w.zeta == w.entries[w.entries > 0].min()
        report = validate_mixing(w, g)
        assert report.passed, report.violations


class TestValidateMixing:
    def setup_method(self):
        self.graph = Graph(3, ((1, 2), (2, 3)))
        self.good = max_degree_weights(self.graph)

    def test_detects_broken_row_sum(self):
        entries = self.good.entries.copy()
        entries[0, 0] += 1e-6
        report = validate_mixing(WeightMatrix(entries, self.good.zeta), self.graph)
        assert not report.passed
        assert any("row sums" in v for v in report.violations)

    def test_detects_off_support_weight(self):
        entries = np.full((3, 3), 1 / 3)  # positive on the absent edge (1, 3)
        report = validate_mixing(WeightMatrix(entries, 1 / 3), self.graph)
        assert not report.passed
        assert any("off the edge support" in v for v in report.violations)

    def test_detects_zero_diagonal(self):
        entries = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        report = validate_mixing(WeightMatrix(entries, 1.0), Graph(3, ((1, 2),)))
        assert not report.passed
        assert any("diagonal" in v for v in report.violations)

    def test_detects_wrong_zeta(self):
        report = validate_mixing(WeightMatrix(self.good.entries, 0.25), self.graph)
        assert not report.passed
        assert any("zeta" in v for v in report.violations)

    def test_detects_shape_mismatch(self):
        report = validate_mixing(self.good, Graph(4, ((1, 2),)))
        assert not report.passed


class TestDefaultRing6:
    def test_weights_are_exactly_half(self):
        schedule = default_ring_6()
        assert schedule.period == 4
        assert schedule.window == 2
        assert schedule.zeta == 0.5
        for w in schedule.weights:
            assert w.zeta == 0.5
            positive = w.entries[w.entries > 0]
            np.testing.assert_array_equal(positive, np.full(positive.shape, 0.5))

    def test_consecutive_union_is_the_six_cycle(self):
        schedule = default_ring_6()
        union = set(schedule.graph_at(1).edges) | set(schedule.graph_at(2).edges)
        assert union == {(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)}

    def test_validates(self):
        schedule = default_ring_6()
        for g, w in zip(schedule.graphs, schedule.weights):
            assert validate_mixing(w, g).passed


class TestSchedule:
    def test_round_indexing_wraps(self):
        g1 = Graph(2, ((1, 2),))
        g2 = Graph(2, ())
        schedule = schedule_from_graphs((g1, g2), window=2)
        assert schedule.graph_at(1) is g1
        assert schedule.graph_at(2) is g2
        assert schedule.graph_at(3) is g1
        assert schedule.weights_at(4) is schedule.weights[1]
        with pytest.raises(ValueError, match="1-indexed"):
            schedule.graph_at(0)

    def test_rejects_mixed_node_counts(self):
        with pytest.raises(ValueError, match="node count"):
            schedule_from_graphs((Graph(2, ()), Graph(3, ())), window=1)

    def test_zeta_is_the_schedule_minimum(self):
        path = Graph(3, ((1, 2), (2, 3)))  # zeta 1/3
        pair = Graph(3, ((1, 2),))  # zeta 1/2
        schedule = schedule_from_graphs((path, pair), window=2)
        assert schedule.zeta == pytest.approx(1 / 3, abs=1e-15)


class TestWindowConnectivity:
    def test_default_schedule_connects_over_two_rounds(self):
        assert verify_window_connectivity(default_ring_6()) is True

    def test_single_matching_never_connects(self):
        h1 = Graph(6, ((1, 2), (3, 4), (5, 6)))
        schedule = schedule_from_graphs((h1,), window=2)
        assert verify_window_connectivity(schedule) is False

    def test_window_one_needs_every_round_connected(self):
        cycle = Graph(4, ((1, 2), (2, 3), (3, 4), (1, 4)))
        matching = Graph(4, ((1, 2), (3, 4)))
        assert verify_window_connectivity(schedule_from_graphs((cycle,), window=1))
        assert not verify_window_connectivity(schedule_from_graphs((cycle, matching), window=1))

    def test_period_three_window_two_checks_all_offsets(self):
        # Windows cycle through three offsets before repeating; the pairing
        # (g3, g1) at offset 2 is the only disconnected union.
        g1 = Graph(4, ((1, 2), (3, 4)))
        g2 = Graph(4, ((2, 3), (1, 4)))
        g3 = Graph(4, ((1, 2),))
        schedule = schedule_from_graphs((g1, g2, g3), window=2)
        assert verify_window_connectivity(schedule) is False

    def test_single_node_is_trivially_connected(self):
        assert verify_window_connectivity(schedule_from_graphs((Graph(1, ()),), window=1))


class TestConsensusMix:
    def test_pairwise_average(self):
        w = max_degree_weights(Graph(2, ((1, 2),)))
        vectors = np.array([[1.0, 3.0], [3.0, 5.0]])
        np.testing.assert_allclose(consensus_mix(w, vectors), [[2.0, 4.0], [2.0, 4.0]])

    def test_preserves_column_sums(self):
        rng = np.random.default_rng(7)
        schedule = default_ring_6()
        vectors = rng.normal(size=(6, 4))
        mixed = consensus_mix(schedule.weights_at(1), vectors)
        np.testing.assert_allclose(mixed.sum(axis=0), vectors.sum(axis=0), atol=1e-10, rtol=0)

    def test_mixes_one_value_per_node_into_one_value_per_node(self):
        weights = default_ring_6().weights[0]
        mixed = consensus_mix(weights, np.arange(6.0))
        assert mixed.shape == (6,)
        np.testing.assert_array_equal(mixed, consensus_mix(weights, np.arange(6.0)[:, None])[:, 0])

    def test_rejects_wrong_row_count(self):
        w = max_degree_weights(Graph(2, ((1, 2),)))
        for vectors in (np.ones((3, 2)), np.ones(3), np.ones((4, 3, 2))):
            with pytest.raises(ValueError, match="per node"):
                consensus_mix(w, vectors)


def contraction_bound(schedule, gap):
    n = schedule.node_count
    base = 1.0 - schedule.zeta / (4.0 * n * n)
    return base ** (gap / schedule.window - 2.0)


class TestProductDeviation:
    def test_single_matrix_deviation(self):
        schedule = default_ring_6()
        # A single matching keeps mass on pairs: largest |entry - 1/6| is 1/2 - 1/6.
        assert product_deviation(schedule, 1, 1) == pytest.approx(1 / 3, abs=1e-15)

    def test_needs_ordered_rounds(self):
        with pytest.raises(ValueError, match="1 <= m <= t"):
            product_deviation(default_ring_6(), 1, 2)

    def test_long_products_flatten_to_uniform(self):
        schedule = default_ring_6()
        assert product_deviation(schedule, 60, 1) < 1e-6

    def test_default_schedule_meets_bound_at_gap_twenty(self):
        schedule = default_ring_6()
        # zeta = 1/2, N = 6: base 287/288, window 2, exponent 20/2 - 2 = 8.
        bound = (287 / 288) ** 8
        for m in range(1, schedule.period + 1):
            assert product_deviation(schedule, m + 20, m) <= bound

    def test_default_schedule_meets_bound_for_all_short_gaps(self):
        schedule = default_ring_6()
        for m in range(1, schedule.period + 1):
            product = schedule.weights_at(m).entries
            for t in range(m, m + 26):
                if t > m:
                    product = schedule.weights_at(t).entries @ product
                deviation = float(np.abs(product - 1 / 6).max())
                assert deviation <= contraction_bound(schedule, t - m) + 1e-15

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_connected_schedules_respect_the_contraction_bound(self, data):
        """Any periodic schedule that passes the connectivity check keeps its
        weight products within the geometric deviation envelope."""
        n = data.draw(st.integers(2, 5))
        period = data.draw(st.integers(1, 3))
        possible = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        graphs = []
        for _ in range(period):
            chosen = data.draw(st.sets(st.sampled_from(possible), min_size=1))
            graphs.append(Graph(n, tuple(chosen)))
        window = data.draw(st.integers(1, 3))
        schedule = schedule_from_graphs(tuple(graphs), window=window)
        if not verify_window_connectivity(schedule):
            return
        for m in (1, 2):
            product = schedule.weights_at(m).entries
            for t in range(m, m + 51):
                if t > m:
                    product = schedule.weights_at(t).entries @ product
                deviation = float(np.abs(product - 1.0 / n).max())
                assert deviation <= contraction_bound(schedule, t - m) + 1e-12
