"""Graphs, mixing weights, connectivity windows, and product contraction."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netoco.bench import preset_config, validate_scenario
from netoco.network import Graph, TopologySchedule, default_ring_6, max_degree_weights, verify_window_connectivity
from netoco.reference import consensus_mix, product_deviation


def assert_mixing(w, graph):
    """The paper's weight assumption: rows and columns sum to one, the weights are
    symmetric, and positive exactly on the graph's edges and the diagonal."""
    n = graph.node_count
    assert w.shape == (n, n) and w.dtype == np.float64 and not w.flags.writeable
    np.testing.assert_allclose(w.sum(axis=0), np.ones(n), atol=1e-12, rtol=0)
    np.testing.assert_allclose(w.sum(axis=1), np.ones(n), atol=1e-12, rtol=0)
    np.testing.assert_array_equal(w, w.T)
    support = np.eye(n, dtype=bool)
    for u, v in graph.edges:
        support[u - 1, v - 1] = support[v - 1, u - 1] = True
    assert np.all(w[support] > 0.0) and np.all(w[~support] == 0.0)


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

    def test_rejects_non_integral_input(self):
        """int() would build edge (1, 2) from (1.5, 2.9), and keep a node count of 3.7."""
        with pytest.raises(ValueError, match=r"an end of edge \(1\.5, 2\.9\) must be an integer, got 1\.5"):
            Graph(3, ((1.5, 2.9),))
        with pytest.raises(ValueError, match=r"node_count must be an integer, got 3\.7"):
            Graph(3.7, ((1, 2),))
        graph = Graph(np.int64(3), ((np.int64(2), np.int64(1)),))
        assert (graph.node_count, graph.edges) == (3, ((1, 2),)) and type(graph.node_count) is int

    @pytest.mark.parametrize("edge", [(1, 2, 3), (1,), (), 5])
    def test_rejects_an_edge_that_is_not_a_pair(self, edge):
        """(1, 2, 3) once became edge (1, 2), and (1,) failed to unpack."""
        with pytest.raises(ValueError, match=rf"edge {re.escape(repr(edge))} is not a pair of nodes"):
            Graph(3, ((1, 2), edge))


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
        np.testing.assert_allclose(w, expected, rtol=0, atol=1e-15)

    def test_single_edge_pair(self):
        w = max_degree_weights(Graph(2, ((1, 2),)))
        np.testing.assert_array_equal(w, np.full((2, 2), 0.5))

    def test_empty_graph_is_identity(self):
        w = max_degree_weights(Graph(3, ()))
        np.testing.assert_array_equal(w, np.eye(3))

    def test_complete_triangle_is_uniform(self):
        w = max_degree_weights(Graph(3, ((1, 2), (1, 3), (2, 3))))
        np.testing.assert_allclose(w, np.full((3, 3), 1 / 3), rtol=0, atol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_random_graphs_give_doubly_stochastic_weights(self, data):
        """The weights meet the paper's assumption, and the schedule's zeta is the smallest
        positive entry."""
        n = data.draw(st.integers(2, 7))
        possible = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        chosen = data.draw(st.sets(st.sampled_from(possible), max_size=len(possible)))
        g = Graph(n, tuple(chosen))
        w = max_degree_weights(g)
        assert_mixing(w, g)
        assert TopologySchedule((g,), window=1).zeta == w[w > 0].min()


class TestDefaultRing6:
    def test_weights_are_exactly_half(self):
        schedule = default_ring_6()
        assert schedule.period == 4
        assert schedule.window == 2
        assert schedule.zeta == 0.5
        for w in schedule.weights:
            positive = w[w > 0]
            np.testing.assert_array_equal(positive, np.full(positive.shape, 0.5))

    def test_consecutive_union_is_the_six_cycle(self):
        schedule = default_ring_6()
        union = set(schedule.graph_at(1).edges) | set(schedule.graph_at(2).edges)
        assert union == {(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)}

    def test_validates(self):
        schedule = default_ring_6()
        for g, w in zip(schedule.graphs, schedule.weights, strict=True):
            assert_mixing(w, g)

    def test_schedules_compare_and_hash_by_graphs_and_window(self):
        assert default_ring_6() == default_ring_6()
        assert hash(default_ring_6()) == hash(default_ring_6())
        assert len({default_ring_6(), default_ring_6()}) == 1
        assert default_ring_6() != replace(default_ring_6(), window=4)
        assert "weights" not in repr(default_ring_6())


class TestSchedule:
    def test_round_indexing_wraps(self):
        g1 = Graph(2, ((1, 2),))
        g2 = Graph(2, ())
        schedule = TopologySchedule((g1, g2), window=2)
        assert schedule.graph_at(1) is g1
        assert schedule.graph_at(2) is g2
        assert schedule.graph_at(3) is g1
        assert schedule.weights_at(4) is schedule.weights[1]
        with pytest.raises(ValueError, match="1-indexed"):
            schedule.graph_at(0)

    def test_weights_are_the_max_degree_weights_of_each_graph(self):
        graphs = (Graph(3, ((1, 2), (2, 3))), Graph(3, ((1, 3),)), Graph(3, ()))
        schedule = TopologySchedule(graphs, window=3)
        assert len(schedule.weights) == 3
        for graph, weights in zip(graphs, schedule.weights, strict=True):
            np.testing.assert_array_equal(weights, max_degree_weights(graph))
            assert_mixing(weights, graph)

    def test_rejects_a_window_that_is_not_an_integer(self):
        """1.5 once passed, and validate_scenario then raised TypeError from math.lcm."""
        config = preset_config("synthetic-convex-c0.5", seed_count=1, horizon=8)
        with pytest.raises(ValueError, match=r"window must be an integer, got 1\.5"):
            replace(config, topology=replace(config.topology, window=1.5))
        with pytest.raises(ValueError, match="window must be >= 1"):
            replace(config.topology, window=0)
        topology = replace(config.topology, window=np.int64(4))
        assert type(topology.window) is int
        assert validate_scenario(replace(config, topology=topology)) == []

    def test_rejects_mixed_node_counts(self):
        with pytest.raises(ValueError, match="node count"):
            TopologySchedule((Graph(2, ()), Graph(3, ())), window=1)

    def test_zeta_is_the_schedule_minimum(self):
        path = Graph(3, ((1, 2), (2, 3)))  # zeta 1/3
        pair = Graph(3, ((1, 2),))  # zeta 1/2
        schedule = TopologySchedule((path, pair), window=2)
        assert schedule.zeta == pytest.approx(1 / 3, abs=1e-15)


class TestWindowConnectivity:
    def test_default_schedule_connects_over_two_rounds(self):
        assert verify_window_connectivity(default_ring_6()) is True

    def test_single_matching_never_connects(self):
        h1 = Graph(6, ((1, 2), (3, 4), (5, 6)))
        schedule = TopologySchedule((h1,), window=2)
        assert verify_window_connectivity(schedule) is False

    def test_window_one_needs_every_round_connected(self):
        cycle = Graph(4, ((1, 2), (2, 3), (3, 4), (1, 4)))
        matching = Graph(4, ((1, 2), (3, 4)))
        assert verify_window_connectivity(TopologySchedule((cycle,), window=1))
        assert not verify_window_connectivity(TopologySchedule((cycle, matching), window=1))

    def test_period_three_window_two_checks_all_offsets(self):
        # Windows cycle through three offsets before repeating; the pairing
        # (g3, g1) at offset 2 is the only disconnected union.
        g1 = Graph(4, ((1, 2), (3, 4)))
        g2 = Graph(4, ((2, 3), (1, 4)))
        g3 = Graph(4, ((1, 2),))
        schedule = TopologySchedule((g1, g2, g3), window=2)
        assert verify_window_connectivity(schedule) is False

    def test_single_node_is_trivially_connected(self):
        assert verify_window_connectivity(TopologySchedule((Graph(1, ()),), window=1))


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
            product = schedule.weights_at(m)
            for t in range(m, m + 26):
                if t > m:
                    product = schedule.weights_at(t) @ product
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
        schedule = TopologySchedule(tuple(graphs), window=window)
        if not verify_window_connectivity(schedule):
            return
        for m in (1, 2):
            product = schedule.weights_at(m)
            for t in range(m, m + 51):
                if t > m:
                    product = schedule.weights_at(t) @ product
                deviation = float(np.abs(product - 1.0 / n).max())
                assert deviation <= contraction_bound(schedule, t - m) + 1e-12
