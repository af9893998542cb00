"""Degrees, max-degree weights and window connectivity from one pass, against the
per-node scans and all-starts traversals they replace."""

import math
import time

import numpy as np
from hypothesis import given, settings, strategies as st

from netoco.network import Graph, TopologySchedule, max_degree_weights, verify_window_connectivity


def scan_degree(graph, i):
    return sum(1 for u, v in graph.edges if i in (u, v))


def scan_weights(graph):
    """Max-degree weights with one edge scan per node, as first written."""
    n = graph.node_count
    entries = np.zeros((n, n))
    share = 1.0 / (1.0 + max(scan_degree(graph, i) for i in range(1, n + 1)))
    for u, v in graph.edges:
        entries[u - 1, v - 1] = share
        entries[v - 1, u - 1] = share
    for i in range(1, n + 1):
        entries[i - 1, i - 1] = 1.0 - scan_degree(graph, i) * share
    positive = entries[entries > 0.0]
    return entries, float(positive.min())


def connected_from_every_start(schedule):
    """Window connectivity by a traversal from every node of every window's union, as first written."""
    n = schedule.node_count
    b = schedule.window
    windows = math.lcm(schedule.period, b) // b
    for k in range(windows):
        union = set()
        for t in range(k * b + 1, (k + 1) * b + 1):
            union.update(schedule.graph_at(t).edges)
        adjacency = {i: set() for i in range(1, n + 1)}
        for u, v in union:
            adjacency[u].add(v)
            adjacency[v].add(u)
        for start in range(1, n + 1):
            reached = {start}
            frontier = [start]
            while frontier:
                node = frontier.pop()
                for nxt in adjacency[node]:
                    if nxt not in reached:
                        reached.add(nxt)
                        frontier.append(nxt)
            if len(reached) != n:
                return False
    return True


@st.composite
def graphs(draw, n=None):
    n = draw(st.integers(1, 9)) if n is None else n
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))) if pairs else set()
    return Graph(n, tuple(edges))


@st.composite
def schedules(draw):
    """Windows from 1 to 2 periods + 1: shorter than a period, one period, and longer."""
    n = draw(st.integers(1, 7))
    period = draw(st.integers(1, 4))
    members = tuple(draw(graphs(n)) for _ in range(period))
    return TopologySchedule(members, window=draw(st.integers(1, 2 * period + 1)))


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_degrees_and_weights_equal_the_per_node_scan(graph):
    """The degrees enter the weights twice: through the share's max degree and each diagonal entry."""
    weights = max_degree_weights(graph)
    entries, zeta = scan_weights(graph)
    assert np.array_equal(weights.view(np.int64), entries.view(np.int64))
    assert TopologySchedule((graph,), window=1).zeta == zeta


@settings(max_examples=300, deadline=None)
@given(schedules())
def test_one_traversal_per_window_decides_like_every_start(schedule):
    assert verify_window_connectivity(schedule) == connected_from_every_start(schedule)


def test_a_window_of_many_periods_is_decided_by_one_period():
    """A window of at least one period holds every graph, so its union is the period's:
    a window of 10**7 rounds over two matchings whose union is a 6-node path is
    decided without walking it (a walk of every round takes seconds)."""
    halves = Graph(6, ((1, 2), (3, 4), (5, 6))), Graph(6, ((2, 3), (4, 5)))
    began = time.perf_counter()
    assert verify_window_connectivity(TopologySchedule(halves, window=10**7))
    assert time.perf_counter() - began < 1.0
