"""Time-varying communication graphs and their max-degree mixing weights.

Units are numbered 1..N. Graphs are undirected; a directed pair (i, j) and
(j, i) always travels together, so edges are stored canonically as (min, max).
A schedule mixes with each graph's max-degree weights, the one rule: doubly
stochastic, with every edge and diagonal entry at least 1/(1 + max degree).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Graph",
    "TopologySchedule",
    "max_degree_weights",
    "verify_window_connectivity",
    "default_ring_6",
]


def _integer(value, name: str) -> int:
    """value as an int, if it is one (a numpy integer too); ValueError naming it where int() would truncate."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class Graph:
    """Undirected graph on nodes 1..node_count with canonical (min, max) edges."""

    node_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = _integer(self.node_count, "node_count")
        if n < 1:
            raise ValueError("node_count must be >= 1")
        canonical = []
        seen = set()
        for edge in self.edges:
            try:
                i, j = edge
            except (TypeError, ValueError):
                raise ValueError(f"edge {edge!r} is not a pair of nodes") from None
            name = f"an end of edge {(i, j)}"
            i, j = _integer(i, name), _integer(j, name)
            if i == j:
                raise ValueError(f"self-loop on node {i}")
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge ({i}, {j}) leaves 1..{n}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            canonical.append(key)
        object.__setattr__(self, "node_count", n)
        object.__setattr__(self, "edges", tuple(sorted(canonical)))


def max_degree_weights(graph: Graph) -> np.ndarray:
    """The graph's max-degree mixing weights, a read-only (N, N) float64 array.

    Off-diagonal weight 1/(1 + max degree) on every edge, zero elsewhere;
    diagonal absorbs the remainder so each row and column sums to one.
    """
    n = graph.node_count
    entries = np.zeros((n, n))
    ends = np.array(graph.edges, dtype=np.int64).reshape(-1, 2) - 1
    degrees = np.bincount(ends.reshape(-1), minlength=n)
    share = 1.0 / (1.0 + int(degrees.max()))
    entries[ends[:, 0], ends[:, 1]] = share
    entries[ends[:, 1], ends[:, 0]] = share
    np.fill_diagonal(entries, 1.0 - degrees * share)
    entries.flags.writeable = False
    return entries


@dataclass(frozen=True)
class TopologySchedule:
    """Periodic graph schedule with a connectivity window of length B.

    Round t >= 1 uses index (t - 1) mod period. weights[k] is
    max_degree_weights(graphs[k]), built here; a schedule compares and hashes
    by its graphs and window.
    """

    graphs: tuple[Graph, ...]
    window: int
    weights: tuple[np.ndarray, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        graphs = tuple(self.graphs)
        if not graphs:
            raise ValueError("schedule needs at least one graph")
        n = graphs[0].node_count
        if any(g.node_count != n for g in graphs):
            raise ValueError("graphs disagree on node count")
        window = _integer(self.window, "window")
        if window < 1:
            raise ValueError("window must be >= 1")
        object.__setattr__(self, "graphs", graphs)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "weights", tuple(max_degree_weights(g) for g in graphs))

    @property
    def period(self) -> int:
        return len(self.graphs)

    @property
    def node_count(self) -> int:
        return self.graphs[0].node_count

    @property
    def zeta(self) -> float:
        """The smallest positive entry over the schedule's weights."""
        return min(float(w[w > 0.0].min()) for w in self.weights)

    def graph_at(self, t: int) -> Graph:
        if t < 1:
            raise ValueError("rounds are 1-indexed")
        return self.graphs[(t - 1) % self.period]

    def weights_at(self, t: int) -> np.ndarray:
        if t < 1:
            raise ValueError("rounds are 1-indexed")
        return self.weights[(t - 1) % self.period]


def verify_window_connectivity(schedule: TopologySchedule) -> bool:
    """Check that the union graph over every window of B rounds is connected.

    Windows are [kB+1, (k+1)B] for k >= 0; by periodicity it suffices to test
    k = 0 .. lcm(period, B)/B - 1. A window of at least one period holds every
    graph, so its union is the period's whatever B is, and B is taken as
    min(B, period): the walk is at most one period long. Each window's union
    is connected exactly when one traversal from node 1 reaches every node.
    """
    n = schedule.node_count
    b = min(schedule.window, schedule.period)
    windows = math.lcm(schedule.period, b) // b
    for k in range(windows):
        union = set()
        for t in range(k * b + 1, (k + 1) * b + 1):
            union.update(schedule.graph_at(t).edges)
        adjacency = {i: set() for i in range(1, n + 1)}
        for u, v in union:
            adjacency[u].add(v)
            adjacency[v].add(u)
        reached = {1}
        frontier = [1]
        while frontier:
            node = frontier.pop()
            for nxt in adjacency[node]:
                if nxt not in reached:
                    reached.add(nxt)
                    frontier.append(nxt)
        if len(reached) != n:
            return False
    return True


def default_ring_6() -> TopologySchedule:
    """Default 6-node topology: alternating perfect matchings, window 2.

    The union of any two consecutive rounds is the 6-cycle, so the schedule
    is connected over windows of length 2 and every positive weight is 1/2.
    """
    h1 = Graph(6, ((1, 2), (3, 4), (5, 6)))
    h2 = Graph(6, ((2, 3), (4, 5), (6, 1)))
    return TopologySchedule((h1, h2, h1, h2), window=2)
