"""Time-varying communication graphs and doubly stochastic mixing weights.

Units are numbered 1..N. Graphs are undirected; a directed pair (i, j) and
(j, i) always travels together, so edges are stored canonically as (min, max).
Mixing matrices follow the max-degree rule and must be doubly stochastic with
uniformly positive diagonal and edge entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Graph",
    "WeightMatrix",
    "TopologySchedule",
    "ValidationReport",
    "max_degree_weights",
    "validate_mixing",
    "verify_window_connectivity",
    "schedule_from_graphs",
    "default_ring_6",
]


@dataclass(frozen=True)
class Graph:
    """Undirected graph on nodes 1..node_count with canonical (min, max) edges."""

    node_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError("node_count must be >= 1")
        canonical = []
        seen = set()
        for edge in self.edges:
            i, j = int(edge[0]), int(edge[1])
            if i == j:
                raise ValueError(f"self-loop on node {i}")
            if not (1 <= i <= self.node_count and 1 <= j <= self.node_count):
                raise ValueError(f"edge ({i}, {j}) leaves 1..{self.node_count}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            canonical.append(key)
        object.__setattr__(self, "edges", tuple(sorted(canonical)))


@dataclass(frozen=True)
class WeightMatrix:
    """Doubly stochastic mixing matrix with zeta = its smallest positive entry."""

    entries: np.ndarray
    zeta: float

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("entries must be a square matrix")
        entries = entries.copy()
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @property
    def node_count(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    violations: tuple[str, ...]


def max_degree_weights(graph: Graph) -> WeightMatrix:
    """Build mixing weights from the max-degree rule.

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
    positive = entries[entries > 0.0]
    return WeightMatrix(entries=entries, zeta=float(positive.min()))


def validate_mixing(matrix: WeightMatrix, graph: Graph, tol: float = 1e-12) -> ValidationReport:
    """Check the mixing conditions of a weight matrix against its graph.

    Required: square shape matching the graph, nonnegative entries, row and
    column sums within tol of one, support exactly the graph's edges plus the
    diagonal, and every positive entry at least the stored zeta.
    """
    violations = []
    a = matrix.entries
    n = graph.node_count
    if a.shape != (n, n):
        return ValidationReport(False, (f"shape {a.shape} does not match {n} nodes",))
    if not np.all(np.isfinite(a)):
        violations.append("non-finite entry")
    if np.any(a < 0.0):
        violations.append("negative entry")
    row_err = float(np.abs(a.sum(axis=1) - 1.0).max())
    if row_err > tol:
        violations.append(f"row sums deviate from 1 by {row_err:.3e}")
    col_err = float(np.abs(a.sum(axis=0) - 1.0).max())
    if col_err > tol:
        violations.append(f"column sums deviate from 1 by {col_err:.3e}")
    adjacency = np.zeros((n, n), dtype=bool)
    for u, v in graph.edges:
        adjacency[u - 1, v - 1] = adjacency[v - 1, u - 1] = True
    off_diag = ~np.eye(n, dtype=bool)
    if np.any((a > 0.0) & off_diag & ~adjacency):
        violations.append("positive weight off the edge support")
    if adjacency.any() and np.any(a[adjacency] <= 0.0):
        violations.append("edge with nonpositive weight")
    if np.any(np.diag(a) <= 0.0):
        violations.append("nonpositive diagonal entry")
    positive = a[a > 0.0]
    if positive.size:
        min_positive = float(positive.min())
        if not math.isclose(min_positive, matrix.zeta, rel_tol=0.0, abs_tol=tol):
            violations.append(
                f"stored zeta {matrix.zeta!r} != smallest positive entry {min_positive!r}"
            )
        if min_positive < matrix.zeta - tol:
            violations.append("entry below zeta")
    return ValidationReport(not violations, tuple(violations))


@dataclass(frozen=True)
class TopologySchedule:
    """Periodic graph/weight schedule with a connectivity window of length B.

    Round t >= 1 uses index (t - 1) mod period.
    """

    graphs: tuple[Graph, ...]
    weights: tuple[WeightMatrix, ...]
    window: int

    def __post_init__(self):
        if not self.graphs:
            raise ValueError("schedule needs at least one graph")
        if len(self.graphs) != len(self.weights):
            raise ValueError("graphs and weights differ in length")
        n = self.graphs[0].node_count
        if any(g.node_count != n for g in self.graphs):
            raise ValueError("graphs disagree on node count")
        if any(w.node_count != n for w in self.weights):
            raise ValueError("weights disagree on node count")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        object.__setattr__(self, "graphs", tuple(self.graphs))
        object.__setattr__(self, "weights", tuple(self.weights))

    @property
    def period(self) -> int:
        return len(self.graphs)

    @property
    def node_count(self) -> int:
        return self.graphs[0].node_count

    @property
    def zeta(self) -> float:
        return min(w.zeta for w in self.weights)

    def graph_at(self, t: int) -> Graph:
        if t < 1:
            raise ValueError("rounds are 1-indexed")
        return self.graphs[(t - 1) % self.period]

    def weights_at(self, t: int) -> WeightMatrix:
        if t < 1:
            raise ValueError("rounds are 1-indexed")
        return self.weights[(t - 1) % self.period]


def schedule_from_graphs(graphs, window: int) -> TopologySchedule:
    """Attach max-degree weights to each graph of a periodic schedule."""
    graphs = tuple(graphs)
    return TopologySchedule(
        graphs=graphs,
        weights=tuple(max_degree_weights(g) for g in graphs),
        window=window,
    )


def verify_window_connectivity(schedule: TopologySchedule) -> bool:
    """Check that the union graph over every window of B rounds is connected.

    Windows are [kB+1, (k+1)B] for k >= 0; by periodicity it suffices to test
    k = 0 .. lcm(period, B)/B - 1. Each window's union is connected exactly
    when one traversal from node 1 reaches every node.
    """
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
    return schedule_from_graphs((h1, h2, h1, h2), window=2)
