"""Regret and violation accounting, the offline comparator, and rate constants.

System regret charges unit i the losses of every unit evaluated at unit i's
own committed decisions, minus the best fixed feasible point in hindsight:

    Reg_i(T) = sum_{t<=T} sum_j loss_{j,t}(x_i(t)) - min_x sum_{t<=T} sum_j loss_{j,t}(x)

with the minimum taken over the constraint region. The violation measure adds
the positive parts of every constraint at every unit's committed decision over
all rounds; it never decreases with T. Communication cost counts two directed
messages per undirected edge per round.

The comparator minimum is computed by projected gradient descent on the
accumulated quadratic of each checkpoint's prefix, because the hindsight
optimum depends on the horizon prefix. A scenario's prefixes are every
(seed, checkpoint) pair, stacked across its seeds in seed-major order; their
statistics are built one prefix at a time, and up to 64 prefixes are then
solved together in one loop on stacked iterates (offline_comparators), each
row with the bits of a solve of its prefix alone. The constraint region is a
box (BoxConstraintSet), and each comparator also carries its Frank-Wolfe gap
over it, an upper bound on how far its objective lies above the true minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algorithm import check_checkpoints, run_seeds, variant_spec
from .network import TopologySchedule, _integer
from .problems import _check_box

__all__ = [
    "Comparator",
    "ConvergenceError",
    "offline_comparators",
    "communication_cost",
    "checkpoint_grid",
    "MetricSeries",
    "checkpoint_series",
    "averaged_metrics",
    "BoundConstants",
    "bound_constants",
]


@dataclass(frozen=True)
class Comparator:
    """Hindsight minimizer over the constraint region for one prefix length.

    gap is the Frank-Wolfe gap at point over the box, max_s grad(point).(point - s)
    for s in the box, which bounds objective minus the true minimum from above.
    """

    point: np.ndarray
    objective: float
    residual: float
    iterations: int
    gap: float


class ConvergenceError(RuntimeError):
    """A comparator's prefix did not stop within max_iters.

    The message names its checkpoint, and stream is the index of its stream in
    the batch that offline_comparators was given (0 for a single stream).
    """

    def __init__(self, message: str, stream: int = 0):
        super().__init__(message)
        self.stream = stream


# Prefixes solved in one loop at most. The loop stacks each prefix's d x d
# statistics, so a group bounds that stack (about 100 KB at d = 14) whatever
# the number of seeds and checkpoints, as the kernel's blocks bound its arrays;
# a whole stack of 512 prefixes raised perfbench's peak memory on dense-checkpoints.
_GROUP = 64


def offline_comparators(
    streams,
    constraints,
    checkpoints,
    *,
    tol: float = 1e-9,
    max_iters: int = 100_000,
) -> tuple[tuple[Comparator, ...], ...]:
    """Minimize the accumulated loss over the constraint region for every stream and prefix length.

    Returns one tuple per stream, a Comparator per checkpoint. Projected
    gradient descent on each prefix's quadratic, built from the stream's
    sufficient statistics, with step 1/(sum ||a||^2 + 2 rho N T); a prefix
    stops when its iterate moves by at most tol. The prefixes are every
    (stream, checkpoint) pair in stream-major order, and up to _GROUP of them
    run as one loop on stacked iterates, so a group may span two streams. A row
    leaves the loop when it stops, so each row takes exactly the steps a solve
    of its prefix alone would take: gram @ x is one gemv per row and the
    move's norm one dot per row, the BLAS calls of the one-vector formulas,
    and every elementwise step keeps its operands and their order.
    The box's projection acts row by row on (..., d) arrays. Prefixes
    without curvature (all-zero features and rho = 0) have a constant
    objective and return the projected origin after 0 iterations. A prefix
    that does not stop within max_iters raises ConvergenceError naming the
    first such prefix in stream-major order: its checkpoint in the message,
    its stream's index as .stream. ValueError if the constraints' dimension
    is not the streams', and, naming its type, if they are not a
    BoxConstraintSet.
    """
    _check_box(constraints, "the comparator")
    streams = tuple(streams)
    dimensions = {stream.dimension for stream in streams}
    if len(dimensions) > 1:
        raise ValueError("the streams of one batch must share their dimension")
    if dimensions - {constraints.dimension}:
        raise ValueError("constraint dimension does not match the stream")
    checkpoints = tuple(_integer(T, "checkpoint") for T in checkpoints)
    prefixes = [(s, T) for s in range(len(streams)) for T in checkpoints]
    solved = [
        comparator
        for start in range(0, len(prefixes), _GROUP)
        for comparator in _solve_group(streams, constraints, prefixes[start : start + _GROUP], tol, max_iters)
    ]
    K = len(checkpoints)
    return tuple(tuple(solved[s * K : (s + 1) * K]) for s in range(len(streams)))


def _solve_group(streams, constraints, prefixes, tol, max_iters) -> tuple[Comparator, ...]:
    """offline_comparators for one group of (stream index, T) prefixes, in one loop on (K, d) iterates."""
    K, d = len(prefixes), streams[prefixes[0][0]].dimension
    # The group's statistics, stacked; each prefix's own arrays are dropped as they are copied in.
    gram, cross = np.empty((K, d, d)), np.empty((K, d))
    halved_square_sums, reg, step = np.empty(K), np.empty((K, 1)), np.ones((K, 1))
    curved = np.zeros(K, dtype=bool)
    for k, (index, T) in enumerate(prefixes):
        stats = streams[index].sufficient_statistics(T)
        gram[k], cross[k] = stats.gram, stats.cross
        halved_square_sums[k] = 0.5 * stats.target_square_sum
        reg[k] = 2.0 * stats.rho * stats.count
        curvature = float(np.trace(stats.gram)) + reg[k, 0]
        if curvature > 0.0:
            curved[k], step[k] = True, 1.0 / curvature

    points = constraints.project(np.zeros((K, d)))
    residuals, iterations = np.zeros(K), np.zeros(K, dtype=np.int64)
    active = np.flatnonzero(curved)
    x, g, c, r, s = points[active], gram[active], cross[active], reg[active], step[active]
    residual = np.full(len(active), np.inf)
    for iteration in range(1, max_iters + 1):
        if not len(active):
            break
        grad = np.matmul(g, x[..., None])[..., 0] - c + r * x
        x_next = constraints.project(x - s * grad)
        move = x_next - x
        residual = np.sqrt(np.matmul(move[:, None, :], move[..., None])[:, 0, 0])
        x = x_next
        done = residual <= tol
        if done.any():
            finished = active[done]
            points[finished], residuals[finished], iterations[finished] = x[done], residual[done], iteration
            keep = ~done
            active, x, g, c, r, s, residual = (
                active[keep], x[keep], g[keep], c[keep], r[keep], s[keep], residual[keep]
            )
    if len(active):
        index, T = prefixes[active[0]]
        raise ConvergenceError(
            f"comparator did not converge at checkpoint T = {T}: "
            f"residual {residual[0]:.3e} after {max_iters} iterations",
            index,
        )

    grad = np.matmul(gram, points[..., None])[..., 0] - cross + reg * points
    # Each term is >= 0 inside the box; + 0.0 turns the -0.0 of a zero gap into +0.0.
    gaps = np.maximum(
        grad * (points - constraints.lower), grad * (points - constraints.upper)
    ).sum(axis=1) + 0.0
    return tuple(
        Comparator(
            point=points[k],
            objective=float(
                0.5 * (points[k] @ gram[k] @ points[k]) - cross[k] @ points[k] + halved_square_sums[k]
            ) + 0.5 * reg[k, 0] * float(points[k] @ points[k]),
            residual=float(residuals[k]),
            iterations=int(iterations[k]),
            gap=float(gaps[k]),
        )
        for k in range(K)
    )


def communication_cost(schedule: TopologySchedule, T: int) -> int:
    """Messages exchanged through round T: two per undirected edge per round."""
    T = _integer(T, "T")
    if T < 0:
        raise ValueError("T must be >= 0")
    counts = [len(g.edges) for g in schedule.graphs]
    period = len(counts)
    full, rem = divmod(T, period)
    return 2 * (full * sum(counts) + sum(counts[:rem]))


def checkpoint_grid(T: int) -> tuple[int, ...]:
    """Geometric prefix grid: ceil(T/16) * 2^k capped at T, plus T itself."""
    T = _integer(T, "T")
    if T < 1:
        raise ValueError("T must be >= 1")
    points = []
    mark = math.ceil(T / 16)
    while mark < T:
        points.append(mark)
        mark *= 2
    points.append(T)
    return tuple(points)


@dataclass
class MetricSeries:
    """Metrics evaluated on a fixed checkpoint grid.

    On a per-seed series, sreg[k] is the max of regrets[k] over units. On an
    averaged series, sreg is the across-seed mean of per-seed maxima
    (mean-of-max), while regrets.max(axis=1) gives the max of the across-seed
    per-unit means (max-of-mean); the two aggregates are reported distinctly.
    """

    checkpoints: tuple[int, ...]
    sreg: np.ndarray  # (K,)
    regrets: np.ndarray  # (K, N)
    cacv: np.ndarray  # (K,)
    comm_cost: np.ndarray  # (K,), int64


def checkpoint_series(streams, topology, schedules, constraints, seeds, checkpoints) -> list[MetricSeries]:
    """Run a batch of seeds and score each one's metric series at the checkpoints.

    Takes run_seeds' arguments, and runs the batch through it: streams[s],
    schedules[s] and seeds[s] belong to one run, and its ValueErrors are
    raised as they are. Seed s's regrets are its cumulative system losses
    minus the comparator of each prefix, its cacv the cumulative violation,
    and comm_cost the messages sent by each checkpoint (communication_cost),
    shared by the seeds. The prefixes of every seed stack in one solve
    (offline_comparators), and a ConvergenceError's .stream names the seed
    index s.
    """
    streams, checkpoints = tuple(streams), tuple(checkpoints)
    totals = run_seeds(streams, topology, schedules, constraints, seeds, checkpoints)
    checkpoints = check_checkpoints(checkpoints, streams[0].horizon)
    comm_cost = np.array([communication_cost(topology, T) for T in checkpoints], dtype=np.int64)
    series = []
    for s, comparators in enumerate(offline_comparators(streams, constraints, checkpoints)):
        regrets = totals.system_losses[:, s] - np.array([c.objective for c in comparators])[:, None]
        series.append(MetricSeries(
            checkpoints=checkpoints,
            sreg=regrets.max(axis=1),
            regrets=regrets,
            cacv=totals.violations[:, s],
            comm_cost=comm_cost,
        ))
    return series


def averaged_metrics(series_list) -> MetricSeries:
    """Across-seed means on a shared checkpoint grid.

    The sreg entries average the per-seed maxima (mean-of-max); per-unit means
    live in regrets, whose row maxima, regrets.max(axis=1), give the
    max-of-mean aggregate.
    """
    series_list = list(series_list)
    if not series_list:
        raise ValueError("nothing to average")
    grid = series_list[0].checkpoints
    if any(s.checkpoints != grid for s in series_list[1:]):
        raise ValueError("checkpoint grids differ")
    comm = series_list[0].comm_cost
    for s in series_list[1:]:
        if not np.array_equal(s.comm_cost, comm):
            raise ValueError("communication cost differs across seeds of one scenario")
    return MetricSeries(
        checkpoints=grid,
        sreg=np.mean([s.sreg for s in series_list], axis=0),
        regrets=np.mean([s.regrets for s in series_list], axis=0),
        cacv=np.mean([s.cacv for s in series_list], axis=0),
        comm_cost=comm.copy(),
    )


@dataclass(frozen=True)
class BoundConstants:
    """Leading constants and growth laws of the regret/violation guarantees."""

    variant: str
    psi: float
    c_hat: float
    sreg_constant: float
    cacv_constant: float
    c: Optional[float]

    def sreg_bound(self, T: int) -> float:
        spec = variant_spec(self.variant)
        if spec.strongly_convex:
            if spec.bandit:
                return self.sreg_constant * float(T) ** (2.0 / 3.0) * math.log(T)
            return self.sreg_constant * math.log(T)
        exponent = max(1.0 - self.c / 3.0, self.c) if spec.bandit else max(self.c, 1.0 - self.c)
        return self.sreg_constant * float(T) ** exponent

    def cacv_bound(self, T: int) -> float:
        if variant_spec(self.variant).strongly_convex:
            return self.cacv_constant * math.sqrt(T * math.log(T))
        return self.cacv_constant * float(T) ** (1.0 - self.c / 2.0)


def bound_constants(
    variant: str,
    *,
    n_units: int,
    window: int,
    zeta: float,
    p: int,
    G: float,
    radius: float,
    c: Optional[float] = None,
    a: float = 2.0,
    sigma: Optional[float] = None,
    C: Optional[float] = None,
    dimension: Optional[int] = None,
) -> BoundConstants:
    """Evaluate the guarantee constants for a variant.

    The network enters through psi = 1 - zeta/(4 N^2), the contraction base of
    the weight-product deviation, and through the disagreement constant

        c_hat = 2 N (3 N / (psi^(2 + 1/B) (1 - psi^(1/B))) + 4).

    psi is not raised to the power -2: that base exceeds one and leaves no
    contraction gap, so c_hat would be nonpositive.
    """
    spec = variant_spec(variant)
    n_units, window, p = _integer(n_units, "n_units"), _integer(window, "window"), _integer(p, "p")
    if n_units < 1 or window < 1 or p < 1:
        raise ValueError("n_units, window, p must all be >= 1")
    if not 0.0 < zeta <= 1.0:
        raise ValueError("zeta must lie in (0, 1]")
    if not (G > 0.0 and radius > 0.0):
        raise ValueError("G and radius must be > 0")
    spec.check_parameters(c=c, a=a, sigma=sigma)
    if spec.bandit:
        if C is None or not C > 0.0 or dimension is None or dimension < 1:
            raise ValueError("bandit variants need C > 0 and the dimension")

    n = float(n_units)
    psi = 1.0 - zeta / (4.0 * n * n)
    gap = 1.0 - psi ** (1.0 / window)
    if gap <= 0.0:  # psi rounds to one when zeta / (4 N^2) is below half an ulp
        raise ValueError(f"contraction gap 1 - psi^(1/B) = {gap:.3e} is not positive")
    c_hat = 2.0 * n * (3.0 * n / (psi ** (2.0 + 1.0 / window) * gap) + 4.0)

    if not spec.strongly_convex and not spec.bandit:  # convex, full information
        sreg_c = (
            0.5 * a * p * n * G * G * radius * radius
            + n * (1.0 + c_hat) / (a * p)
            + n * c_hat * c_hat / (4.0 * a * (a - 1.0) * p)
        )
        cacv_c = math.sqrt(
            n * n / (a - 1.0) * (1.0 + 2.0 * a * p * G * radius + 0.5 * (a * p * G * radius) ** 2)
        )
    elif not spec.bandit:  # strongly convex, full information
        sreg_c = n * G * G / (2.0 * sigma) * (4.0 + 4.0 * c_hat + c_hat * c_hat)
        cacv_c = (
            4.0 * p * n * G ** 1.5 / math.sqrt(sigma) * (math.sqrt(radius) + math.sqrt(G / sigma))
        )
    elif not spec.strongly_convex:  # convex, bandit
        d = float(dimension)
        sreg_c = (
            3.0 * n * G
            + n * C * c_hat * d / (a * p * G)
            + n * C * C * d * d / (a * p * G * G)
            + 0.5 * a * p * n * G * G * radius * radius
            + n * c_hat * c_hat / (4.0 * a * (a - 1.0) * p)
        )
        cacv_c = math.sqrt(
            n
            * n
            / (a - 1.0)
            * (C * C * d * d / (G * G) + 2.0 * a * p * G * radius + 0.5 * (a * p * G * radius) ** 2)
        )
    else:  # strongly-convex-bandit
        d = float(dimension)
        sreg_c = 3.0 * n * G + n / (2.0 * sigma) * (
            4.0 * C * c_hat * G * d + 4.0 * C * C * d * d + c_hat * c_hat * G * G
        )
        cacv_c = (
            4.0 * p * n * G / math.sqrt(sigma) * (math.sqrt(G * radius) + C * d / math.sqrt(sigma))
        )

    return BoundConstants(
        variant=variant,
        psi=psi,
        c_hat=c_hat,
        sreg_constant=sreg_c,
        cacv_constant=cacv_c,
        c=None if spec.strongly_convex else float(c),
    )
