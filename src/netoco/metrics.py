"""Regret and violation accounting, the offline comparator, and rate constants.

System regret charges unit i the losses of every unit evaluated at unit i's
own committed decisions, minus the best fixed feasible point in hindsight:

    regret(i, T) = sum_{t<=T} sum_j loss_{j,t}(x_i(t)) - min_x sum_{t<=T} sum_j loss_{j,t}(x)

with the minimum taken over the constraint region. The violation measure adds
the positive parts of every constraint at every unit's committed decision over
all rounds; it never decreases with T. Communication cost counts two directed
messages per undirected edge per round.

The comparator minimum is computed by projected gradient descent on the
accumulated quadratic, rebuilt at every checkpoint because the hindsight
optimum depends on the horizon prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algorithm import RunTrajectory, _running_sums, check_checkpoints, variant_spec
from .network import TopologySchedule
from .problems import RegressionStream

__all__ = [
    "Comparator",
    "offline_comparator",
    "system_cumulative_losses",
    "regret",
    "sreg",
    "cacv",
    "communication_cost",
    "checkpoint_grid",
    "MetricSeries",
    "metric_series",
    "checkpoint_series",
    "averaged_metrics",
    "BoundConstants",
    "bound_constants",
]


@dataclass(frozen=True)
class Comparator:
    """Hindsight minimizer over the constraint region for one prefix length."""

    point: np.ndarray
    objective: float
    residual: float
    iterations: int


def offline_comparator(
    stream: RegressionStream,
    constraints,
    T: int,
    *,
    tol: float = 1e-9,
    max_iters: int = 100_000,
) -> Comparator:
    """Minimize the accumulated loss over the constraint region.

    Projected gradient descent on the quadratic built from the stream's
    sufficient statistics, step 1/(sum ||a||^2 + 2 rho N T), stopping when the
    iterate moves by at most tol.
    """
    if not hasattr(constraints, "project"):
        raise ValueError("the comparator needs a constraint set with a projection")
    stats = stream.sufficient_statistics(T)
    gram = stats.gram
    cross = stats.cross
    reg = 2.0 * stats.rho * stats.count

    def objective(x):
        return float(
            0.5 * (x @ gram @ x) - cross @ x + 0.5 * stats.target_square_sum
        ) + 0.5 * reg * float(x @ x)

    x = constraints.project(np.zeros(stream.dimension))
    curvature = float(np.trace(gram)) + reg
    if curvature <= 0.0:  # all-zero features and rho = 0: objective is constant
        return Comparator(point=x, objective=objective(x), residual=0.0, iterations=0)
    step = 1.0 / curvature
    for iteration in range(1, max_iters + 1):
        grad = gram @ x - cross + reg * x
        x_next = constraints.project(x - step * grad)
        residual = float(np.linalg.norm(x_next - x))
        x = x_next
        if residual <= tol:
            return Comparator(point=x, objective=objective(x), residual=residual, iterations=iteration)
    raise RuntimeError(
        f"comparator did not converge: residual {residual:.3e} after {max_iters} iterations"
    )


def _cumulative_system_losses(trajectory: RunTrajectory, stream, T: int) -> np.ndarray:
    """Row t - 1, entry i - 1: sum_{r<=t} sum_j loss_{j,r}(x_i(r)), for t = 1..T."""
    check_checkpoints((T,), trajectory.horizon)
    return _running_sums(stream.rounds(T).system_values(trajectory.decisions[:T]), 0.0)


def system_cumulative_losses(trajectory: RunTrajectory, stream, T: int) -> np.ndarray:
    """Entry i - 1: sum_{t<=T} sum_j loss_{j,t}(x_i(t)) at the committed decisions."""
    return _cumulative_system_losses(trajectory, stream, T)[T - 1]


def regret(trajectory: RunTrajectory, stream, comparator: Comparator, i: int, T: int) -> float:
    """System regret of unit i against a comparator solved for the same T."""
    if not 1 <= i <= trajectory.n_units:
        raise IndexError(f"unit {i} outside 1..{trajectory.n_units}")
    return float(system_cumulative_losses(trajectory, stream, T)[i - 1] - comparator.objective)


def sreg(trajectory: RunTrajectory, stream, comparator: Comparator, T: int) -> float:
    """Largest per-unit system regret."""
    return float((system_cumulative_losses(trajectory, stream, T) - comparator.objective).max())


def cacv(trajectory: RunTrajectory, T: int) -> float:
    """Cumulative absolute constraint violation over units, constraints, rounds."""
    check_checkpoints((T,), trajectory.horizon)
    return float(trajectory.violations[:T].sum())


def communication_cost(schedule: TopologySchedule, T: int) -> int:
    """Messages exchanged through round T: two per undirected edge per round."""
    if T < 0:
        raise ValueError("T must be >= 0")
    counts = [len(g.edges) for g in schedule.graphs]
    period = len(counts)
    full, rem = divmod(T, period)
    return 2 * (full * sum(counts) + sum(counts[:rem]))


def checkpoint_grid(T: int) -> tuple[int, ...]:
    """Geometric prefix grid: ceil(T/16) * 2^k capped at T, plus T itself."""
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
    (mean-of-max), while max_over_units() gives the max of the across-seed
    per-unit means (max-of-mean); the two aggregates are reported distinctly.
    """

    checkpoints: tuple[int, ...]
    sreg: np.ndarray  # (K,)
    regrets: np.ndarray  # (K, N)
    cacv: np.ndarray  # (K,)
    comm_cost: np.ndarray  # (K,), int64

    def max_over_units(self) -> np.ndarray:
        return self.regrets.max(axis=1)


def metric_series(
    trajectory: RunTrajectory,
    stream,
    constraints,
    checkpoints,
) -> MetricSeries:
    """Evaluate regret, violation, and communication at each checkpoint.

    The comparator is re-solved per checkpoint from the prefix's sufficient
    statistics.
    """
    checkpoints = check_checkpoints(checkpoints, trajectory.horizon)
    index = np.array(checkpoints) - 1
    return checkpoint_series(
        stream,
        constraints,
        checkpoints,
        _cumulative_system_losses(trajectory, stream, checkpoints[-1])[index],
        _running_sums(trajectory.violations.sum(axis=(1, 2)), 0.0)[index],
        2 * np.cumsum(trajectory.edge_counts)[index],
    )


def checkpoint_series(
    stream, constraints, checkpoints, system_losses, violations, comm_cost
) -> MetricSeries:
    """One seed's metric series from its running sums at the checkpoints.

    system_losses[k, i - 1] is unit i's cumulative system loss through round
    checkpoints[k], violations[k] the cumulative violation and comm_cost[k]
    the messages sent by then; regret subtracts the comparator of each prefix.
    """
    regrets = np.empty(np.shape(system_losses))
    for k, T in enumerate(checkpoints):
        regrets[k] = system_losses[k] - offline_comparator(stream, constraints, T).objective
    return MetricSeries(
        checkpoints=tuple(checkpoints),
        sreg=regrets.max(axis=1),
        regrets=regrets,
        cacv=violations,
        comm_cost=comm_cost,
    )


def averaged_metrics(series_list) -> MetricSeries:
    """Across-seed means on a shared checkpoint grid.

    The sreg entries average the per-seed maxima (mean-of-max); per-unit means
    live in regrets, whose row maxima give the max-of-mean aggregate.
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
