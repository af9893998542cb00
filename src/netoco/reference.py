"""The paper's algorithm and metrics stated per unit: the oracle the kernel is tested against.

The paper's long-term constraints g_s(x) <= 0 in general, one callable per
constraint (ConstraintSet), with their default dual pull, and a box stated
that way (box_constraints): every function here that takes constraints takes
a BoxConstraintSet as well and works on its statement, so the kernel's
closed-form box pull is held to the per-constraint loop.

One slot's loss oracle and one constraint's clipped subgradient; a round's
loss values and gradients and the consensus mix on fresh arrays, and a
product of mixing matrices' distance from the average; one vector's ball
projection, sphere direction and one-point estimate; the round's augmented
Lagrangian, primal direction and dual reset; a round's steps on fresh arrays
(round_step), one synchronized round of all units from an explicit RunState,
its feedback the schedule's (run_round), and one seed's run chained from it
(record_run); and that run's regret and violation at one prefix length, its
system loss added round by round, and the hindsight comparator of that
prefix, solved on one vector. round_step and the kernel's in-place loop
(algorithm._run_block) are two statements of a round that the tests hold to
the same bits, and a literal per-unit loop to within 1e-12. The run-path
modules never import this one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .algorithm import HyperSchedule, _check_in_ball, _overflow_factors, _project_rows, _sphere_rngs, check_checkpoints
from .metrics import Comparator, ConvergenceError
from .network import TopologySchedule, _integer
from .problems import BoxConstraintSet, RegressionRound, RegressionStream, _check_box, _row_dots

__all__ = [
    "ConstraintSet", "box_constraints", "LossOracle", "regression_loss", "clipped_subgradient", "loss_values",
    "loss_gradients", "consensus_mix", "product_deviation", "project_ball", "sample_unit_sphere",
    "one_point_estimator", "augmented_lagrangian", "primal_direction", "dual_update", "round_step", "RunState",
    "initial_state", "RoundRecord", "run_round", "record_run", "offline_comparator",
    "system_cumulative_losses", "regret", "sreg", "cacv",
]


class ConstraintSet:
    """Inequality constraints c_s(x) <= 0, s = 1..p, with a shared gradient bound.

    The general statement: one callable per constraint for its value and one
    for its gradient, and vector forms (positive parts, dual-weighted clipped
    subgradients and the dual pull over a batch of rows) that loop over them.
    """

    def __init__(self, dimension, values, gradients, gradient_bound):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = int(dimension)
        self._values = tuple(values)
        self._gradients = tuple(gradients)
        if len(self._values) != len(self._gradients):
            raise ValueError("values and gradients differ in length")
        if not self._values:
            raise ValueError("at least one constraint required")
        self.gradient_bound = float(gradient_bound)

    @property
    def count(self) -> int:
        return len(self._values)

    def value(self, x, s: int) -> float:
        self._check_index(s)
        return float(self._values[s - 1](np.asarray(x, dtype=float)))

    def gradient(self, x, s: int) -> np.ndarray:
        self._check_index(s)
        return np.asarray(self._gradients[s - 1](np.asarray(x, dtype=float)), dtype=float)

    def values(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.array([f(x) for f in self._values], dtype=float)

    def positive_parts(self, x) -> np.ndarray:
        return np.clip(self.values(x), 0.0, None)

    def positive_parts_rows(self, rows) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        return np.stack([self.positive_parts(row) for row in rows])

    def weighted_subgradient_rows(self, rows, duals) -> np.ndarray:
        """Row i of the result is sum_s duals[i, s] * clipped_subgradient(x_i, s)."""
        rows = np.asarray(rows, dtype=float)
        duals = np.asarray(duals, dtype=float)
        out = np.zeros_like(rows)
        for i, row in enumerate(rows):
            for s in range(1, self.count + 1):
                lam = duals[i, s - 1]
                if lam != 0.0 and self.value(row, s) > 0.0:
                    out[i] += lam * self.gradient(row, s)
        return out

    def dual_pull_rows(self, rows, eta) -> np.ndarray:
        """The dual pull at rows whose duals were just reset with step eta, on fresh arrays.

        Row i is sum_s (positive_parts(x_i)_s / eta) * clipped_subgradient(x_i, s),
        that is weighted_subgradient_rows(rows, positive_parts_rows(rows) / eta).
        rows is (..., d); eta is a number or an array with a last axis of 1
        that broadcasts against rows, such as one eta per seed, (S, 1, 1).
        """
        rows = np.asarray(rows, dtype=float)
        flat = rows.reshape(-1, self.dimension)
        duals = self.positive_parts_rows(flat).reshape(rows.shape[:-1] + (self.count,)) / eta
        return self.weighted_subgradient_rows(flat, duals.reshape(len(flat), -1)).reshape(rows.shape)

    def _check_index(self, s: int):
        if not 1 <= s <= self.count:
            raise IndexError(f"constraint index {s} outside 1..{self.count}")


def box_constraints(box: BoxConstraintSet) -> ConstraintSet:
    """A box stated as its 2d one-sided constraints, one callable each.

    Constraint m (1..d) is lower - x_m with gradient -e_m, constraint d + m is
    x_m - upper with gradient +e_m, the layout of BoxConstraintSet's positive
    parts; every gradient is a fresh vector. The run path's closed forms, the
    box's positive_parts_rows and the kernel's dual pull, are tested against
    this statement.
    """
    d, lower, upper = box.dimension, box.lower, box.upper
    values = [lambda x, m=m: lower - x[m] for m in range(d)] + [lambda x, m=m: x[m] - upper for m in range(d)]
    gradients = [lambda x, s=s: np.where(np.arange(d) == s % d, 1.0 if s >= d else -1.0, 0.0) for s in range(2 * d)]
    return ConstraintSet(d, values, gradients, box.gradient_bound)


def _stated(constraints) -> ConstraintSet:
    """A BoxConstraintSet as box_constraints states it; a ConstraintSet as it is."""
    return box_constraints(constraints) if isinstance(constraints, BoxConstraintSet) else constraints


@dataclass(frozen=True)
class LossOracle:
    """Single-round loss: evaluators plus sups over the ball of a given radius.

    gradient_bound and value_bound are callables of the ball radius so that a
    stream can be built before the decision radius is fixed.
    """

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    gradient_bound: Callable[[float], float]
    value_bound: Callable[[float], float]
    strong_convexity: float


def regression_loss(features, target, rho: float) -> LossOracle:
    """Regularized least-squares loss for one slot: its feature row a and target b."""
    if not 0.0 <= rho < math.inf:  # NaN fails every comparison
        raise ValueError(f"rho must be finite and >= 0, got rho = {rho}")
    a = np.asarray(features, dtype=float)
    b = float(target)
    a_norm = float(np.linalg.norm(a))

    def value(x):
        r = float(a @ x) - b
        return 0.5 * r * r + rho * float(x @ x)

    def gradient(x):
        return (float(a @ x) - b) * a + (2.0 * rho) * np.asarray(x, dtype=float)

    def gradient_bound(radius):
        return (a_norm * radius + abs(b)) * a_norm + 2.0 * rho * radius

    def value_bound(radius):
        reach = a_norm * radius + abs(b)
        return 0.5 * reach * reach + rho * radius * radius

    return LossOracle(
        value=value,
        gradient=gradient,
        gradient_bound=gradient_bound,
        value_bound=value_bound,
        strong_convexity=2.0 * rho,
    )


def clipped_subgradient(constraints: ConstraintSet | BoxConstraintSet, x, s: int) -> np.ndarray:
    """Subgradient of max(c_s(x), 0): grad c_s where c_s(x) > 0, else zero."""
    x, constraints = np.asarray(x, dtype=float), _stated(constraints)
    if constraints.value(x, s) > 0.0:
        return constraints.gradient(x, s)
    return np.zeros(constraints.dimension)


def loss_values(losses, rows) -> np.ndarray:
    """0.5 (a.x - b)^2 + rho ||x||^2 at each row, for a RegressionRound's losses, on fresh arrays.

    With rho == 0.0 the rho term is skipped: 0.0 * ||x||^2 is a zero for a
    finite row, and 0.5 r^2, which it would be added to, is never -0.0, so no
    bit changes.
    """
    residuals = _row_dots(losses.features, rows) - losses.targets
    values = 0.5 * residuals * residuals
    if not losses.rho:
        return values
    return values + losses.rho * _row_dots(rows, rows)


def loss_gradients(losses, rows) -> np.ndarray:
    """(a.x - b) a + 2 rho x at each row, for a RegressionRound's losses, on fresh arrays.

    With rho == 0.0 the rho term, 0.0 * x, is skipped. That can only change
    the sign of a zero entry; the round step adds the dual pull next, whose
    zeros are +0.0 (ConstraintSet.dual_pull_rows and the kernel's closed form),
    and that sum has the same bits with either sign.
    """
    residuals = _row_dots(losses.features, rows) - losses.targets
    gradients = residuals[..., None] * losses.features
    if not losses.rho:
        return gradients
    return gradients + (2.0 * losses.rho) * np.asarray(rows)


def consensus_mix(weights, vectors) -> np.ndarray:
    """Mix unit vectors: row i of the result is sum_j a_ij * vectors[j], for (N, N) weights a.

    vectors is (N,), (N, d), or (..., N, d) for a batch of independent
    networks that share the round's weights; each is mixed on its own.
    """
    entries, stacked = np.asarray(weights, dtype=float), np.asarray(vectors, dtype=float)
    if stacked.shape[-2 if stacked.ndim > 1 else 0] != len(entries):
        raise ValueError("one vector per node required")
    return np.matmul(entries, stacked)


def product_deviation(schedule: TopologySchedule, t: int, m: int) -> float:
    """Max |entry - 1/N| of the backward product A(t) A(t-1) ... A(m)."""
    if not 1 <= m <= t:
        raise ValueError("need 1 <= m <= t")
    product = schedule.weights_at(m)
    for r in range(m + 1, t + 1):
        product = schedule.weights_at(r) @ product
    return float(np.abs(product - 1.0 / schedule.node_count).max())


def project_ball(x, radius: float) -> np.ndarray:
    """Euclidean projection onto the origin-centered ball; identity inside it."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(x))
    if norm <= radius:
        return x
    if math.isinf(norm):  # the squared norm overflowed; radius / inf would give the origin
        return x * float(_overflow_factors(x, radius))
    return x * (radius / norm)


def sample_unit_sphere(rng: np.random.Generator, dimension: int) -> np.ndarray:
    """Uniform direction on the unit sphere via normalized Gaussians."""
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    while True:
        g = rng.standard_normal(dimension)
        norm = float(np.linalg.norm(g))
        if norm > 0.0:  # zero draw has probability zero; resample defensively
            return g / norm


def one_point_estimator(value: float, direction, dimension: int, eps: float) -> np.ndarray:
    """Gradient estimate (d / eps) * observed_value * direction from one probe."""
    if not eps > 0.0:
        raise ValueError("eps must be > 0")
    return (dimension / eps) * float(value) * np.asarray(direction, dtype=float)


def augmented_lagrangian(
    oracle: LossOracle, constraints: ConstraintSet | BoxConstraintSet, x, lam, eta: float
) -> float:
    """Round objective: loss + dual-weighted violations - (eta/2) ||lambda||^2."""
    lam = np.asarray(lam, dtype=float)
    violation = _stated(constraints).positive_parts(x)
    return float(oracle.value(np.asarray(x, dtype=float))) + float(lam @ violation) - 0.5 * eta * float(lam @ lam)


def primal_direction(x, lam, gradient, constraints: ConstraintSet | BoxConstraintSet) -> np.ndarray:
    """Descent direction: loss gradient plus dual-weighted clipped subgradients."""
    lam, constraints = np.asarray(lam, dtype=float), _stated(constraints)
    out = np.asarray(gradient, dtype=float).copy()
    for s in range(1, constraints.count + 1):
        if lam[s - 1] != 0.0:
            out += lam[s - 1] * clipped_subgradient(constraints, x, s)
    return out


def dual_update(constraints: ConstraintSet | BoxConstraintSet, x_next, eta: float) -> np.ndarray:
    """Exact argmax of the augmented Lagrangian over lambda >= 0."""
    if not eta > 0.0:
        raise ValueError("eta must be > 0")
    return _stated(constraints).positive_parts(x_next) / eta


def _round_losses(stream: RegressionStream, t: int) -> RegressionRound:
    """All units' losses at round t of the stream."""
    return RegressionRound(stream.features[t - 1], stream.targets[t - 1], stream.rho)


def round_step(rows, pull, losses, weights, beta, radius, directions=None, eps=None):
    """Steps 1-4 of a round on fresh (..., N, d) arrays: (next rows, observed losses, probes).

    The gradient is loss_gradients at the rows or, under bandit feedback
    (directions given, with eps), the one-point estimate (d / eps) f(q) u at
    the probes q = rows + eps u, whose losses f(q) are the observed ones. The
    rows descend by beta times the gradient plus the dual pull, are mixed by
    consensus_mix with the (N, N) weights and projected onto the ball of the
    given radius. observed and probes are None under full information.
    """
    observed = probes = None
    if directions is None:
        gradients = loss_gradients(losses, rows)
    else:
        probes = rows + eps * directions
        observed = loss_values(losses, probes)
        gradients = (rows.shape[-1] / eps) * observed[..., None] * directions
    mixed = consensus_mix(weights, rows - beta * (gradients + pull))
    _project_rows(mixed, radius)
    return mixed, observed, probes


@dataclass
class RunState:
    """Synchronized state of all units; row i - 1 belongs to unit i."""

    decisions: np.ndarray  # (N, d)
    duals: np.ndarray  # (N, p)
    rngs: Optional[tuple[np.random.Generator, ...]]


def initial_state(
    n_units: int, constraints: ConstraintSet | BoxConstraintSet, *, seed: Optional[int] = None
) -> RunState:
    """All decisions and duals start at zero; a seed gives each unit the sphere stream bandit rounds draw from."""
    return RunState(
        decisions=np.zeros((n_units, constraints.dimension)),
        duals=np.zeros((n_units, constraints.count)),
        rngs=None if seed is None else _sphere_rngs(seed, n_units),
    )


@dataclass(frozen=True)
class RoundRecord:
    """What round t leaves behind for metrics; record_run stacks a run's records on a first axis of T rounds."""

    decisions: np.ndarray  # committed x_i(t), (N, d)
    losses: np.ndarray  # incurred (bandit: observed at the probe), (N,)
    violations: np.ndarray  # positive parts at the committed decisions, (N, p)
    queries: Optional[np.ndarray]  # bandit probes, (N, d)


def run_round(
    state: RunState,
    round_losses,
    weights: np.ndarray,
    hyper: HyperSchedule,
    constraints: ConstraintSet | BoxConstraintSet,
    t: int,
) -> tuple[RunState, RoundRecord]:
    """One synchronized round of one seed from an explicit state; see netoco.algorithm's module docstring.

    The schedule decides the feedback: under bandit feedback each unit draws its
    sphere direction from its stream in state.rngs, ValueError if there are none.
    """
    rows, radius, eta = state.decisions, hyper.decision_radius, hyper.eta(t)
    constraints = _stated(constraints)
    directions = None
    if hyper.is_bandit:
        if state.rngs is None:
            raise ValueError("bandit rounds need per-unit rng streams")
        directions = np.stack([sample_unit_sphere(rng, rows.shape[1]) for rng in state.rngs])
    pull = constraints.weighted_subgradient_rows(rows, state.duals)
    nxt, observed, queries = round_step(rows, pull, round_losses, weights, hyper.beta(t), radius, directions, hyper.eps)
    if queries is not None:
        _check_in_ball(queries, hyper.radius, t, "probe")
    _check_in_ball(nxt, radius, t + 1, "decision")
    record = RoundRecord(
        decisions=rows,
        losses=loss_values(round_losses, rows) if observed is None else observed,
        violations=constraints.positive_parts_rows(rows),
        queries=queries,
    )
    duals = constraints.positive_parts_rows(nxt) / eta
    return RunState(decisions=nxt, duals=duals, rngs=state.rngs), record


def record_run(
    stream: RegressionStream,
    topology: TopologySchedule,
    hyper: HyperSchedule,
    constraints: ConstraintSet | BoxConstraintSet,
    seed: Optional[int] = None,
) -> RoundRecord:
    """One seed's run through every round of the stream, its rounds chained from the initial state.

    Round t is run_round on the stream's round t and the topology's weights
    at t; the records of the rounds are stacked, indexed [t - 1] on the first
    axis. ValueError for a bandit run without a seed.
    """
    if hyper.is_bandit and seed is None:
        raise ValueError("bandit runs need a seed")
    constraints = _stated(constraints)
    state = initial_state(stream.n_units, constraints, seed=seed)
    records = []
    for t in range(1, stream.horizon + 1):
        state, record = run_round(state, _round_losses(stream, t), topology.weights_at(t), hyper, constraints, t)
        records.append(record)
    columns = zip(*((r.decisions, r.losses, r.violations, r.queries) for r in records))
    return RoundRecord(*(None if column[0] is None else np.stack(column) for column in columns))


def offline_comparator(
    stream: RegressionStream,
    constraints: BoxConstraintSet,
    T: int,
    *,
    tol: float = 1e-9,
    max_iters: int = 100_000,
) -> Comparator:
    """Minimize the accumulated loss over the box for one prefix, on one vector.

    Projected gradient descent on the prefix's quadratic from the projected
    origin, with step 1/(sum ||a||^2 + 2 rho N T), until the iterate moves by
    at most tol: the solver metrics.offline_comparators takes for each of its
    rows. A prefix without curvature returns the projected origin after 0
    iterations. The gap is the Frank-Wolfe gap at the point, grad.(x - v) at
    the box's vertex v that minimizes grad.v. ConvergenceError, naming T, if
    max_iters iterations do not stop. ValueError if T is not an integer, if
    the constraints' dimension is not the stream's, and, naming its type, if
    they are not a BoxConstraintSet.
    """
    _check_box(constraints, "the comparator")
    if constraints.dimension != stream.dimension:
        raise ValueError("constraint dimension does not match the stream")
    T = _integer(T, "checkpoint")
    stats = stream.sufficient_statistics(T)
    gram, cross = stats.gram, stats.cross
    reg = 2.0 * stats.rho * stats.count
    x = constraints.project(np.zeros(stream.dimension))
    residual, iterations = 0.0, 0
    curvature = float(np.trace(gram)) + reg
    if curvature > 0.0:
        step, residual = 1.0 / curvature, math.inf
        for iterations in range(1, max_iters + 1):
            x_next = constraints.project(x - step * (gram @ x - cross + reg * x))
            residual = float(np.linalg.norm(x_next - x))
            x = x_next
            if residual <= tol:
                break
        else:
            raise ConvergenceError(
                f"comparator did not converge at checkpoint T = {T}: "
                f"residual {residual:.3e} after {max_iters} iterations"
            )
    objective = float(
        0.5 * (x @ gram @ x) - cross @ x + 0.5 * stats.target_square_sum
    ) + 0.5 * reg * float(x @ x)
    grad = gram @ x - cross + reg * x
    gap = float(grad @ (x - np.where(grad > 0.0, constraints.lower, constraints.upper)))
    return Comparator(point=x, objective=objective, residual=residual, iterations=iterations, gap=gap)


def system_cumulative_losses(record: RoundRecord, stream, T: int) -> np.ndarray:
    """Entry i - 1: sum_{t<=T} sum_j loss_{j,t}(x_i(t)) at a record's committed decisions, added round by round."""
    check_checkpoints((T,), len(record.decisions))
    return sum(_round_losses(stream, t).system_values(record.decisions[t - 1]) for t in range(1, T + 1))


def regret(record: RoundRecord, stream, comparator: Comparator, i: int, T: int) -> float:
    """System regret of unit i against a comparator solved for the same T."""
    n_units = record.decisions.shape[1]
    if not 1 <= i <= n_units:
        raise IndexError(f"unit {i} outside 1..{n_units}")
    return float(system_cumulative_losses(record, stream, T)[i - 1] - comparator.objective)


def sreg(record: RoundRecord, stream, comparator: Comparator, T: int) -> float:
    """Largest per-unit system regret."""
    return float((system_cumulative_losses(record, stream, T) - comparator.objective).max())


def cacv(record: RoundRecord, T: int) -> float:
    """Cumulative absolute constraint violation over units, constraints, rounds."""
    check_checkpoints((T,), len(record.decisions))
    return float(record.violations[:T].sum())
