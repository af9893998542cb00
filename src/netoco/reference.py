"""The paper's algorithm and metrics stated per unit: the oracle the kernel is tested against.

One example's loss oracle and one constraint's clipped subgradient; a round's
loss values and gradients and the consensus mix on fresh arrays, whose bits
the kernel's in-place round keeps; one vector's ball projection, sphere
direction and one-point estimate; the round's augmented Lagrangian, primal
direction and dual reset; one synchronized round of all units from an explicit
RunState (run_round_full and run_round_bandit run the kernel's loop,
algorithm._run_block, on a block of one round, so the round has one body), and
one seed's run recorded by chaining them (record_run); and that run's regret
and violation at one prefix length, its system loss added round by round, and
the hindsight comparator of that prefix, solved on one vector. The run-path
modules never import this one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .algorithm import (
    HyperSchedule, _check_in_ball, _overflow_factors, _round_views, _run_block, _scratch, _sphere_rngs,
    check_checkpoints,
)
from .metrics import Comparator, ConvergenceError
from .network import TopologySchedule, WeightMatrix
from .problems import ConstraintSet, RegressionExample, RegressionStream, _row_dots

__all__ = [
    "LossOracle", "regression_loss", "clipped_subgradient", "loss_values", "loss_gradients", "consensus_mix",
    "project_ball", "sample_unit_sphere", "one_point_estimator", "augmented_lagrangian", "primal_direction",
    "dual_update", "RunState", "initial_state", "RoundRecord", "run_round_full", "run_round_bandit",
    "record_run", "offline_comparator", "system_cumulative_losses", "regret", "sreg", "cacv",
]


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


def regression_loss(example: RegressionExample, rho: float) -> LossOracle:
    """Regularized least-squares loss for one example."""
    if not 0.0 <= rho < math.inf:  # NaN fails every comparison
        raise ValueError(f"rho must be finite and >= 0, got rho = {rho}")
    a = example.features
    b = example.target
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


def clipped_subgradient(constraints: ConstraintSet, x, s: int) -> np.ndarray:
    """Subgradient of max(c_s(x), 0): grad c_s where c_s(x) > 0, else zero."""
    x = np.asarray(x, dtype=float)
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
    zeros are +0.0 (dual_pull_rows), and that sum has the same bits with
    either sign.
    """
    residuals = _row_dots(losses.features, rows) - losses.targets
    gradients = residuals[..., None] * losses.features
    if not losses.rho:
        return gradients
    return gradients + (2.0 * losses.rho) * np.asarray(rows)


def consensus_mix(matrix: WeightMatrix, vectors) -> np.ndarray:
    """Mix unit vectors: row i of the result is sum_j a_ij * vectors[j].

    vectors is (N,), (N, d), or (..., N, d) for a batch of independent
    networks that share the round's weights; each is mixed on its own.
    """
    entries, stacked = matrix.entries, np.asarray(vectors, dtype=float)
    if stacked.shape[-2 if stacked.ndim > 1 else 0] != len(entries):
        raise ValueError("one vector per node required")
    return np.matmul(entries, stacked)


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
    oracle: LossOracle, constraints: ConstraintSet, x, lam, eta: float
) -> float:
    """Round objective: loss + dual-weighted violations - (eta/2) ||lambda||^2."""
    lam = np.asarray(lam, dtype=float)
    violation = constraints.positive_parts(x)
    return float(oracle.value(np.asarray(x, dtype=float))) + float(lam @ violation) - 0.5 * eta * float(lam @ lam)


def primal_direction(x, lam, gradient, constraints: ConstraintSet) -> np.ndarray:
    """Descent direction: loss gradient plus dual-weighted clipped subgradients."""
    lam = np.asarray(lam, dtype=float)
    out = np.asarray(gradient, dtype=float).copy()
    for s in range(1, constraints.count + 1):
        if lam[s - 1] != 0.0:
            out += lam[s - 1] * clipped_subgradient(constraints, x, s)
    return out


def dual_update(constraints: ConstraintSet, x_next, eta: float) -> np.ndarray:
    """Exact argmax of the augmented Lagrangian over lambda >= 0."""
    if not eta > 0.0:
        raise ValueError("eta must be > 0")
    return constraints.positive_parts(x_next) / eta


@dataclass
class RunState:
    """Synchronized state of all units; row i - 1 belongs to unit i."""

    decisions: np.ndarray  # (N, d)
    duals: np.ndarray  # (N, p)
    rngs: Optional[tuple[np.random.Generator, ...]]


def initial_state(
    n_units: int, constraints: ConstraintSet, *, seed: Optional[int] = None, bandit: bool = False
) -> RunState:
    """All decisions and duals start at zero; bandit runs get per-unit streams."""
    rngs = None
    if bandit:
        if seed is None:
            raise ValueError("bandit runs need a seed")
        rngs = _sphere_rngs(seed, n_units)
    return RunState(
        decisions=np.zeros((n_units, constraints.dimension)),
        duals=np.zeros((n_units, constraints.count)),
        rngs=rngs,
    )


@dataclass(frozen=True)
class RoundRecord:
    """What round t leaves behind for metrics; record_run stacks a run's records on a first axis of T rounds."""

    decisions: np.ndarray  # committed x_i(t), (N, d)
    losses: np.ndarray  # incurred (bandit: observed at the probe), (N,)
    violations: np.ndarray  # positive parts at the committed decisions, (N, p)
    queries: Optional[np.ndarray]  # bandit probes, (N, d)


def _round(state: RunState, round_losses, weights, hyper, constraints, t, directions):
    """One round of one seed from an explicit state, run as a block of one round.

    directions is None for full information.
    """
    rows = state.decisions
    committed = np.empty((2,) + rows.shape)
    committed[0] = rows
    probes = queries = dimension_over_eps = None
    if directions is not None:
        eps = hyper.eps(t)
        observed, queries = np.empty((1,) + rows.shape[:-1]), np.empty((1,) + rows.shape)
        probes = directions[None], (eps * directions)[None], observed, queries
        dimension_over_eps = rows.shape[-1] / eps
    eta, radius = hyper.eta(t), hyper.decision_radius
    # A RunState carries the duals, not their pull, so the pull left in this array is dropped.
    pull = constraints.weighted_subgradient_rows(rows, state.duals)
    views = _round_views(
        committed, round_losses.features[None], round_losses.targets[None],
        np.full(committed[1:].shape, hyper.beta(t)), np.full(committed[1:].shape, eta), probes,
    )
    _run_block(
        views, pull, 0, (weights.entries,), radius, round_losses.rho, constraints, _scratch(rows.shape),
        dimension_over_eps,
    )
    nxt = committed[1]
    if queries is not None:
        queries = queries[0]
        _check_in_ball(queries, hyper.radius, t, "probe")
    _check_in_ball(nxt, radius, t + 1, "decision")
    record = RoundRecord(
        decisions=rows,
        losses=loss_values(round_losses, rows) if directions is None else observed[0],
        violations=constraints.positive_parts_rows(rows),
        queries=queries,
    )
    duals = constraints.positive_parts_rows(nxt) / eta
    return RunState(decisions=nxt, duals=duals, rngs=state.rngs), record


def run_round_full(
    state: RunState,
    round_losses,
    weights: WeightMatrix,
    hyper: HyperSchedule,
    constraints: ConstraintSet,
    t: int,
) -> tuple[RunState, RoundRecord]:
    """One synchronized full-information round; see netoco.algorithm's module docstring."""
    return _round(state, round_losses, weights, hyper, constraints, t, None)


def run_round_bandit(
    state: RunState,
    round_losses,
    weights: WeightMatrix,
    hyper: HyperSchedule,
    constraints: ConstraintSet,
    t: int,
) -> tuple[RunState, RoundRecord]:
    """One synchronized one-point bandit round; see netoco.algorithm's module docstring."""
    if state.rngs is None:
        raise ValueError("bandit rounds need per-unit rng streams")
    dimension = state.decisions.shape[1]
    directions = np.stack([sample_unit_sphere(rng, dimension) for rng in state.rngs])
    return _round(state, round_losses, weights, hyper, constraints, t, directions)


def record_run(
    stream: RegressionStream,
    topology: TopologySchedule,
    hyper: HyperSchedule,
    constraints: ConstraintSet,
    seed: Optional[int] = None,
) -> RoundRecord:
    """One seed's run through every round of the stream, its rounds chained from the initial state.

    Round t is run_round_bandit under bandit feedback, run_round_full
    otherwise, on the stream's round t and the topology's weights at t; the
    records of the rounds are stacked, indexed [t - 1] on the first axis.
    """
    state = initial_state(stream.n_units, constraints, seed=seed, bandit=hyper.is_bandit)
    run_round = run_round_bandit if hyper.is_bandit else run_round_full
    records = []
    for t in range(1, stream.horizon + 1):
        state, record = run_round(state, stream.round(t), topology.weights_at(t), hyper, constraints, t)
        records.append(record)
    columns = zip(*((r.decisions, r.losses, r.violations, r.queries) for r in records))
    return RoundRecord(*(None if column[0] is None else np.stack(column) for column in columns))


def offline_comparator(
    stream: RegressionStream,
    constraints,
    T: int,
    *,
    tol: float = 1e-9,
    max_iters: int = 100_000,
) -> Comparator:
    """Minimize the accumulated loss over the constraint region for one prefix, on one vector.

    Projected gradient descent on the prefix's quadratic from the projected
    origin, with step 1/(sum ||a||^2 + 2 rho N T), until the iterate moves by
    at most tol: the solver metrics.offline_comparators takes for each of its
    rows. A prefix without curvature returns the projected origin after 0
    iterations. The gap is left nan. ConvergenceError, naming T, if max_iters
    iterations do not stop.
    """
    if not hasattr(constraints, "project"):
        raise ValueError("the comparator needs a constraint set with a projection")
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
    return Comparator(point=x, objective=objective, residual=residual, iterations=iterations)


def system_cumulative_losses(record: RoundRecord, stream, T: int) -> np.ndarray:
    """Entry i - 1: sum_{t<=T} sum_j loss_{j,t}(x_i(t)) at a record's committed decisions, added round by round."""
    check_checkpoints((T,), len(record.decisions))
    return sum(stream.round(t).system_values(record.decisions[t - 1]) for t in range(1, T + 1))


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
