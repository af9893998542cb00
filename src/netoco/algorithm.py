"""Consensus primal-dual online updates with long-term constraints.

Every unit i keeps a decision x_i inside the ball of radius R and a
nonnegative dual vector lambda_i, one multiplier per constraint. A round t
proceeds in lockstep:

  1. commit x_i(t) and incur its loss (full information evaluates the loss
     gradient there; bandit feedback probes a single point x_i(t) + eps * u_i
     with u_i uniform on the unit sphere and forms the one-point gradient
     estimate from the observed value alone);
  2. descend on the violation-augmented objective,
     y_i = x_i - beta_t * (g_i + sum_s lambda_is * clipped_subgradient(x_i, s));
  3. mix with the neighbors' y-vectors through the round's weight matrix;
  4. project back onto the decision ball;
  5. reset each multiplier to the new violation over eta_t,
     lambda_i(t+1) = positive_parts(x_i(t+1)) / eta_t, which is the exact
     maximizer of the round's augmented Lagrangian over lambda >= 0.

Bandit variants commit inside the shrunk ball of radius (1 - pi) * R so that
every probe stays inside the full ball; eps_t <= pi * R is enforced when the
schedule is built, and both balls are checked at run time, raising
RuntimeError that names the round and unit of a probe or a decision outside
its ball. The kernel checks once per block of rounds, before it hands the
block out; run_round_full and run_round_bandit check their own round.

One kernel, _lockstep, runs the S seeds of a scenario in lockstep on (S, N, d)
arrays and hands out blocks of B rounds; only it loops round by round. run_seeds
keeps the running sums the metrics need, in O(B S N (d + p) + K S N) memory
beyond the streams; run_experiment records one seed's trajectory, and
run_round_full and run_round_bandit take one round from an explicit RunState.
All take the round through _step, which carries only the decisions and the
dual pull from round to round (steps 2 and 5 meet in
ConstraintSet.dual_pull_rows), so each seed gets the same bits.

The four variants differ in two facts, strong convexity and bandit feedback,
and in which parameters they need; variant_spec holds all three per variant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .network import TopologySchedule, WeightMatrix, consensus_mix
from .problems import ConstraintSet, LossOracle, RegressionRound, _row_dots, clipped_subgradient

__all__ = [
    "VARIANTS",
    "VariantSpec",
    "variant_spec",
    "HyperSchedule",
    "make_schedule",
    "project_ball",
    "sample_unit_sphere",
    "one_point_estimator",
    "augmented_lagrangian",
    "primal_direction",
    "dual_update",
    "RunState",
    "initial_state",
    "RoundRecord",
    "run_round_full",
    "run_round_bandit",
    "RunTrajectory",
    "run_experiment",
    "CheckpointTotals",
    "check_checkpoints",
    "run_seeds",
]


@dataclass(frozen=True)
class VariantSpec:
    """What a variant's name decides: its loss class, its feedback, its parameters."""

    strongly_convex: bool
    bandit: bool

    def check_parameters(self, *, c, a, sigma):
        """Convex variants need c in (0, 1) and a > 1, strongly convex ones sigma > 0."""
        if self.strongly_convex:
            if sigma is None or not sigma > 0.0:
                raise ValueError(f"strongly convex variants need sigma > 0, got sigma = {sigma}")
            return
        if c is None or not 0.0 < c < 1.0:
            raise ValueError(f"convex variants need c in (0, 1) (c must lie inside), got c = {c}")
        if not a > 1.0:
            raise ValueError(f"convex variants need a > 1 (a must be above 1), got a = {a}")


_SPECS = {
    "convex-full": VariantSpec(strongly_convex=False, bandit=False),
    "strongly-convex-full": VariantSpec(strongly_convex=True, bandit=False),
    "convex-bandit": VariantSpec(strongly_convex=False, bandit=True),
    "strongly-convex-bandit": VariantSpec(strongly_convex=True, bandit=True),
}
VARIANTS = tuple(_SPECS)


def variant_spec(variant: str) -> VariantSpec:
    """The table entry of a variant name; ValueError names the known variants."""
    spec = _SPECS.get(variant)
    if spec is None:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    return spec


# SeedSequence spawn-key purpose for per-unit sphere directions; the data
# streams in problems.py use 1 and 2.
_SPAWN_SPHERE = 3


@dataclass(frozen=True)
class HyperSchedule:
    """Per-round step sizes for one of the four variants.

    Convex variants use constant eta_t = T^-c and beta_t = 1/(a p G^2 T^c);
    strongly convex variants decay as eta_t = 2 p G^2/(sigma t) and
    beta_t = 1/(sigma t). Bandit variants add the probe radius
    eps_t = T^-b and the ball shrinkage pi = 1/(R T^b), with b = c/3 for the
    convex case and b = 1/3 for the strongly convex one.
    """

    variant: str
    p: int
    G: float
    radius: float
    horizon: int
    a: float
    c: Optional[float]
    sigma: Optional[float]
    b: Optional[float]
    pi: float

    @property
    def is_bandit(self) -> bool:
        return variant_spec(self.variant).bandit

    @property
    def is_strongly_convex(self) -> bool:
        return variant_spec(self.variant).strongly_convex

    @property
    def decision_radius(self) -> float:
        """Radius of the ball decisions are projected onto."""
        return (1.0 - self.pi) * self.radius if self.is_bandit else self.radius

    def eta(self, t: int) -> float:
        self._check_round(t)
        return float(self._eta(t))

    def beta(self, t: int) -> float:
        self._check_round(t)
        return float(self._beta(t))

    def step_sizes(self) -> tuple[np.ndarray, np.ndarray]:
        """(eta_t, beta_t) for t = 1..T as two (T,) arrays, from the formulas of eta and beta."""
        t = np.arange(1, self.horizon + 1, dtype=float)
        return np.broadcast_to(self._eta(t), t.shape), np.broadcast_to(self._beta(t), t.shape)

    def _eta(self, t):
        if self.is_strongly_convex:
            return 2.0 * self.p * self.G * self.G / (self.sigma * t)
        return float(self.horizon) ** (-self.c)

    def _beta(self, t):
        if self.is_strongly_convex:
            return 1.0 / (self.sigma * t)
        return 1.0 / (self.a * self.p * self.G * self.G * float(self.horizon) ** self.c)

    def eps(self, t: int) -> float:
        self._check_round(t)
        if not self.is_bandit:
            raise ValueError(f"variant {self.variant!r} has no probe radius")
        return float(self.horizon) ** (-self.b)

    def _check_round(self, t: int):
        if not 1 <= t <= self.horizon:
            raise ValueError(f"round {t} outside 1..{self.horizon}")


def make_schedule(
    variant: str,
    *,
    p: int,
    G: float,
    radius: float,
    horizon: int,
    c: Optional[float] = None,
    a: float = 2.0,
    sigma: Optional[float] = None,
) -> HyperSchedule:
    """Validate parameters and assemble the step schedule for a variant."""
    spec = variant_spec(variant)
    if p < 1:
        raise ValueError("p must be >= 1")
    if not G > 0.0:
        raise ValueError("G must be > 0")
    if not radius > 0.0:
        raise ValueError("radius must be > 0")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    spec.check_parameters(c=c, a=a, sigma=sigma)
    strongly = spec.strongly_convex
    b = None
    pi = 0.0
    if spec.bandit:
        b = 1.0 / 3.0 if strongly else c / 3.0
        pi = 1.0 / (radius * float(horizon) ** b)
        if not pi < 1.0:
            raise ValueError(
                f"shrinkage pi = {pi:.6g} >= 1: horizon {horizon} too short for "
                f"radius {radius} at probe exponent b = {b:.6g}"
            )
        # Probe containment: eps_t <= pi * radius, with equality at these formulas.
        eps = float(horizon) ** (-b)
        if eps > pi * radius * (1.0 + 1e-12):
            raise ValueError("probe radius exceeds the shrinkage margin")
    return HyperSchedule(
        variant=variant,
        p=int(p),
        G=float(G),
        radius=float(radius),
        horizon=int(horizon),
        a=float(a),
        c=None if strongly else float(c),
        sigma=float(sigma) if strongly else None,
        b=b,
        pi=pi,
    )


def project_ball(x, radius: float) -> np.ndarray:
    """Euclidean projection onto the origin-centered ball; identity inside it."""
    x = np.asarray(x, dtype=float)
    norm = float(np.linalg.norm(x))
    if norm <= radius:
        return x
    return x * (radius / norm)


def _project_rows(rows: np.ndarray, radius: float) -> np.ndarray:
    # radius / max(norm, radius) is exactly 1.0 inside the ball.
    norms = np.sqrt(_row_dots(rows, rows))
    return rows * (radius / np.maximum(norms, radius))[..., None]


def _check_in_ball(rows: np.ndarray, radius: float, first_round: int = 1, kind: str = "row"):
    """Raise unless every row lies in the ball; the tolerance covers rounding only.

    rows is (N, d) for round first_round, or (B, ..., N, d) for the rounds
    first_round..first_round + B - 1. The error names the round and the unit
    of the first row outside the ball; kind says what the rows are.
    """
    squares = _row_dots(rows, rows)
    bound = (radius + 1e-12) ** 2
    if squares.max() <= bound:
        return
    where = np.unravel_index(np.flatnonzero(~(squares <= bound))[0], squares.shape)
    t = first_round + (where[0] if squares.ndim > 1 else 0)
    raise RuntimeError(
        f"containment broken at round {t}: the {kind} of unit {where[-1] + 1} has norm "
        f"{np.sqrt(squares[where]):.17g}, outside the ball of radius {radius:.17g}"
    )


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


def _sphere_rngs(seed: int, n_units: int) -> tuple[np.random.Generator, ...]:
    return tuple(
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_SPAWN_SPHERE, i)))
        for i in range(1, n_units + 1)
    )


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
    """What round t leaves behind for metrics."""

    decisions: np.ndarray  # committed x_i(t), (N, d)
    losses: np.ndarray  # incurred (bandit: observed at the probe), (N,)
    violations: np.ndarray  # positive parts at the committed decisions, (N, p)
    queries: Optional[np.ndarray]  # bandit probes, (N, d)


def _step(committed, pull, round_losses, weights, radius, constraints, beta, eta, probe):
    """One round on (..., N, d) decision rows, with its step sizes already evaluated.

    pull is the dual pull at the committed rows, sum_s lambda_is times the
    clipped subgradient of constraint s. beta and eta broadcast against the
    rows, so a batch of seeds can carry one step size each. probe is None
    under full information and (eps, directions) under bandit feedback.
    Returns the next decisions (projected onto the ball of the given radius)
    and the dual pull at them, then the losses observed at the probes and the
    probes (None under full information). Nothing here checks containment or
    records violations: the callers do that for a round or a block at once.
    """
    if probe is None:
        queries = observed = None
        gradients = round_losses.gradients(committed)
    else:
        eps, directions = probe
        queries = committed + eps * directions
        observed = round_losses.values(queries)
        gradients = (committed.shape[-1] / eps) * observed[..., None] * directions
    y = committed - beta * (gradients + pull)
    nxt = _project_rows(consensus_mix(weights, y), radius)
    return nxt, constraints.dual_pull_rows(nxt, eta), observed, queries


def _round(state: RunState, round_losses, weights, hyper, constraints, t, directions):
    """One round of one seed from an explicit state; directions is None for full information."""
    committed = state.decisions
    probe = None if directions is None else (hyper.eps(t), directions)
    eta, radius = hyper.eta(t), hyper.decision_radius
    # A RunState carries the duals, not their pull, so the pull _step returns is dropped.
    nxt, _, observed, queries = _step(
        committed, constraints.weighted_subgradient_rows(committed, state.duals),
        round_losses, weights, radius, constraints, hyper.beta(t), eta, probe,
    )
    if queries is not None:
        _check_in_ball(queries, hyper.radius, t, "probe")
    _check_in_ball(nxt, radius, t + 1, "decision")
    record = RoundRecord(
        decisions=committed,
        losses=round_losses.values(committed) if directions is None else observed,
        violations=constraints.positive_parts_rows(committed),
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
    """One synchronized full-information round; see the module docstring."""
    return _round(state, round_losses, weights, hyper, constraints, t, None)


def run_round_bandit(
    state: RunState,
    round_losses,
    weights: WeightMatrix,
    hyper: HyperSchedule,
    constraints: ConstraintSet,
    t: int,
) -> tuple[RunState, RoundRecord]:
    """One synchronized one-point bandit round; see the module docstring."""
    if state.rngs is None:
        raise ValueError("bandit rounds need per-unit rng streams")
    dimension = state.decisions.shape[1]
    directions = np.stack([sample_unit_sphere(rng, dimension) for rng in state.rngs])
    return _round(state, round_losses, weights, hyper, constraints, t, directions)


# Rounds per block of stacked stream data and pre-drawn sphere directions.
_BLOCK = 128


def _sphere_block(rngs, rounds: int, dimension: int) -> np.ndarray:
    """Directions for the next `rounds` rounds, indexed [round, seed, unit].

    rngs[s][i] is unit i + 1's stream for seed s. A block draw takes the same
    Gaussians as one sample_unit_sphere call per round, and the row dot below
    rounds exactly like np.linalg.norm on one row, so the directions match the
    scalar sampler bit for bit. The scalar sampler redraws a zero vector; a
    block cannot, so it raises instead of diverging.
    """
    draws = np.empty((rounds, len(rngs), len(rngs[0]), dimension))
    for s, unit_rngs in enumerate(rngs):
        for i, rng in enumerate(unit_rngs):
            draws[:, s, i] = rng.standard_normal((rounds, dimension))
    norms = np.sqrt(draws[..., None, :] @ draws[..., :, None])[..., 0]
    if not norms.all():
        raise RuntimeError("a sphere direction drew the zero vector; it has no direction")
    draws /= norms
    return draws


def _lockstep(streams, topology: TopologySchedule, schedules, constraints: ConstraintSet, seeds):
    """Run every seed of a batch in lockstep on (S, N, d) arrays, one block of rounds per yield.

    Yields (start, block_losses, committed, violations, observed, queries) for
    the block of B <= _BLOCK rounds start + 1..start + B: all seeds' losses of
    the block as one RegressionRound over (B, S, N, d), the committed decisions
    (B, S, N, d), the positive parts at them (B, S, N, p), and for bandit
    variants the losses observed at the probes (B, S, N) and the probes
    (B, S, N, d) (None otherwise). Only this loop runs round by round, and
    each round carries only the decisions and the dual pull; containment is
    checked and the violations are computed once per block, before the block
    is yielded, so a broken row stops the run at most B - 1 rounds late. Each
    seed's numbers are bit for bit those of a run on its own.
    """
    if not streams or len(streams) != len(schedules) or len(streams) != len(seeds):
        raise ValueError("need one stream, schedule and seed per run")
    first = streams[0]
    n, d, horizon, rho = first.n_units, first.dimension, first.horizon, first.rho
    if any((s.n_units, s.dimension, s.horizon, s.rho) != (n, d, horizon, rho) for s in streams):
        raise ValueError("the streams of one batch must agree on N, d, T and rho")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if topology.node_count != n:
        raise ValueError(f"topology has {topology.node_count} nodes, stream has {n} units")
    if constraints.dimension != d:
        raise ValueError("constraint dimension does not match the stream")
    hyper = schedules[0]
    if len({replace(h, G=1.0) for h in schedules}) != 1:
        raise ValueError("the schedules of one batch may differ only in G")
    if hyper.horizon != horizon:
        raise ValueError(f"schedule horizon {hyper.horizon} != stream horizon {horizon}")
    if hyper.p != constraints.count:
        raise ValueError("schedule was built for a different constraint count")
    bandit = hyper.is_bandit
    if bandit:
        if any(seed is None for seed in seeds):
            raise ValueError("bandit runs need a seed")
        rngs = [_sphere_rngs(seed, n) for seed in seeds]
        eps = hyper.eps(1)

    steps = [h.step_sizes() for h in schedules]
    etas = np.stack([eta for eta, _ in steps], axis=1)[:, :, None, None]  # (T, S, 1, 1)
    betas = np.stack([beta for _, beta in steps], axis=1)[:, :, None, None]
    # Round t mixes with weights[(t - 1) % period], as weights_at(t) gives, without its range check.
    weights, radius = topology.weights, hyper.decision_radius
    decisions = np.zeros((len(streams), n, d))
    # The duals start at zero, so round 1 feels no pull even where x = 0 violates a constraint.
    pull = np.zeros(decisions.shape)
    for start in range(0, horizon, _BLOCK):
        stop = min(start + _BLOCK, horizon)
        features = np.stack([s.features[start:stop] for s in streams], axis=1)
        targets = np.stack([s.targets[start:stop] for s in streams], axis=1)
        directions = _sphere_block(rngs, stop - start, d) if bandit else None
        committed = np.empty(features.shape)
        observed = np.empty(targets.shape) if bandit else None
        queries = np.empty(features.shape) if bandit else None
        for k, t in enumerate(range(start + 1, stop + 1)):
            committed[k] = decisions
            decisions, pull, seen, probes = _step(
                decisions, pull, RegressionRound(features[k], targets[k], rho),
                weights[(t - 1) % len(weights)], radius, constraints,
                betas[t - 1], etas[t - 1], None if directions is None else (eps, directions[k]),
            )
            if bandit:
                observed[k], queries[k] = seen, probes
        # Containment of the block, before any of it is handed out: every
        # committed decision, the decisions left for round stop + 1, every probe.
        _check_in_ball(committed, radius, start + 1, "decision")
        _check_in_ball(decisions[None], radius, stop + 1, "decision")
        if bandit:
            _check_in_ball(queries, hyper.radius, start + 1, "probe")
        violated = constraints.positive_parts_rows(committed.reshape(-1, d))
        violated = violated.reshape(committed.shape[:-1] + (constraints.count,))
        yield start, RegressionRound(features, targets, rho), committed, violated, observed, queries


def _running_sums(rows: np.ndarray, carry) -> np.ndarray:
    """Overwrite rows with carry + their running sums along axis 0, the bits of a += per row."""
    rows[0] += carry
    return np.cumsum(rows, axis=0, out=rows)


def check_checkpoints(checkpoints, horizon: int) -> tuple[int, ...]:
    """The checkpoints as ints; ValueError unless nonempty, strictly increasing, in 1..horizon."""
    checkpoints = tuple(int(k) for k in checkpoints)
    if not checkpoints:
        raise ValueError("at least one checkpoint required")
    if list(checkpoints) != sorted(set(checkpoints)):
        raise ValueError("checkpoints must be strictly increasing")
    if not 1 <= checkpoints[0] <= checkpoints[-1] <= horizon:
        raise ValueError(f"checkpoints must lie in 1..{horizon}, the prefix lengths of the run")
    return checkpoints


@dataclass
class RunTrajectory:
    """Everything one run produced, indexed [t - 1] on the first axis."""

    variant: str
    decision_radius: float
    pi: float
    decisions: np.ndarray  # (T, N, d) committed decisions
    losses: np.ndarray  # (T, N) incurred/observed loss values
    violations: np.ndarray  # (T, N, p) positive parts at committed decisions
    queries: Optional[np.ndarray]  # (T, N, d) bandit probes, None otherwise
    edge_counts: np.ndarray  # (T,) undirected edges active per round

    @property
    def horizon(self) -> int:
        return self.decisions.shape[0]

    @property
    def n_units(self) -> int:
        return self.decisions.shape[1]

    @property
    def dimension(self) -> int:
        return self.decisions.shape[2]


def run_experiment(
    stream,
    topology: TopologySchedule,
    hyper: HyperSchedule,
    constraints: ConstraintSet,
    seed: Optional[int] = None,
) -> RunTrajectory:
    """Run all rounds of one seed and collect the trajectory.

    The stream fixes N, d, and T; the topology and schedule must agree with
    them. Identical inputs produce bitwise identical trajectories.
    """
    n, d, horizon = stream.n_units, stream.dimension, stream.horizon
    decisions = np.empty((horizon, n, d))
    losses = np.empty((horizon, n))
    violations = np.empty((horizon, n, constraints.count))
    queries = np.empty((horizon, n, d)) if hyper.is_bandit else None
    for start, block_losses, committed, violated, observed, probes in _lockstep(
        [stream], topology, [hyper], constraints, [seed]
    ):
        rounds = slice(start, start + len(committed))
        decisions[rounds] = committed[:, 0]
        violations[rounds] = violated[:, 0]
        if probes is None:
            losses[rounds] = block_losses.values(committed)[:, 0]
        else:
            losses[rounds] = observed[:, 0]
            queries[rounds] = probes[:, 0]
    counts = np.array([len(g.edges) for g in topology.graphs], dtype=np.int64)
    return RunTrajectory(
        variant=hyper.variant,
        decision_radius=hyper.decision_radius,
        pi=hyper.pi,
        decisions=decisions,
        losses=losses,
        violations=violations,
        queries=queries,
        edge_counts=counts[np.arange(horizon) % topology.period],
    )


@dataclass(frozen=True)
class CheckpointTotals:
    """Running sums of a batch of seeds, taken at each of K checkpoints."""

    system_losses: np.ndarray  # (K, S, N): sum_{t<=T} sum_j loss_{j,t}(x_i(t))
    violations: np.ndarray  # (K, S): positive parts summed over units, constraints, rounds


def run_seeds(
    streams,
    topology: TopologySchedule,
    schedules,
    constraints: ConstraintSet,
    seeds,
    checkpoints,
) -> CheckpointTotals:
    """Run S seeds in lockstep and keep only the sums that metrics need.

    streams[s], schedules[s] and seeds[s] belong to one run; the schedules may
    differ only in G. No trajectory is stored: the kernel hands out blocks of
    B rounds, their running sums are carried from block to block, and memory
    stays O(B S N (d + p) + K S N) on top of the streams. The sums equal those
    metrics.metric_series takes from each seed's run_experiment trajectory,
    bit for bit.
    """
    if not streams:
        raise ValueError("need at least one seed")
    checkpoints = check_checkpoints(checkpoints, streams[0].horizon)
    index = np.array(checkpoints) - 1
    system = violated = 0.0
    system_at, violated_at = [], []
    for start, block_losses, committed, violations, _, _ in _lockstep(
        streams, topology, schedules, constraints, seeds
    ):
        system_sums = _running_sums(block_losses.system_values(committed), system)
        violated_sums = _running_sums(violations.sum(axis=(2, 3)), violated)
        rows = index[(start <= index) & (index < start + len(committed))] - start
        system_at.append(system_sums[rows])
        violated_at.append(violated_sums[rows])
        system, violated = system_sums[-1], violated_sums[-1]
    return CheckpointTotals(np.concatenate(system_at), np.concatenate(violated_at))
