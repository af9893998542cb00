"""Consensus primal-dual online updates with long-term constraints.

Every unit i keeps a decision x_i inside the ball of radius R and a
nonnegative dual vector lambda_i, one multiplier per constraint. A round t
proceeds in lockstep:

  1. commit x_i(t) and incur its loss (full information evaluates the loss
     gradient there; bandit feedback probes a single point x_i(t) + eps * u_i
     with u_i uniform on the unit sphere and forms the one-point gradient
     estimate from the observed value alone);
  2. descend on the violation-augmented objective,
     y_i = x_i - beta_t * (g_i + sum_s lambda_is * (clipped subgradient of c_s at x_i));
  3. mix with the neighbors' y-vectors through the round's weight matrix;
  4. project back onto the decision ball;
  5. reset each multiplier to the new violation over eta_t,
     lambda_i(t+1) = positive_parts(x_i(t+1)) / eta_t, which is the exact
     maximizer of the round's augmented Lagrangian over lambda >= 0.

Bandit variants commit inside the shrunk ball of radius (1 - pi) * R so that
every probe stays inside the full ball; eps_t <= pi * R is enforced when the
schedule is built, and both balls are checked at run time, once per block of
rounds before the kernel hands the block out, raising RuntimeError that names
the round and unit of a probe or a decision outside its ball.

One kernel, _lockstep, runs the S seeds of a scenario in lockstep on (S, N, d)
arrays and hands out blocks of B rounds; run_seeds keeps the running sums the
metrics need, in O(B S N (d + p) + K S N) memory beyond the streams, and
run_experiment records one seed's trajectory. One loop, _run_block, runs the
rounds of a block. It carries only the decisions and the dual pull from round
to round (steps 2 and 5 meet in ConstraintSet.dual_pull_rows).
Each step is a bare ufunc, c_einsum or matmul call that writes into arrays
allocated once per run (the pull and _scratch) or once per block, so a round
makes views of those arrays but no arrays or loss objects of its own. At a
round's size numpy's dispatch costs more than the arithmetic, so each step
takes its cheapest path: the block's eta_t and beta_t come spread over the
rows, so that the descent step and the dual pull's divide see operands of one
shape, the numbers of the formulas are float64 0-d arrays rather than Python
floats, and _project_rows finds its largest row norm in a Python list. Three
hooks are called by name every round, and allocate what they need:
consensus_mix, _project_rows and constraints.dual_pull_rows. Every step keeps
the operands of its formula in their order, so each seed gets the bits of the
same round on fresh arrays. netoco.reference states the same round per unit.

The four variants differ in two facts, strong convexity and bandit feedback,
and in which parameters they need; variant_spec holds all three per variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .network import TopologySchedule, consensus_mix
from .problems import (
    _BLOCK, _DOTS, ConstraintSet, RegressionRound, _blocks, _c_einsum, _loss_gradients, _loss_values, _row_dots,
)

__all__ = [
    "VARIANTS",
    "VariantSpec",
    "variant_spec",
    "HyperSchedule",
    "make_schedule",
    "RunTrajectory",
    "run_experiment",
    "CheckpointTotals",
    "check_checkpoints",
    "block_bytes",
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
    hyper = HyperSchedule(
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
    # Round 1 has the largest step sizes of every variant. A product that
    # overflows in a denominator leaves a step of 0.0, not inf.
    eta, beta = hyper._eta(1.0), hyper._beta(1.0)
    if not (0.0 < eta < math.inf and 0.0 < beta < math.inf):
        raise ValueError(f"step sizes overflow: eta_1 = {eta:.6g} and beta_1 = {beta:.6g} must be finite and positive")
    return hyper


def _overflow_factors(rows: np.ndarray, radius: float) -> np.ndarray:
    """min(radius / ||row||, 1) for rows whose squared norm overflows, from the rows scaled to a peak of 1."""
    peaks = np.abs(rows).max(axis=-1)
    unit = rows / peaks[..., None]
    return np.minimum(radius / peaks / np.sqrt(_row_dots(unit, unit)), 1.0)


def _project_rows(rows: np.ndarray, radius: float) -> np.ndarray:
    """Project every row onto the ball in place and return rows.

    rows is (..., N, d), at least two-dimensional: the in-place steps write
    each row's norm into the array of row dots, which a single (d,) vector
    reduces to a scalar. A single vector goes through reference.project_ball.
    When every row lies in the ball, rows are returned untouched, which are
    the formula's bits; any other rows, NaN and overflowing ones included,
    are scaled, an overflowing row from its entries scaled to a peak of 1.
    """
    # radius / max(norm, radius) is exactly 1.0 inside the ball, so when no
    # row is outside, rows already hold the projection's bits. sqrt rounds
    # correctly, so it is monotone: the largest root is the root of the largest.
    # The squares are read as a list, whose max and sum cost less than one
    # ufunc reduction at a round's size. max passes over a NaN that is not
    # first; the sum of the squares is NaN exactly when one of them is, so a
    # NaN row, like an infinite one, takes the scaling path.
    scale = _c_einsum(_DOTS, rows, rows)
    squares = scale.ravel().tolist()
    total = sum(squares)
    if total == total and math.sqrt(max(squares)) <= radius:
        return rows
    overflowed = np.isinf(scale) if math.inf in squares else None
    np.sqrt(scale, scale)
    np.divide(radius, np.maximum(scale, radius, out=scale), scale)
    if overflowed is not None:  # as in reference.project_ball
        scale[overflowed] = _overflow_factors(rows[overflowed], radius)
    return np.multiply(rows, scale[..., None], rows)


def _check_in_ball(rows: np.ndarray, radius: float, first_round: int = 1, kind: str = "row"):
    """Raise unless every row lies in the ball; the tolerance covers rounding only.

    rows is (N, d) for round first_round, or (B, ..., N, d) for the rounds
    first_round..first_round + B - 1. The error names the round and the unit
    of the first row outside the ball; kind says what the rows are. Rounding
    grows with the radius, so the tolerance is 1e-12 times the radius, and
    1e-12 for radii below 1.
    """
    squares = _row_dots(rows, rows)
    limit = radius + 1e-12 * max(radius, 1.0)
    bound = limit * limit
    if squares.max() <= bound:
        return
    where = np.unravel_index(np.flatnonzero(~(squares <= bound))[0], squares.shape)
    t = first_round + (where[0] if squares.ndim > 1 else 0)
    raise RuntimeError(
        f"containment broken at round {t}: the {kind} of unit {where[-1] + 1} has norm "
        f"{np.sqrt(squares[where]):.17g}, outside the ball of radius {radius:.17g}"
    )


def _sphere_rngs(seed: int, n_units: int) -> tuple[np.random.Generator, ...]:
    return tuple(
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_SPAWN_SPHERE, i)))
        for i in range(1, n_units + 1)
    )


def _scratch(shape) -> tuple[np.ndarray, ...]:
    """The per-run scratch of _run_block for decision rows of the given (..., N, d) shape.

    (residuals, their (..., N, 1) view, half residuals, squared norms, scaled
    observations, their (..., N, 1) view, the rho term): one entry per row,
    or per row and coordinate for the rho term.
    """
    residuals, half, squares, scaled = np.empty((4,) + shape[:-1])
    return residuals, residuals[..., None], half, squares, scaled, scaled[..., None], np.empty(shape)


def _run_block(
    committed, pull, features, targets, rho, betas, etas, weights, start, radius, constraints, probes, scratch
):
    """Rounds start + 1..start + B of (..., N, d) decision rows, in place, one round after another.

    committed is (B + 1, ..., N, d): row 0 holds the decisions of round
    start + 1, and round start + k writes the decisions it leaves, projected
    onto the ball of the given radius, into row k. pull holds the dual pull at
    row 0 and is left holding the pull at row B. features (B, ..., N, d) and
    targets (B, ..., N) are the block's losses, and betas and etas
    (B, ..., N, d) each round's beta_t and eta_t spread over its rows. Round t
    mixes with weights[(t - 1) % len(weights)]. probes is None under full
    information and, under bandit feedback, (d / eps, directions,
    eps * directions, observed, queries), the last two written round by round.
    scratch is _scratch(pull.shape). Nothing here checks containment or
    records violations: the callers do that for the block at once.

    Each step is a bare ufunc, c_einsum or matmul call writing into these
    arrays, with the operands of the update in their order, so the bits are
    those of the same formulas on fresh arrays. The descent step and the dual
    pull's divide take operands of one shape (the spread betas and etas), so
    neither pays for a broadcast, and rho, 2 rho and d / eps become float64
    0-d arrays once per block, so no call converts a Python float. Three hooks
    are looked up by name on every round: consensus_mix mixes, _project_rows
    projects, and constraints.dual_pull_rows resets the duals and returns
    their pull. The gradient and the descent step beta * (gradient + pull) are
    built in the next decisions' row, y = committed - that step in pull, and y
    is mixed back into the next decisions' row.
    """
    add, multiply, subtract = np.add, np.multiply, np.subtract
    residuals, column, half, squares, scaled, scaled_column, rho_term = scratch
    period = len(weights)
    rho, twice_rho = np.array(rho), np.array(2.0 * rho)
    if probes is not None:
        dimension_over_eps, directions, offsets, observed, queries = probes
        dimension_over_eps = np.array(dimension_over_eps)
    current = committed[0]
    rounds = zip(committed[1:], features, targets, betas, etas)
    for k, (nxt, round_features, round_targets, beta, eta) in enumerate(rounds):
        if probes is None:
            _loss_gradients(round_features, round_targets, twice_rho, current, nxt, residuals, column, rho_term)
        else:
            probe, seen = queries[k], observed[k]
            _loss_values(round_features, round_targets, rho, add(current, offsets[k], probe), seen, half, squares)
            multiply(dimension_over_eps, seen, scaled)
            multiply(scaled_column, directions[k], nxt)
        multiply(beta, add(nxt, pull, nxt), nxt)
        consensus_mix(weights[(start + k) % period], subtract(current, nxt, pull), nxt)
        _project_rows(nxt, radius)
        constraints.dual_pull_rows(nxt, eta, pull)
        current = nxt


def block_bytes(seeds: int, units: int, dimension: int, constraints: int, horizon: int) -> int:
    """Bytes of the arrays run_seeds holds for one block of B = min(T, _BLOCK) rounds.

    Per seed, unit and round of the block: _lockstep's features, committed
    decisions, spread etas and betas and bandit directions, offsets and
    probes, 7 d floats, with p constraint violations, targets and observed
    losses (the bandit arrays are counted for every variant); and the product
    and residuals that RegressionRound.system_values builds, 2 N floats.
    """
    block = min(horizon, _BLOCK)
    return 8 * seeds * units * block * (7 * dimension + constraints + 2 + 2 * units)


def _sphere_block(rngs, rounds: int, dimension: int) -> np.ndarray:
    """Directions for the next `rounds` rounds, indexed [round, seed, unit].

    rngs[s][i] is unit i + 1's stream for seed s. A block draw takes the same
    Gaussians as one reference.sample_unit_sphere call per round, and the row
    dot below rounds exactly like np.linalg.norm on one row, so the directions
    match the scalar sampler bit for bit. The scalar sampler redraws a zero
    vector; a block cannot, so it raises instead of diverging.
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


def _block_steps(schedules, start: int, stop: int, shape) -> tuple[np.ndarray, np.ndarray]:
    """(eta_t, beta_t) for t = start + 1..stop, each (B, S, N, d), spread over the rows of shape (S, N, d).

    Seed s's rows come from schedules[s]'s own formulas, evaluated elementwise at
    each t, so every entry has the bits of that schedule's eta(t) and beta(t).
    """
    t = np.arange(start + 1, stop + 1, dtype=float)[:, None, None]
    etas, betas = np.empty((2, len(t)) + shape)
    for s, hyper in enumerate(schedules):
        etas[:, s] = hyper._eta(t)
        betas[:, s] = hyper._beta(t)
    return etas, betas


def _lockstep(streams, topology: TopologySchedule, schedules, constraints: ConstraintSet, seeds):
    """Run every seed of a batch in lockstep on (S, N, d) arrays, one block of rounds per yield.

    Yields (start, block_losses, committed, violations, observed, queries) for
    the block of B <= _BLOCK rounds start + 1..start + B: all seeds' losses of
    the block as one RegressionRound over (B, S, N, d), the committed decisions
    (B, S, N, d), the positive parts at them (B, S, N, p), and for bandit
    variants the losses observed at the probes (B, S, N) and the probes
    (B, S, N, d) (None otherwise). Every block gets new arrays, so a caller
    may keep them. Each round carries only the decisions and the dual pull;
    containment is checked and the violations are computed once per block,
    before the block is yielded, so a broken row stops the run at most B - 1
    rounds late. Each seed's numbers are bit for bit those of a run on its own.

    schedules[s] gives seed s its eta_t and beta_t. The rest is read from
    schedules[0]: the feedback, p, T, R and b, which with T and R fixes pi,
    eps and the decision radius, so the schedules must agree on those and may
    differ in G, c, a and sigma.

    The rounds run in place, one _run_block call per block: the pull and the
    scratch live in arrays allocated once per run, and each round writes the
    next decisions, the probes and the observed losses straight into rows of
    the block's arrays. The decisions array has one row more than the block,
    for the decisions left for round start + B + 1, which the next block
    copies into its first row. Nothing here grows with T: the step sizes, too,
    are evaluated a block at a time.
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
    shared = [{"bandit": h.is_bandit, "p": h.p, "T": h.horizon, "R": h.radius, "b": h.b} for h in schedules]
    for k, values in enumerate(shared):
        if values != shared[0]:
            raise ValueError(
                "the schedules of one batch must agree on the feedback, p, T, R and b: "
                f"schedule {k} has {values}, schedule 0 has {shared[0]}"
            )
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

    weights, radius = topology.weights, hyper.decision_radius
    decisions = np.zeros((len(streams), n, d))
    # The duals start at zero, so round 1 feels no pull even where x = 0 violates a constraint.
    pull = np.zeros(decisions.shape)
    scratch = _scratch(decisions.shape)
    probes = observed = queries = None
    for block in _blocks(horizon):
        start, stop = block.start, block.stop
        features = np.stack([s.features[start:stop] for s in streams], axis=1)
        targets = np.stack([s.targets[start:stop] for s in streams], axis=1)
        committed = np.empty((stop - start + 1,) + decisions.shape)
        committed[0] = decisions
        # Each round's eta and beta spread over its rows: a broadcast operand costs more than the arithmetic.
        etas, betas = _block_steps(schedules, start, stop, decisions.shape)
        if bandit:
            directions = _sphere_block(rngs, stop - start, d)
            observed, queries = np.empty(targets.shape), np.empty(features.shape)
            probes = d / eps, directions, eps * directions, observed, queries
        _run_block(
            committed, pull, features, targets, rho, betas, etas, weights, start, radius, constraints, probes, scratch
        )
        # Containment of the block, before any of it is handed out: every
        # committed decision, the decisions left for round stop + 1, every probe.
        _check_in_ball(committed, radius, start + 1, "decision")
        if bandit:
            _check_in_ball(queries, hyper.radius, start + 1, "probe")
        decisions, committed = committed[-1], committed[:-1]
        violated = constraints.positive_parts_rows(committed.reshape(-1, d))
        violated = violated.reshape(committed.shape[:-1] + (constraints.count,))
        yield start, RegressionRound(features, targets, rho), committed, violated, observed, queries


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


def _checkpoint_totals(blocks, checkpoints) -> CheckpointTotals:
    """A run's running sums at the checkpoints, carried from block to block, so added round by round.

    blocks yields (start, block_losses, committed, violations) for rounds start + 1..start + B
    in order: the losses as one RegressionRound over (B, S, N, d), the committed decisions
    (B, S, N, d) and their positive parts (B, S, N, p).
    """
    index = np.array(checkpoints) - 1
    system = violated = 0.0
    system_at, violated_at = [], []
    for start, block_losses, committed, violations in blocks:
        system_sums, violated_sums = block_losses.system_values(committed), violations.sum(axis=(2, 3))
        system_sums[0] += system  # the carry, then a cumsum: the bits of one += per round
        violated_sums[0] += violated
        np.cumsum(system_sums, axis=0, out=system_sums)
        np.cumsum(violated_sums, axis=0, out=violated_sums)
        rows = index[(start <= index) & (index < start + len(committed))] - start
        system_at.append(system_sums[rows])
        violated_at.append(violated_sums[rows])
        system, violated = system_sums[-1], violated_sums[-1]
    return CheckpointTotals(np.concatenate(system_at), np.concatenate(violated_at))


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
    differ in what enters only the step sizes (G, c, a and sigma), see _lockstep.
    No trajectory is stored: _checkpoint_totals sums the kernel's blocks as
    they come, in O(B S N (d + p) + K S N) memory on top of the streams, as
    metrics.metric_series sums a stored trajectory, so the sums are bit for
    bit those of each seed's run_experiment trajectory.
    """
    if not streams:
        raise ValueError("need at least one seed")
    checkpoints = check_checkpoints(checkpoints, streams[0].horizon)
    return _checkpoint_totals((b[:4] for b in _lockstep(streams, topology, schedules, constraints, seeds)), checkpoints)
