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
the round, the unit and the seed of a probe or a decision outside its ball.

One kernel, _lockstep, runs the S seeds of a scenario in lockstep on (S, N, d)
arrays and hands out blocks of B rounds; run_seeds keeps the running sums the
metrics need, in O(B S N (d + p) + K S N) memory beyond the streams, and is the
one way to run a scenario, of one seed or many: metrics.checkpoint_series runs
and scores a batch through it. One loop, _run_block, runs the rounds of a
block. It carries only the decisions and the dual pull from round to round
(steps 2 and 5 meet in the dual pull). _lockstep allocates one set of
block arrays per run, refills them in place for each block and lends each block
as views of them; each round's views are built once per run too (_round_views).
A round makes only the formula's numpy calls, each a bare ufunc, c_einsum or
matmul that writes into those arrays: the loss step (the formulas of
reference.loss_gradients, or reference.loss_values under bandit feedback), the
descent step, the mix as np.matmul on the round's weight entries and, for a
BoxConstraintSet, its closed-form dual pull. At a round's size numpy's dispatch
costs more than the arithmetic, so each step takes its cheapest path: the
block's eta_t and beta_t come spread over the rows, so that the descent step
and the dual pull's divide see operands of one shape, the numbers of the
formulas are float64 0-d arrays rather than Python floats, and _project_rows
finds its largest row norm in a Python list. _project_rows is the one hook
called by name every round; a constraint set other than the box pulls through
its own dual_pull_rows. Every step keeps the operands of its formula in their
order, so each seed gets the bits of the same round on fresh arrays
(reference.consensus_mix for the mix). netoco.reference states the same round
per unit.

The four variants differ in two facts, strong convexity and bandit feedback,
and in which parameters they need; variant_spec holds all three per variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import cycle, islice, repeat
from typing import Optional

import numpy as np

from .network import TopologySchedule, _integer
from .problems import (
    _BLOCK, _DOTS, _ZERO, BoxConstraintSet, ConstraintSet, RegressionRound, _blocks, _c_einsum, _clip, _row_dots,
)

__all__ = [
    "VARIANTS",
    "VariantSpec",
    "variant_spec",
    "HyperSchedule",
    "make_schedule",
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


def _check_in_ball(rows: np.ndarray, radius: float, first_round: int = 1, kind: str = "row", seeds=None):
    """Raise unless every row lies in the ball; the tolerance covers rounding only.

    rows is (N, d) for round first_round, or (B, ..., N, d) for the rounds
    first_round..first_round + B - 1. The error names the round and the unit
    of the first row outside the ball; kind says what the rows are. With
    seeds, rows is (B, S, N, d) and the error names seeds[s] of that row as
    well, unless it is None. Rounding grows with the radius, so the tolerance
    is 1e-12 times the radius, and 1e-12 for radii below 1.
    """
    squares = _row_dots(rows, rows)
    limit = radius + 1e-12 * max(radius, 1.0)
    bound = limit * limit
    if squares.max() <= bound:
        return
    where = np.unravel_index(np.flatnonzero(~(squares <= bound))[0], squares.shape)
    t = first_round + (where[0] if squares.ndim > 1 else 0)
    seed = None if seeds is None else seeds[where[-2]]
    of_seed = "" if seed is None else f" of seed {seed}"
    raise RuntimeError(
        f"containment broken at round {t}: the {kind} of unit {where[-1] + 1}{of_seed} has norm "
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


def _round_views(committed, features, targets, betas, etas, probes=None) -> tuple[tuple, ...]:
    """Each round's views of a block's arrays, the rounds _run_block walks.

    committed is (B + 1, ..., N, d), and features, targets, betas and etas
    have B rows. Round k's entry is (committed[k], committed[k + 1],
    features[k], targets[k], betas[k], etas[k], probe), where probe is None
    under full information and, for probes = (directions, offsets, observed,
    queries) under bandit feedback, (directions[k], offsets[k], observed[k],
    queries[k]). The first b entries are the views of a block of b rounds.
    """
    per_round = repeat(None) if probes is None else zip(*probes)
    return tuple(zip(committed[:-1], committed[1:], features, targets, betas, etas, per_round))


# 0.5 of the loss value as a float64 0-d array, which takes the ufunc's fast path.
_HALF = np.array(0.5)


def _run_block(rounds, pull, start, weights, radius, rho, constraints, scratch, dimension_over_eps=None):
    """Rounds start + 1, start + 2, ... of (..., N, d) decision rows, in place, one after another.

    rounds is _round_views of the block's arrays, one entry per round: round
    start + k + 1 reads its decisions from committed[k] and writes the
    decisions it leaves, projected onto the ball of the given radius, into
    committed[k + 1], under bandit feedback also its probes and the losses
    observed there. It mixes with weights[(start + k) % len(weights)], the
    entries of a WeightMatrix. pull holds the dual pull at committed[0] and is
    left holding the pull at the last row. rho is the stream's;
    dimension_over_eps is d / eps under bandit feedback; scratch is
    _scratch(pull.shape). Nothing here checks containment or records
    violations: the callers do that for the block at once.

    A round makes only the formula's numpy calls, each a bare ufunc, c_einsum
    or matmul writing into these arrays with the operands of the update in
    their order, so the bits are those of reference.loss_gradients or
    loss_values, reference.consensus_mix and dual_pull_rows on fresh arrays. The
    gradient and the descent step beta * (gradient + pull) are built in the
    next decisions' row, y = committed - that step in pull, and y is mixed
    back into that row. rho, 2 rho and d / eps become float64 0-d arrays, and
    whether rho is zero is decided, once per block. _project_rows is looked
    up by name every round. A set whose dual_pull_rows is the box's, decided
    once per block too, pulls through the steps of
    BoxConstraintSet.dual_pull_rows written out; any other set through its
    own dual_pull_rows.
    """
    add, divide, multiply, subtract, matmul, einsum = np.add, np.divide, np.multiply, np.subtract, np.matmul, _c_einsum
    residuals, column, half, squares, scaled, scaled_column, rho_term = scratch
    with_rho = bool(rho)
    rho, twice_rho = np.array(rho), np.array(2.0 * rho)
    if dimension_over_eps is not None:
        dimension_over_eps = np.array(dimension_over_eps)
    box = type(constraints).dual_pull_rows is BoxConstraintSet.dual_pull_rows
    if box:
        lower, upper = constraints._clip_bounds
    mixing = islice(cycle(weights), start % len(weights), None)
    for (current, nxt, features, targets, beta, eta, probe), entries in zip(rounds, mixing):
        if probe is None:  # (a.x - b) a + 2 rho x at the decisions
            einsum(_DOTS, features, current, out=residuals)
            subtract(residuals, targets, residuals)
            multiply(column, features, nxt)
            if with_rho:
                add(nxt, multiply(twice_rho, current, rho_term), nxt)
        else:  # (d / eps) u times 0.5 (a.q - b)^2 + rho ||q||^2 at the probe q = x + eps u
            direction, offset, seen, query = probe
            add(current, offset, query)
            einsum(_DOTS, features, query, out=seen)
            subtract(seen, targets, seen)
            multiply(_HALF, seen, half)
            multiply(half, seen, seen)
            if with_rho:
                einsum(_DOTS, query, query, out=squares)
                add(seen, multiply(rho, squares, squares), seen)
            multiply(dimension_over_eps, seen, scaled)
            multiply(scaled_column, direction, nxt)
        multiply(beta, add(nxt, pull, nxt), nxt)
        matmul(entries, subtract(current, nxt, pull), nxt)
        _project_rows(nxt, radius)
        if box:  # (x - clip(x, lower, upper)) / eta + 0.0
            add(divide(subtract(nxt, _clip(nxt, lower, upper, pull), pull), eta, pull), _ZERO, pull)
        else:
            constraints.dual_pull_rows(nxt, eta, pull)


def block_bytes(seeds: int, units: int, dimension: int, constraints: int, horizon: int) -> int:
    """Bytes of the arrays run_seeds holds for one block of B = min(T, _BLOCK) rounds.

    Per seed, unit and round of the block: _lockstep's one set of block
    arrays, the features, decisions, spread etas and betas and bandit
    directions, offsets and probes, 7 d floats, with the targets and observed
    losses (the bandit arrays are counted for every variant); the p constraint
    violations at the lent decisions; and the product and residuals that
    RegressionRound.system_values builds, 2 N floats.
    """
    block = min(horizon, _BLOCK)
    return 8 * seeds * units * block * (7 * dimension + constraints + 2 + 2 * units)


def _sphere_block(rngs, draws: np.ndarray):
    """Fill draws, (B, S, N, d), with the directions of the next B rounds, indexed [round, seed, unit].

    rngs[s][i] is unit i + 1's stream for seed s. A block draw takes the same
    Gaussians as one reference.sample_unit_sphere call per round, and the row
    dot below rounds exactly like np.linalg.norm on one row, so the directions
    match the scalar sampler bit for bit. The scalar sampler redraws a zero
    vector; a block cannot, so it raises instead of diverging.
    """
    for s, unit_rngs in enumerate(rngs):
        for i, rng in enumerate(unit_rngs):
            draws[:, s, i] = rng.standard_normal((len(draws), draws.shape[-1]))
    norms = np.sqrt(draws[..., None, :] @ draws[..., :, None])[..., 0]
    if not norms.all():
        raise RuntimeError("a sphere direction drew the zero vector; it has no direction")
    np.divide(draws, norms, draws)


def _block_steps(schedules, start: int, etas: np.ndarray, betas: np.ndarray):
    """Fill etas and betas, each (B, S, N, d), with eta_t and beta_t for t = start + 1..start + B.

    Seed s's rows come from schedules[s]'s own formulas, evaluated elementwise at
    each t and spread over its (N, d) rows, so every entry has the bits of that
    schedule's eta(t) and beta(t).
    """
    t = np.arange(start + 1, start + len(etas) + 1, dtype=float)[:, None, None]
    for s, hyper in enumerate(schedules):
        etas[:, s] = hyper._eta(t)
        betas[:, s] = hyper._beta(t)


def _lockstep(streams, topology: TopologySchedule, schedules, constraints: ConstraintSet, seeds):
    """Run every seed of a batch in lockstep on (S, N, d) arrays, one block of rounds per yield.

    Yields (start, block_losses, committed, violations, observed, queries) for
    the block of B <= _BLOCK rounds start + 1..start + B: all seeds' losses of
    the block as one RegressionRound over (B, S, N, d), the committed decisions
    (B, S, N, d), the positive parts at them (B, S, N, p), and for bandit
    variants the losses observed at the probes (B, S, N) and the probes
    (B, S, N, d) (None otherwise). All but the violations are views of the
    kernel's own arrays, lent until the next block is asked for, which
    refills them: a caller copies what it keeps. Each round carries only the
    decisions and the dual pull; containment is checked and the violations
    are computed once per block, before the block is yielded, so a broken row
    stops the run at most B - 1 rounds late, and the error names the seed of
    the row. Each seed's numbers are bit for bit those of a run on its own.

    schedules[s] gives seed s its eta_t and beta_t. The rest is read from
    schedules[0]: the feedback, p, T, R and b, which with T and R fixes pi,
    eps and the decision radius, so the schedules must agree on those. They
    may differ in G, a and sigma, and in c only under full information: under
    bandit feedback c fixes b = c / 3, which they share.

    The block's arrays are allocated once per run and refilled in place:
    the decisions, with one row more than the block for the decisions left
    for the next block, moved into its first row after the yield; the
    features, targets and spread eta_t and beta_t; and under bandit feedback
    the directions, their eps multiples, the observed losses and the probes.
    The rounds' views of them (_round_views) are built once per run too; a
    shorter last block takes the first of them. The rounds run in place, one
    _run_block call per block, so nothing here grows with T.
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
    dimension_over_eps = None
    if bandit:
        if any(seed is None for seed in seeds):
            raise ValueError("bandit runs need a seed")
        rngs = [_sphere_rngs(seed, n) for seed in seeds]
        eps = hyper.eps(1)
        dimension_over_eps = d / eps

    weights = tuple(w.entries for w in topology.weights)
    radius = hyper.decision_radius
    shape = (len(streams), n, d)
    length = min(horizon, _BLOCK)
    # Zero decisions for round 1. The duals start at zero, so round 1 feels no
    # pull even where x = 0 violates a constraint.
    committed = np.zeros((length + 1,) + shape)
    pull = np.zeros(shape)
    features, etas, betas = np.empty((3, length) + shape)
    targets = np.empty((length,) + shape[:-1])
    probes = None
    if bandit:
        directions, offsets, queries = np.empty((3, length) + shape)
        observed = np.empty(targets.shape)
        probes = directions, offsets, observed, queries
    rounds = _round_views(committed, features, targets, betas, etas, probes)
    scratch = _scratch(shape)
    for block in _blocks(horizon):
        start, b = block.start, block.stop - block.start
        for s, stream in enumerate(streams):
            features[:b, s] = stream.features[block]
            targets[:b, s] = stream.targets[block]
        # Each round's eta and beta spread over its rows: a broadcast operand costs more than the arithmetic.
        _block_steps(schedules, start, etas[:b], betas[:b])
        if bandit:
            _sphere_block(rngs, directions[:b])
            np.multiply(eps, directions[:b], offsets[:b])
        _run_block(rounds[:b], pull, start, weights, radius, rho, constraints, scratch, dimension_over_eps)
        # Containment of the block, before any of it is handed out: every
        # committed decision, the decisions left for round start + b + 1, every probe.
        _check_in_ball(committed[: b + 1], radius, start + 1, "decision", seeds)
        seen = probed = None
        if bandit:
            _check_in_ball(queries[:b], hyper.radius, start + 1, "probe", seeds)
            seen, probed = observed[:b], queries[:b]
        decided = committed[:b]
        violated = constraints.positive_parts_rows(decided.reshape(-1, d))
        violated = violated.reshape(decided.shape[:-1] + (constraints.count,))
        yield start, RegressionRound(features[:b], targets[:b], rho), decided, violated, seen, probed
        committed[0] = committed[b]  # the carry, once the lent block is done with


def check_checkpoints(checkpoints, horizon: int) -> tuple[int, ...]:
    """The checkpoints as ints; ValueError unless integers, nonempty, strictly increasing, in 1..horizon."""
    checkpoints = tuple(_integer(k, "checkpoint") for k in checkpoints)
    if not checkpoints:
        raise ValueError("at least one checkpoint required")
    if list(checkpoints) != sorted(set(checkpoints)):
        raise ValueError("checkpoints must be strictly increasing")
    if not 1 <= checkpoints[0] <= checkpoints[-1] <= horizon:
        raise ValueError(f"checkpoints must lie in 1..{horizon}, the prefix lengths of the run")
    return checkpoints


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
    differ in what enters only the step sizes (G, a and sigma, and c under full
    information only, as under bandit feedback c fixes the shared b), see _lockstep.
    No trajectory is stored: _checkpoint_totals sums the kernel's blocks as
    they come, in O(B S N (d + p) + K S N) memory on top of the streams, and
    each seed's sums are bit for bit those of run_seeds on that seed alone.
    metrics.checkpoint_series, which takes these arguments, runs the batch here
    and scores the sums; netoco.reference records one seed's run round by
    round, which the tests compare the kernel with.
    """
    if not streams:
        raise ValueError("need at least one seed")
    checkpoints = check_checkpoints(checkpoints, streams[0].horizon)
    return _checkpoint_totals((b[:4] for b in _lockstep(streams, topology, schedules, constraints, seeds)), checkpoints)
