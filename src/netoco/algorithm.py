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
every probe stays inside the full ball; eps <= pi * R is enforced when the
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
descent step, the mix as np.matmul on the round's weight entries and the
closed-form dual pull of the box, the one constraint set the kernel takes
(its + 0.0, which turns an underflowed -0.0 into +0.0, only in a block whose
largest eta_t lets a pull round to -0.0: _pull_can_be_negative_zero). One
bound, two limits: a round steps by at most beta_t g, g the bound on a loss
step over the ball that _lockstep takes from the block's features and
targets (_step_bounds), and mixing grows no row's norm by more than the
weights' largest absolute row sum, so _run_block carries reach, an upper
bound on every decision row's norm. With margins for rounding
(_reach_limits), a round whose reach stays under min(R, m), m = min(-lower,
upper), skips _project_rows, which would leave its rows as they are, and a
round whose reach stays under m once checked skips the pull, which is
exactly +0.0 strictly inside the box; a box with m <= 0 never skips. Nothing
is undone or rerun: the skips are decided from Python floats, without
reading the round's rows, and keep the bits. At a round's size
numpy's dispatch costs more than the arithmetic, so each step takes its
cheapest path: the block's eta_t and beta_t come spread over the rows, so
that the descent step and the dual pull's divide see operands of one shape,
the numbers of the formulas are float64 0-d arrays rather than Python floats,
and _project_rows finds its largest row norm in a Python list. _project_rows,
called by name in each round that checks, is the one hook. Every step keeps
the operands of its formula in their order, so each seed gets the bits of the
same round on fresh arrays, reference.round_step, then the generic pull of
the box stated constraint by constraint (reference.box_constraints): two
statements of the round, sharing only _project_rows, which the tests hold to
the same bits, and a literal per-unit loop over netoco.reference's one-vector
functions agrees with both within 1e-12.

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
    _BLOCK, _DOTS, BoxConstraintSet, _blocks, _c_einsum, _check_box, _clip, _row_dots, system_values,
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
    beta_t = 1/(sigma t). Bandit variants add the probe radius eps = T^-b, the
    same in every round, and the ball shrinkage pi = 1/(R T^b), with b = c/3
    for the convex case and b = 1/3 for the strongly convex one.
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
        return float(self._eta(self._check_round(t)))

    def beta(self, t: int) -> float:
        return float(self._beta(self._check_round(t)))

    def _eta(self, t):
        if self.is_strongly_convex:
            return 2.0 * self.p * self.G * self.G / (self.sigma * t)
        return float(self.horizon) ** (-self.c)

    def _beta(self, t):
        if self.is_strongly_convex:
            return 1.0 / (self.sigma * t)
        return 1.0 / (self.a * self.p * self.G * self.G * float(self.horizon) ** self.c)

    @property
    def eps(self) -> Optional[float]:
        """The probe radius T^-b under bandit feedback; None under full information, like b."""
        return None if self.b is None else float(self.horizon) ** (-self.b)

    def _check_round(self, t) -> int:
        """t as an int; ValueError unless it is an integer in 1..horizon."""
        t = _integer(t, "round")
        if not 1 <= t <= self.horizon:
            raise ValueError(f"round {t} outside 1..{self.horizon}")
        return t


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
    p, horizon = _integer(p, "p"), _integer(horizon, "horizon")
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
    hyper = HyperSchedule(
        variant=variant,
        p=p,
        G=float(G),
        radius=float(radius),
        horizon=horizon,
        a=float(a),
        c=None if strongly else float(c),
        sigma=float(sigma) if strongly else None,
        b=b,
        pi=pi,
    )
    # Probe containment: eps <= pi * radius, with equality at these formulas.
    if spec.bandit and hyper.eps > pi * hyper.radius * (1.0 + 1e-12):
        raise ValueError("probe radius exceeds the shrinkage margin")
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


def _project_rows(rows: np.ndarray, radius: float, squares: Optional[np.ndarray] = None) -> float:
    """Project every row onto the ball in place; return the largest squared row norm, or inf if rows were scaled.

    rows is (..., N, d), at least two-dimensional: the in-place steps write
    each row's norm into the array of row dots, which a single (d,) vector
    reduces to a scalar. A single vector goes through reference.project_ball.
    squares, a (..., N) array whose contents are not read, takes the row dots
    if given, so a caller with scratch of that shape (_run_block) allocates
    nothing per call; without it they go into a fresh array
    (reference.round_step). When every row lies in the ball, rows are left
    untouched, which are the formula's bits, and the largest row dot comes
    back as a Python float, from which _run_block bounds the rows' norms
    (_reach_limits). Any other rows, NaN and overflowing ones included, are
    scaled, an overflowing row from its entries scaled to a peak of 1, and
    math.inf comes back.
    """
    # radius / max(norm, radius) is exactly 1.0 inside the ball, so when no
    # row is outside, rows already hold the projection's bits. sqrt rounds
    # correctly, so it is monotone: the largest root is the root of the largest.
    # The squares are read as a list, whose max and sum cost less than one
    # ufunc reduction at a round's size. max passes over a NaN that is not
    # first; the sum of the squares is NaN exactly when one of them is, so a
    # NaN row, like an infinite one, takes the scaling path.
    scale = _c_einsum(_DOTS, rows, rows) if squares is None else _c_einsum(_DOTS, rows, rows, out=squares)
    listed = scale.ravel().tolist()
    total, largest = sum(listed), max(listed)
    if total == total and math.sqrt(largest) <= radius:
        return largest
    overflowed = np.isinf(scale) if math.inf in listed else None
    np.sqrt(scale, scale)
    np.divide(radius, np.maximum(scale, radius, out=scale), scale)
    if overflowed is not None:  # as in reference.project_ball
        scale[overflowed] = _overflow_factors(rows[overflowed], radius)
    np.multiply(rows, scale[..., None], rows)
    return math.inf


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
    observations, their (..., N, 1) view, the rho term, the descended rows
    y): one entry per row, or per row and coordinate for the last two.
    """
    residuals, half, squares, scaled = np.empty((4,) + shape[:-1])
    rho_term, descended = np.empty((2,) + shape)
    return residuals, residuals[..., None], half, squares, scaled, scaled[..., None], rho_term, descended


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


# 0.5 of the loss value and the dual pull's +0.0 as float64 0-d arrays: a ufunc
# takes those on its fast path, and converts a Python float on every call.
_HALF, _ZERO = np.array(0.5), np.array(0.0)


def _pull_can_be_negative_zero(box: BoxConstraintSet, eta_max: float) -> bool:
    """Whether the box's pull (x - clip(x, lower, upper)) / eta can round to -0.0 for some x and 0 < eta <= eta_max.

    A row inside the box gives x - x = +0.0, as numpy 2.4.6's clip returns x
    itself where x equals a face; a zero face keeps the answer True, since an
    x = -0.0 there would give -0.0 under a clip that returns the face, and
    older clips were not checked. A row beyond a face b lies at least gap from
    it, the spacing of the floats beside b at its narrowest: ulp(|b|) / 2
    below a power of two, the smallest subnormal below the normal range.
    Subtraction and division round monotonically, so every quotient of such a
    row is at least fl(gap / eta_max) in size, and is no zero unless that is.
    """
    faces = (box.lower, box.upper)
    if 0.0 in faces:
        return True
    gap = min(max(math.ulp(abs(face)) / 2.0, math.ulp(0.0)) for face in faces)
    return gap / float(eta_max) == 0.0


# The relative margin of _run_block's bound on the decisions' norms (reach), and the
# least value a check resets it to. A block whose beta_t max(1, d / eps) passes
# _STEP_CEILING gets no step bounds: see _reach_limits.
_REACH_MARGIN = 1e-9
_REACH_FLOOR = 2.0**-100
_STEP_CEILING = 2.0**600


def _step_bounds(features, targets, betas, radius, rho, dimension_over_eps=None) -> list:
    """s_t for each round of a block: the largest beta_t g over its seeds and units, times 1 + 1e-9.

    features (B, ..., N, d), targets (B, ..., N) and betas, spread over the
    rows as _block_steps spreads them, are the block's. g bounds the norm of
    a unit's loss step anywhere in the ball of the given radius R, which
    holds every decision and probe: (||a|| R + |b|) ||a|| + 2 rho R under
    full information, where |a.x - b| <= ||a|| R + |b|, and (d / eps)
    (1/2 (||a|| R + |b|)^2 + rho R^2) under bandit feedback, whose direction
    has norm 1. An inf or NaN bound just makes its round check; so does a
    block whose beta_t max(1, d / eps) passes 2^600, where _reach_limits'
    argument about underflow no longer holds.
    """
    if not betas.max() * max(1.0, dimension_over_eps or 1.0) <= _STEP_CEILING:
        return [math.inf] * len(betas)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(_row_dots(features, features))
        residual = norms * radius + np.abs(targets)
        if dimension_over_eps is None:
            gradient = residual * norms + 2.0 * rho * radius
        else:
            gradient = dimension_over_eps * (0.5 * residual * residual + rho * radius * radius)
        gradient *= betas[..., 0]
        # Rounds as columns: a reduction down the rows costs a third of one along the short rows.
        by_round = np.ascontiguousarray(gradient.reshape(len(gradient), -1).T)
        return (by_round.max(axis=0) * (1.0 + _REACH_MARGIN)).tolist()


def _mix_growth(weights) -> float:
    """w (1 + 1e-9), w the largest absolute row sum of the weights and at least 1 (1 for max-degree weights)."""
    return max(1.0, *(float(np.abs(w).sum(axis=-1).max()) for w in weights)) * (1.0 + _REACH_MARGIN)


def _reach_limits(box: BoxConstraintSet, radius: float, units: int) -> tuple[float, float]:
    """The two limits on _run_block's bound reach: at or below the first a round skips its projection, at or
    below the second its pull.

    They are min(radius, m) (1 - 1e-9) and m (1 - 1e-9), m = min(-lower,
    upper) the radius of the box's inscribed ball about the origin; both are
    -1.0, so that no round skips either, when m <= 0 or the margins below do
    not hold.

    reach bounds the norm of every decision row the last round left. A round
    after a round without a pull descends from a pull of +0.0, so its rows
    before the mix are y_j = x_j - step_j, ||step_j|| <= s_t (_step_bounds),
    ||y_j|| <= reach + s_t, and a mixed row is at most w (_mix_growth) times
    the largest of those: reach <- (reach + s_t) w (1 + 1e-9). In floating
    point, with u = 2^-53, a step's norm exceeds its bound by fewer than
    5 (d + 16) roundings (the row dots of d terms in the gradient and in the
    bound's norms, a few products and sums each), and the probes lie at most
    1e-12 R beyond R (make_schedule); s_t's margin of 1e-9 covers both. The
    mix adds N terms, w is a sum of N and the update rounds three times,
    fewer than 2 (N + 16) roundings, which growth's margin of 1e-9 covers.
    Both hold while (N + d + 16) u < 1e-10. A check that leaves the rows as
    they are resets reach to sqrt(largest + 2^-200) (1 + 1e-9), at least
    max(sqrt(largest), 2^-100) (1 + 1e-9): the computed norm is below the
    true one by at most (d + 4) u / 2, or, where squares underflow, by less
    than sqrt(d) 2^-537, under the floor. A check that scales rows resets
    reach to max(radius, 2^-100) (1 + 1e-9): a scaled row exceeds the radius
    by fewer than d / 2 + 5 roundings, and where its squares underflow by
    less than sqrt(d) 2^-537 more, under the floor. Underflow elsewhere errs
    by at most 2^-1074 an operation: skipping needs s_t <= R, and
    _step_bounds gives no bound where beta_t max(1, d / eps) > 2^600, so the
    factors of a round lift such an error to below 2^-200, far inside the
    floor's margin. So reach bounds every true row norm. reach at or below
    the first limit puts every row strictly inside the ball, where
    _project_rows would leave the rows untouched, and at or below the second
    strictly inside the ball of radius m, inside both faces of the box, where
    the pull is exactly +0.0. The first limit is at most the second, so a
    round that skips its projection skips its pull too.
    """
    inscribed = min(-box.lower, box.upper)
    if not (inscribed > 0.0 and (units + box.dimension + 16) * 2.0**-53 < 0.1 * _REACH_MARGIN):
        return -1.0, -1.0
    return min(radius, inscribed) * (1.0 - _REACH_MARGIN), inscribed * (1.0 - _REACH_MARGIN)


def _run_block(
    rounds, pull, start, weights, radius, rho, box, scratch, add_zero, steps, growth, dimension_over_eps=None
):
    """Rounds start + 1, start + 2, ... of (..., N, d) decision rows, in place, one after another.

    rounds is _round_views of the block's arrays, one entry per round: round
    start + k + 1 reads its decisions from committed[k] and writes the
    decisions it leaves, projected onto the ball of the given radius, into
    committed[k + 1], under bandit feedback also its probes and the losses
    observed there. It mixes with weights[(start + k) % len(weights)], an
    (N, N) array, such as one of TopologySchedule.weights. pull holds the
    dual pull at committed[0] and is left holding the pull at the last row.
    rho is the stream's; dimension_over_eps is d / eps under bandit feedback;
    scratch is _scratch(pull.shape). Nothing here checks containment or
    records violations: the callers do that for the block at once.
    _project_rows writes its row dots into the squared norms of the scratch,
    which the bandit rho term has used up by then.

    A round makes only the formula's numpy calls, each a bare ufunc, c_einsum
    or matmul writing into these arrays with the operands of the update in
    their order, so the bits are those of reference.round_step, then the
    generic dual pull, on fresh arrays: the statement of the round this loop
    is tested against, which shares only _project_rows with it. The
    gradient and the descent step beta * (gradient + pull) are built in the
    next decisions' row, y = committed - that step in the scratch, and y is
    mixed back into that row. rho, 2 rho and d / eps become float64 0-d
    arrays, and whether rho is zero is decided, once per block.
    _project_rows is looked up by name in every round that calls it.

    The dual pull is the closed form of the BoxConstraintSet box,
    (x - clip(x, lower, upper)) / eta, the one copy of it. At most one side of a coordinate is violated, and
    x - bound is exactly -(bound - x), so it is the generic pull
    sum_s (positive_parts(x)_s / eta) * clipped_subgradient(x, s) bit for bit,
    save one sign: where a lower-side pull underflows, the quotient is -0.0
    and the generic pull +0.0. Adding +0.0 turns -0.0 into +0.0 and changes
    no other value, and add_zero says whether to add it: the caller passes
    _pull_can_be_negative_zero(box, eta_max) for the block's largest eta, so
    a round pays for the add only in a block where a pull can be -0.0. The
    clip is the bare ufunc that np.clip calls.

    One bound decides both of a round's skips. reach, an upper bound on the
    norm of every row the last round left, starts at inf and, in a round
    after a round without a pull, becomes (reach + s_t) growth, from steps,
    one s_t per round (_step_bounds), and growth (_mix_growth). _reach_limits
    gives two limits. A round whose reach is above the first projects and
    resets reach: from the largest squared norm _project_rows returns, or to
    max(radius, 2^-100) (1 + 1e-9) if it scaled rows. A round whose reach is
    then at most the second has every row strictly inside the box, where
    each x - clip(x) is x - x = +0.0 and the formula's pull is +0.0: it
    skips the pull, which is zeroed once when a run of such rounds begins
    and left at +0.0 while it lasts. The next round still adds it to the
    gradient, which turns a -0.0 gradient entry into the formula's +0.0. So
    a round at or below the first limit makes no call after the mix at all.
    Any other round pulls and sets reach to inf, so the round after a pull
    projects. The skips decide from Python floats alone and change no bit;
    with every s_t infinite, every round projects. A NaN row makes reach
    wrong, but the caller's containment check then fails the block.
    """
    add, divide, multiply, subtract, matmul, einsum = np.add, np.divide, np.multiply, np.subtract, np.matmul, _c_einsum
    residuals, column, half, squares, scaled, scaled_column, rho_term, descended = scratch
    with_rho = bool(rho)
    rho, twice_rho = np.array(rho), np.array(2.0 * rho)
    if dimension_over_eps is not None:
        dimension_over_eps = np.array(dimension_over_eps)
    lower, upper = box._clip_bounds
    check_limit, pull_limit = _reach_limits(box, radius, pull.shape[-2])
    inf, sqrt, widen, floor = math.inf, math.sqrt, 1.0 + _REACH_MARGIN, _REACH_FLOOR * _REACH_FLOOR
    on_ball = max(radius, _REACH_FLOOR) * widen  # reach after a check that scaled rows
    reach = inf
    pulling = True  # whether pull may hold anything but +0.0
    mixing = islice(cycle(weights), start % len(weights), None)
    for (current, nxt, features, targets, beta, eta, probe), entries, step in zip(rounds, mixing, steps):
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
        matmul(entries, subtract(current, nxt, descended), nxt)
        reach = (reach + step) * growth
        if not reach <= check_limit:  # the rows may leave the ball: project them and bound them anew
            largest = _project_rows(nxt, radius, squares)
            reach = sqrt(largest + floor) * widen if largest < inf else on_ball
        if reach <= pull_limit:  # strictly inside the box: the pull stays +0.0
            if pulling:
                pull.fill(0.0)
                pulling = False
            continue
        reach = inf
        pulling = True
        # (x - clip(x, lower, upper)) / eta, + 0.0 where a quotient can round to -0.0
        divide(subtract(nxt, _clip(nxt, lower, upper, pull), pull), eta, pull)
        if add_zero:
            add(pull, _ZERO, pull)


def block_bytes(seeds: int, units: int, dimension: int, constraints: int, horizon: int) -> int:
    """Bytes of the arrays run_seeds holds for one block of B = min(T, _BLOCK) rounds.

    Per seed, unit and round of the block: _lockstep's one set of block
    arrays, the features, decisions, spread etas and betas and bandit
    directions, offsets and probes, 7 d floats, with the targets and observed
    losses (the bandit arrays are counted for every variant); the p constraint
    violations at the lent decisions; and the product of the decisions and the
    features that problems.system_values holds, its residuals formed in place,
    N floats.
    """
    block = min(horizon, _BLOCK)
    return 8 * seeds * units * block * (7 * dimension + constraints + 2 + units)


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


def _lockstep(streams, topology: TopologySchedule, schedules, constraints: BoxConstraintSet, seeds):
    """Run every seed of a batch in lockstep on (S, N, d) arrays, one block of rounds per yield.

    Yields (start, features, targets, committed, violations, observed, queries)
    for the block of B <= _BLOCK rounds start + 1..start + B: all seeds'
    features (B, S, N, d) and targets (B, S, N) of the block, the committed
    decisions (B, S, N, d), the positive parts at them (B, S, N, p), and for
    bandit variants the losses observed at the probes (B, S, N) and the probes
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
    _run_block call per block, told whether the block's largest eta_t needs
    the pull's + 0.0 and given the bounds on the block's steps (_step_bounds,
    from the features and targets just copied in, never from a schedule's
    G) and the weights' growth (_mix_growth, once per run), so nothing here
    grows with T. ValueError,
    naming its type, for constraints that are not a BoxConstraintSet.
    """
    _check_box(constraints, "the round kernel")
    if not streams or len(streams) != len(schedules) or len(streams) != len(seeds):
        raise ValueError("need one stream, schedule and seed per run")
    first = streams[0]
    n, d, horizon, rho = first.n_units, first.dimension, first.horizon, first.rho
    if any((s.n_units, s.dimension, s.horizon, s.rho) != (n, d, horizon, rho) for s in streams):
        raise ValueError("the streams of one batch must agree on N, d, T and rho")
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
        eps = hyper.eps
        dimension_over_eps = d / eps

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
    growth = _mix_growth(topology.weights)
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
        add_zero = _pull_can_be_negative_zero(constraints, etas[:b].max())
        steps = _step_bounds(features[:b], targets[:b], betas[:b], hyper.radius, rho, dimension_over_eps)
        _run_block(
            rounds[:b], pull, start, topology.weights, radius, rho, constraints, scratch, add_zero, steps, growth,
            dimension_over_eps,
        )
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
        yield start, features[:b], targets[:b], decided, violated, seen, probed
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


def _checkpoint_totals(blocks, checkpoints, rho: float) -> CheckpointTotals:
    """A run's running sums at the checkpoints, carried from block to block, so added round by round.

    blocks yields (start, features, targets, committed, violations) for rounds start + 1..start + B
    in order: the losses' features (B, S, N, d) and targets (B, S, N), which share rho, the
    committed decisions (B, S, N, d) and their positive parts (B, S, N, p).
    """
    index = np.array(checkpoints) - 1
    system = violated = 0.0
    system_at, violated_at = [], []
    for start, features, targets, committed, violations in blocks:
        system_sums, violated_sums = system_values(features, targets, rho, committed), violations.sum(axis=(2, 3))
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
    constraints: BoxConstraintSet,
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
    blocks = (b[:5] for b in _lockstep(streams, topology, schedules, constraints, seeds))
    return _checkpoint_totals(blocks, checkpoints, streams[0].rho)
