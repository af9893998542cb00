"""Loss oracles, constraint sets, and data streams for networked online regression.

The loss family is regularized scalar regression on the ball of radius R:

    value(x)    = 0.5 * (a.x - b)^2 + rho * ||x||^2
    gradient(x) = (a.x - b) * a + 2 * rho * x

with analytic sups over ||x|| <= R:

    gradient_bound(R) = (||a|| R + |b|) ||a|| + 2 rho R
    value_bound(R)    = 0.5 * (||a|| R + |b|)^2 + rho R^2

and strong convexity modulus 2 * rho. Streams assign one example to every
(unit, round) slot and expose the same bounds as maxima over the realized
data, since Gaussian targets admit no a-priori bound.

Long-term constraints are inequality functions c_s(x) <= 0 whose violated
part enters the updates through the clipped subgradient: the gradient of c_s
where c_s(x) > 0 and the zero vector where c_s(x) <= 0 (zero at the boundary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "RegressionExample",
    "LossOracle",
    "regression_loss",
    "ConstraintSet",
    "BoxConstraintSet",
    "clipped_subgradient",
    "RegressionRound",
    "RegressionStream",
    "SufficientStats",
    "synthetic_stream",
    "dataset_stream",
    "ParseError",
    "parse_libsvm",
    "serialize_libsvm",
]

# SeedSequence spawn-key purposes; the decision-loop sphere sampler uses 3.
_SPAWN_DATA = 1
_SPAWN_SHUFFLE = 2


@dataclass(frozen=True)
class RegressionExample:
    """One (features, target) pair; entries must be finite."""

    features: np.ndarray
    target: float

    def __post_init__(self):
        features = np.asarray(self.features, dtype=float)
        if features.ndim != 1:
            raise ValueError("features must be a 1-D vector")
        if not np.all(np.isfinite(features)):
            raise ValueError("non-finite feature")
        if not np.isfinite(self.target):
            raise ValueError("non-finite target")
        features = features.copy()
        features.flags.writeable = False
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "target", float(self.target))

    @property
    def dimension(self) -> int:
        return self.features.shape[0]


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
    if rho < 0.0:
        raise ValueError("rho must be >= 0")
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


class ConstraintSet:
    """Inequality constraints c_s(x) <= 0, s = 1..p, with a shared gradient bound.

    The generic implementation evaluates per-constraint callables; vector paths
    used by the decision loop (positive parts, dual-weighted clipped
    subgradients and the dual pull over a batch of rows) fall back to loops and
    are overridden where closed forms exist. An override of dual_pull_rows must
    give the bits of the generic default, which the kernel and the one-round
    functions rely on to agree.
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
        """The dual pull at rows whose duals were just reset with step eta.

        Row i is sum_s (positive_parts(x_i)_s / eta) * clipped_subgradient(x_i, s),
        that is weighted_subgradient_rows(rows, positive_parts_rows(rows) / eta).
        rows is (..., d), and eta broadcasts against the (..., p) positive parts,
        so a batch of seeds can carry one eta each.
        """
        rows = np.asarray(rows, dtype=float)
        flat = rows.reshape(-1, self.dimension)
        duals = self.positive_parts_rows(flat).reshape(rows.shape[:-1] + (self.count,)) / eta
        return self.weighted_subgradient_rows(flat, duals.reshape(len(flat), -1)).reshape(rows.shape)

    def _check_index(self, s: int):
        if not 1 <= s <= self.count:
            raise IndexError(f"constraint index {s} outside 1..{self.count}")


class BoxConstraintSet(ConstraintSet):
    """Box lower <= x_m <= upper as 2d one-sided constraints.

    Constraints 1..d are the lower sides (lower - x_m), constraints d+1..2d the
    upper sides (x_m - upper). Every constraint gradient is a signed unit
    vector, so the shared gradient bound is exactly 1.
    """

    def __init__(self, lower: float, upper: float, dimension: int):
        if not lower < upper:
            raise ValueError("need lower < upper")
        d = int(dimension)

        def make_lower(m):
            grad = np.zeros(d)
            grad[m] = -1.0
            grad.flags.writeable = False
            return (lambda x, m=m: lower - x[m]), (lambda x, g=grad: g)

        def make_upper(m):
            grad = np.zeros(d)
            grad[m] = 1.0
            grad.flags.writeable = False
            return (lambda x, m=m: x[m] - upper), (lambda x, g=grad: g)

        pairs = [make_lower(m) for m in range(d)] + [make_upper(m) for m in range(d)]
        super().__init__(d, [p[0] for p in pairs], [p[1] for p in pairs], 1.0)
        self.lower = float(lower)
        self.upper = float(upper)

    def values(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.concatenate([self.lower - x, x - self.upper])

    def positive_parts_rows(self, rows) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        # np.clip with no upper bound is np.maximum, minus its call overhead.
        # Both halves are computed in place: the kernel passes a whole block of
        # rows, and temporaries of that size would raise peak memory.
        out = np.empty(rows.shape[:-1] + (self.count,))
        below, above = out[..., : self.dimension], out[..., self.dimension :]
        np.maximum(np.subtract(self.lower, rows, out=below), 0.0, out=below)
        np.maximum(np.subtract(rows, self.upper, out=above), 0.0, out=above)
        return out

    def weighted_subgradient_rows(self, rows, duals) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        duals = np.asarray(duals, dtype=float)
        d = self.dimension
        # Strict violation only: the subgradient is clipped to zero on the boundary.
        below = (rows < self.lower).astype(float)
        above = (rows > self.upper).astype(float)
        return duals[:, d:] * above - duals[:, :d] * below

    def dual_pull_rows(self, rows, eta) -> np.ndarray:
        """The generic dual pull in closed form: (x - clip(x, lower, upper)) / eta.

        At most one side of a coordinate is violated, and x - bound is exactly
        -(bound - x), so this is the generic pull bit for bit, save one sign:
        where a lower-side pull underflows, the quotient is -0.0 and the
        generic pull +0.0. Adding +0.0 turns -0.0 into +0.0 and changes no
        other value.
        """
        rows = np.asarray(rows, dtype=float)
        return (rows - np.minimum(np.maximum(rows, self.lower), self.upper)) / eta + 0.0

    def project(self, x) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)

    def max_vertex_norm(self) -> float:
        corner = max(abs(self.lower), abs(self.upper))
        return corner * math.sqrt(self.dimension)


def clipped_subgradient(constraints: ConstraintSet, x, s: int) -> np.ndarray:
    """Subgradient of max(c_s(x), 0): grad c_s where c_s(x) > 0, else zero."""
    x = np.asarray(x, dtype=float)
    if constraints.value(x, s) > 0.0:
        return constraints.gradient(x, s)
    return np.zeros(constraints.dimension)


def _row_dots(a, b) -> np.ndarray:
    return np.einsum("...d,...d->...", a, b)


class RegressionRound:
    """All units' losses for one round, vectorized over the unit axis.

    Leading axes batch independent rounds: features (..., N, d) and targets
    (..., N) hold one round per batch entry, and each batch entry's result is
    bit for bit the one its own RegressionRound gives.
    """

    def __init__(self, features, targets, rho):
        self.features = features  # (..., N, d)
        self.targets = targets  # (..., N)
        self.rho = rho

    def values(self, rows) -> np.ndarray:
        r = _row_dots(self.features, rows) - self.targets
        return 0.5 * r * r + self.rho * _row_dots(rows, rows)

    def gradients(self, rows) -> np.ndarray:
        r = _row_dots(self.features, rows) - self.targets
        return r[..., None] * self.features + (2.0 * self.rho) * rows

    def system_values(self, points) -> np.ndarray:
        """Sum of all units' losses at each query row: out[m] = sum_j loss_j(points[m])."""
        points = np.asarray(points, dtype=float)
        residuals = points @ np.swapaxes(self.features, -1, -2) - self.targets[..., None, :]
        sq = _row_dots(points, points)
        return 0.5 * _row_dots(residuals, residuals) + (
            self.rho * self.features.shape[-2]
        ) * sq


@dataclass(frozen=True)
class SufficientStats:
    """Accumulated quadratic data for sum_{t<=T} sum_j loss_{j,t}."""

    gram: np.ndarray  # sum a a^T
    cross: np.ndarray  # sum a b
    target_square_sum: float  # sum b^2
    count: int  # number of (unit, round) terms
    rho: float


class RegressionStream:
    """Per-(unit, round) regression examples with closed-form bound maxima.

    features has shape (T, N, d) and targets shape (T, N); slot (i, t) holds
    the loss unit i sees at round t.
    """

    def __init__(self, features: np.ndarray, targets: np.ndarray, rho: float):
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if features.ndim != 3:
            raise ValueError("features must have shape (T, N, d)")
        if targets.shape != features.shape[:2]:
            raise ValueError("targets must have shape (T, N)")
        if rho < 0.0:
            raise ValueError("rho must be >= 0")
        if not (np.all(np.isfinite(features)) and np.all(np.isfinite(targets))):
            raise ValueError("non-finite stream data")
        self.features = features
        self.targets = targets
        self.rho = float(rho)

    @property
    def horizon(self) -> int:
        return self.features.shape[0]

    @property
    def n_units(self) -> int:
        return self.features.shape[1]

    @property
    def dimension(self) -> int:
        return self.features.shape[2]

    @property
    def strong_convexity(self) -> float:
        return 2.0 * self.rho

    def example(self, i: int, t: int) -> RegressionExample:
        self._check_slot(i, t)
        return RegressionExample(self.features[t - 1, i - 1], float(self.targets[t - 1, i - 1]))

    def oracle(self, i: int, t: int) -> LossOracle:
        return regression_loss(self.example(i, t), self.rho)

    def round(self, t: int) -> RegressionRound:
        if not 1 <= t <= self.horizon:
            raise IndexError(f"round {t} outside 1..{self.horizon}")
        return RegressionRound(self.features[t - 1], self.targets[t - 1], self.rho)

    def rounds(self, T: int) -> RegressionRound:
        """Rounds 1..T as one RegressionRound batched along a leading axis."""
        if not 1 <= T <= self.horizon:
            raise IndexError(f"round {T} outside 1..{self.horizon}")
        return RegressionRound(self.features[:T], self.targets[:T], self.rho)

    def gradient_bound(self, radius: float) -> float:
        norms = np.linalg.norm(self.features, axis=2)
        per_slot = (norms * radius + np.abs(self.targets)) * norms
        return float(per_slot.max()) + 2.0 * self.rho * radius

    def value_bound(self, radius: float) -> float:
        reach = np.linalg.norm(self.features, axis=2) * radius + np.abs(self.targets)
        return 0.5 * float((reach * reach).max()) + self.rho * radius * radius

    def sufficient_statistics(self, T: int) -> SufficientStats:
        if not 1 <= T <= self.horizon:
            raise ValueError(f"prefix length {T} outside 1..{self.horizon}")
        rows = self.features[:T].reshape(-1, self.dimension)
        targets = self.targets[:T].reshape(-1)
        return SufficientStats(
            gram=rows.T @ rows,
            cross=rows.T @ targets,
            target_square_sum=float(targets @ targets),
            count=rows.shape[0],
            rho=self.rho,
        )

    def _check_slot(self, i: int, t: int):
        if not 1 <= i <= self.n_units:
            raise IndexError(f"unit {i} outside 1..{self.n_units}")
        if not 1 <= t <= self.horizon:
            raise IndexError(f"round {t} outside 1..{self.horizon}")


def synthetic_stream(n_units: int, dimension: int, horizon: int, rho: float, seed: int) -> RegressionStream:
    """Draw the synthetic stream: a ~ U[-1, 1]^d, b = a.xbar + N(0, 1) noise.

    xbar has ones in the first floor(d/2) coordinates and zeros elsewhere.
    Each unit draws from its own SeedSequence-spawned stream, so the result is
    bitwise reproducible and independent of evaluation order.
    """
    if n_units < 1 or dimension < 1 or horizon < 1:
        raise ValueError("n_units, dimension, horizon must all be >= 1")
    xbar = np.zeros(dimension)
    xbar[: dimension // 2] = 1.0
    features = np.empty((horizon, n_units, dimension))
    targets = np.empty((horizon, n_units))
    for i in range(1, n_units + 1):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_SPAWN_DATA, i)))
        a = rng.uniform(-1.0, 1.0, size=(horizon, dimension))
        noise = rng.standard_normal(horizon)
        features[:, i - 1, :] = a
        targets[:, i - 1] = a @ xbar + noise
    return RegressionStream(features, targets, rho)


def dataset_stream(examples, n_units: int, horizon: int, rho: float, seed: int) -> RegressionStream:
    """Deal dataset rows to the (unit, round) grid after coordinate rescaling.

    Features are rescaled coordinate-wise to [-1, 1] over the dataset (constant
    coordinates map to 0); targets are left as-is. Rows are shuffled once with
    the seeded stream and dealt round-robin across units, cycling when the grid
    is larger than the dataset.
    """
    examples = list(examples)
    if not examples:
        raise ValueError("empty dataset")
    if n_units < 1 or horizon < 1:
        raise ValueError("n_units and horizon must be >= 1")
    dimension = examples[0].dimension
    if any(e.dimension != dimension for e in examples):
        raise ValueError("examples disagree on dimension")
    table = np.stack([e.features for e in examples])
    targets = np.array([e.target for e in examples])
    low = table.min(axis=0)
    high = table.max(axis=0)
    span = high - low
    scaled = np.zeros_like(table)
    varying = span > 0.0
    scaled[:, varying] = 2.0 * (table[:, varying] - low[varying]) / span[varying] - 1.0
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_SPAWN_SHUFFLE, 0)))
    order = rng.permutation(len(examples))
    slots = np.arange(horizon * n_units) % len(examples)
    dealt = order[slots].reshape(horizon, n_units)
    return RegressionStream(scaled[dealt], targets[dealt], rho)


class ParseError(ValueError):
    """Malformed sparse-text input; the message names the offending line."""


def parse_libsvm(text) -> tuple[list[RegressionExample], int]:
    """Parse sparse regression text: one "<label> <idx>:<val> ..." per line.

    Indices are 1-based and must be strictly increasing within a line; missing
    indices are zero. The inferred dimension is the largest index seen. Accepts
    str or UTF-8 bytes, LF or CRLF; blank lines are skipped.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}") from None
    rows = []
    dimension = 0
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError(f"line {line_no}: bad label {tokens[0]!r}") from None
        if not np.isfinite(label):
            raise ParseError(f"line {line_no}: non-finite label {tokens[0]!r}")
        pairs = []
        previous = 0
        for token in tokens[1:]:
            head, sep, tail = token.partition(":")
            if not sep:
                raise ParseError(f"line {line_no}: token {token!r} is not idx:val")
            try:
                index = int(head)
            except ValueError:
                raise ParseError(f"line {line_no}: bad index in {token!r}") from None
            if index < 1:
                raise ParseError(f"line {line_no}: index {index} < 1")
            if index <= previous:
                raise ParseError(
                    f"line {line_no}: index {index} not increasing after {previous}"
                )
            try:
                value = float(tail)
            except ValueError:
                raise ParseError(f"line {line_no}: bad value in {token!r}") from None
            if not np.isfinite(value):
                raise ParseError(f"line {line_no}: non-finite value in {token!r}")
            previous = index
            pairs.append((index, value))
            dimension = max(dimension, index)
        rows.append((label, pairs))
    examples = []
    for label, pairs in rows:
        features = np.zeros(dimension)
        for index, value in pairs:
            features[index - 1] = value
        examples.append(RegressionExample(features, label))
    return examples, dimension


def serialize_libsvm(examples) -> str:
    """Inverse of parse_libsvm up to zero entries: zeros are omitted.

    Values use shortest round-trip decimal formatting, so parse -> serialize ->
    parse is a fixed point on the parsed structure.
    """
    lines = []
    for example in examples:
        parts = [repr(float(example.target))]
        for index, value in enumerate(example.features, start=1):
            if value != 0.0:
                parts.append(f"{index}:{float(value)!r}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")
