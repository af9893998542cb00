"""Losses, the box constraint set, and data streams for networked online regression.

The loss family is regularized scalar regression on the ball of radius R:

    value(x)    = 0.5 * (a.x - b)^2 + rho * ||x||^2
    gradient(x) = (a.x - b) * a + 2 * rho * x

with analytic sups of the gradient norm and of the value over ||x|| <= R:

    G(R) = (||a|| R + |b|) ||a|| + 2 rho R
    V(R) = 0.5 * (||a|| R + |b|)^2 + rho R^2

and strong convexity modulus 2 * rho. A stream's (T, N, d) features and
(T, N) targets hold one example per (unit, round) slot, and
RegressionStream.bounds takes the same bounds as maxima over the realized
data, since Gaussian targets admit no a-priori bound. A round's losses travel
as those arrays and rho: system_values sums all units' losses at query rows,
and sufficient_statistics gives a prefix's quadratic data. One slot's loss
oracle is reference.regression_loss.

Long-term constraints are inequality functions c_s(x) <= 0 whose violated
part enters the updates through the clipped subgradient: the gradient of c_s
where c_s(x) > 0 and the zero vector where c_s(x) <= 0 (zero at the boundary).
The run path takes one set of them, the box, in closed form
(BoxConstraintSet); the general statement, one callable per constraint, is
reference.ConstraintSet.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .network import _integer

try:
    from numpy._core.multiarray import c_einsum as _c_einsum
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.multiarray import c_einsum as _c_einsum
    from numpy.core.umath import clip as _clip

__all__ = [
    "BoxConstraintSet",
    "RegressionStream",
    "synthetic_stream",
    "DatasetTable",
    "dataset_stream",
    "ParseError",
    "parse_libsvm",
    "serialize_libsvm",
]

# SeedSequence spawn-key purposes; the decision-loop sphere sampler uses 3.
_SPAWN_DATA = 1
_SPAWN_SHUFFLE = 2

# Rounds per block: the kernel's stacked stream data and sphere directions, and
# every pass of a stream's set-up over its rounds but the synthetic draws, take
# at most this many at once.
_BLOCK = 128

# Rounds per draw of a synthetic unit's uniforms or normals: few Generator calls per
# stream, and a temporary of at most this many rows (32 KiB at d = 4) whatever T is.
_DRAW_CHUNK = 1024


def _blocks(horizon: int, length: int = _BLOCK):
    """Slices of rounds 0..horizon - 1 (0-based), length (_BLOCK) at a time."""
    for start in range(0, horizon, length):
        yield slice(start, min(start + length, horizon))


class BoxConstraintSet:
    """Box lower <= x_m <= upper as 2d one-sided constraints, in closed form.

    Constraints 1..d are the lower sides (lower - x_m), constraints d+1..2d the
    upper sides (x_m - upper). Every constraint gradient is a signed unit
    vector, so the shared gradient bound is exactly 1. The set holds only its
    dimension and bounds. It is the one constraint set the run path takes: the
    round loop (algorithm._run_block) writes its dual pull out in closed form,
    and netoco.reference states it constraint by constraint (box_constraints),
    the form that pull is tested against.
    """

    def __init__(self, lower: float, upper: float, dimension: int):
        if not lower < upper:
            raise ValueError("need lower < upper")
        self.dimension = _integer(dimension, "dimension")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.lower = float(lower)
        self.upper = float(upper)
        self.gradient_bound = 1.0
        # The bounds as float64 0-d arrays, which take the ufunc's fast path: the projection's
        # clip, and the clip of the dual pull that the round loop (algorithm._run_block) writes out.
        self._clip_bounds = np.array(self.lower), np.array(self.upper)

    @property
    def count(self) -> int:
        return 2 * self.dimension

    def positive_parts_rows(self, rows) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        # lower - x and x - upper side by side in one contiguous (..., 2, d)
        # array, whose (..., 2d) view is the constraint layout; then one
        # np.maximum in place over both halves (np.clip with no upper bound,
        # minus its call overhead). The kernel passes a whole block of rows,
        # and temporaries of that size would raise peak memory.
        lower, upper = self._clip_bounds
        out = np.empty(rows.shape[:-1] + (2, self.dimension))
        np.subtract(lower, rows, out=out[..., 0, :])
        np.subtract(rows, upper, out=out[..., 1, :])
        np.maximum(out, 0.0, out=out)
        return out.reshape(rows.shape[:-1] + (self.count,))

    def project(self, x) -> np.ndarray:
        # The bare ufunc that np.clip calls, on the float64 bounds, which also make the result float64:
        # the comparator's loop projects on every iteration.
        return _clip(x, *self._clip_bounds)

    def max_vertex_norm(self) -> float:
        corner = max(abs(self.lower), abs(self.upper))
        return corner * math.sqrt(self.dimension)


def _check_box(constraints, user: str):
    """ValueError naming the type of a constraint set that is not a BoxConstraintSet."""
    if not isinstance(constraints, BoxConstraintSet):
        raise ValueError(f"{user} needs a BoxConstraintSet, got {type(constraints).__name__}")


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of a nonempty array is finite, with no temporary: a NaN propagates
    through min and max, and an infinity is the min or the max."""
    return math.isfinite(a.min()) and math.isfinite(a.max())


_DOTS = "...d,...d->..."


def _row_dots(a, b) -> np.ndarray:
    # np.einsum with optimize=False (its default) forwards to c_einsum;
    # calling that directly skips the Python wrapper, not a bit of the result.
    # (The round loop passes out to ufuncs positionally for the same reason:
    # at one round's size the keyword costs more than the arithmetic.)
    return _c_einsum(_DOTS, a, b)


def system_values(features, targets, rho, points) -> np.ndarray:
    """Sum of all units' losses at each query row: out[m] = sum_j loss_j(points[m]).

    features (..., N, d) and targets (..., N) hold one round's losses per batch
    entry, such as a stream's features[t - 1] and targets[t - 1] for round t,
    and points (..., M, d) the query rows; each batch entry's result is bit
    for bit the one it gets on its own.
    """
    points = np.asarray(points, dtype=float)
    # The targets are subtracted inside the product's own array, and the
    # terms are formed and summed in place: one array of the product's
    # (..., M, N) size is held, with the bits of the fresh-array formula
    # 0.5 * ||r||^2 + (rho N) * ||x||^2 over each residual row r.
    residuals = points @ np.swapaxes(features, -1, -2)
    np.subtract(residuals, targets[..., None, :], out=residuals)
    values, squares = _row_dots(residuals, residuals), _row_dots(points, points)
    np.multiply(0.5, values, out=values)
    np.multiply(rho * features.shape[-2], squares, out=squares)
    return np.add(values, squares, out=values)


class RegressionStream:
    """Per-(unit, round) regression examples with closed-form bound maxima.

    features has shape (T, N, d) and targets shape (T, N); slot (i, t) holds
    the loss unit i sees at round t. The finiteness check makes no temporary
    and the bounds pass over the stream in blocks of _BLOCK rounds, so no
    temporary of theirs is larger than one block's.
    """

    def __init__(self, features: np.ndarray, targets: np.ndarray, rho: float):
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if features.ndim != 3:
            raise ValueError("features must have shape (T, N, d)")
        if 0 in features.shape:
            raise ValueError(f"features must have T, N, d >= 1, got shape {features.shape}")
        if targets.shape != features.shape[:2]:
            raise ValueError("targets must have shape (T, N)")
        if not 0.0 <= rho < math.inf:  # NaN fails every comparison
            raise ValueError(f"rho must be finite and >= 0, got rho = {rho}")
        if not (_all_finite(features) and _all_finite(targets)):
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

    def bounds(self, radius: float) -> tuple[float, float]:
        """(G(radius), V(radius)) of the module docstring, maxima over slots, from one pass over blocks of rounds.

        Each slot's reach is ||a|| R + |b|, with ||a|| from np.linalg.norm over
        a block, so every slot has the bits of the whole-stream formula; the
        maxima of the blocks' maxima are the whole stream's maxima.
        """
        gradients, values = [], []
        for rounds in _blocks(self.horizon):
            norms = np.linalg.norm(self.features[rounds], axis=2)
            reach = norms * radius + np.abs(self.targets[rounds])
            gradients.append((reach * norms).max())
            values.append((reach * reach).max())
        return (
            float(np.max(gradients)) + 2.0 * self.rho * radius,
            0.5 * float(np.max(values)) + self.rho * radius * radius,
        )

    def sufficient_statistics(self, T: int) -> tuple[np.ndarray, np.ndarray, float]:
        """(sum a a^T, sum a b, sum b^2) over the first T rounds' slots: the quadratic data of
        sum_{t<=T} sum_j loss_{j,t}, whose rho term is rho times the T N slots' ||x||^2."""
        if not 1 <= T <= self.horizon:
            raise ValueError(f"prefix length {T} outside 1..{self.horizon}")
        rows = self.features[:T].reshape(-1, self.dimension)
        targets = self.targets[:T].reshape(-1)
        return rows.T @ rows, rows.T @ targets, float(targets @ targets)


def synthetic_stream(n_units: int, dimension: int, horizon: int, rho: float, seed: int) -> RegressionStream:
    """Draw the synthetic stream: a ~ U[-1, 1]^d, b = a.xbar + N(0, 1) noise.

    xbar has ones in the first floor(d/2) coordinates and zeros elsewhere.
    Each unit draws from its own SeedSequence-spawned stream, so the result is
    bitwise reproducible and independent of evaluation order. A unit draws
    its uniforms, then its normals, one _DRAW_CHUNK-round chunk at a time,
    the same numbers as one draw of each; a chunk's draw is the only
    temporary, and only until it is stored. a.xbar is computed from the
    stored features straight into the targets (the same gemv as on the
    unit's own (T, d) draw, with a row stride), and the noise is added there.
    """
    n_units, dimension = _integer(n_units, "n_units"), _integer(dimension, "dimension")
    horizon = _integer(horizon, "horizon")
    if n_units < 1 or dimension < 1 or horizon < 1:
        raise ValueError("n_units, dimension, horizon must all be >= 1")
    xbar = np.zeros(dimension)
    xbar[: dimension // 2] = 1.0
    features = np.empty((horizon, n_units, dimension))
    targets = np.empty((horizon, n_units))
    for i in range(1, n_units + 1):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_SPAWN_DATA, i)))
        unit_features, unit_targets = features[:, i - 1, :], targets[:, i - 1]
        for chunk in _blocks(horizon, _DRAW_CHUNK):
            unit_features[chunk] = rng.uniform(-1.0, 1.0, size=unit_features[chunk].shape)
        np.matmul(unit_features, xbar, out=unit_targets)
        for chunk in _blocks(horizon, _DRAW_CHUNK):
            unit_targets[chunk] += rng.standard_normal(len(unit_targets[chunk]))
    return RegressionStream(features, targets, rho)


@dataclass(frozen=True)
class DatasetTable:
    """A dataset as one table: features (rows, d) and targets (rows,).

    parse_libsvm gives the raw table, and rescaled() the one that streams
    are dealt from.
    """

    features: np.ndarray
    targets: np.ndarray

    def rescaled(self) -> DatasetTable:
        """The table with its features rescaled coordinate-wise to [-1, 1] over the rows.

        Constant coordinates map to 0; the targets are kept as they are.
        """
        table = self.features
        low = table.min(axis=0)
        high = table.max(axis=0)
        span = high - low
        scaled = np.zeros_like(table)
        varying = span > 0.0
        scaled[:, varying] = 2.0 * (table[:, varying] - low[varying]) / span[varying] - 1.0
        return DatasetTable(scaled, self.targets)


def dataset_stream(dataset: DatasetTable, n_units: int, horizon: int, rho: float, seed: int) -> RegressionStream:
    """Deal the rows of a rescaled DatasetTable to the (unit, round) grid.

    Rows are shuffled once with the seeded stream and dealt round-robin
    across units, cycling when the grid is larger than the dataset, one
    block of rounds at a time straight into the stream's arrays.
    """
    n_units, horizon = _integer(n_units, "n_units"), _integer(horizon, "horizon")
    if n_units < 1 or horizon < 1:
        raise ValueError("n_units and horizon must be >= 1")
    rows, dimension = dataset.features.shape
    if rows == 0:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_SPAWN_SHUFFLE, 0)))
    order = rng.permutation(rows)
    features = np.empty((horizon, n_units, dimension))
    targets = np.empty((horizon, n_units))
    for rounds in _blocks(horizon):
        dealt = order[np.arange(rounds.start * n_units, rounds.stop * n_units) % rows]
        features[rounds] = dataset.features[dealt].reshape(-1, n_units, dimension)
        targets[rounds] = dataset.targets[dealt].reshape(-1, n_units)
    return RegressionStream(features, targets, rho)


def _memory_failure(need: int, what: str, kind: str):
    """The failure message when what needs more than physical memory, need bytes of kind; else None."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need <= memory:
        return None
    return (
        f"{what} needs {need / 2**30:.4g} GiB of {kind}, "
        f"more than the {memory / 2**30:.4g} GiB of physical memory"
    )


class ParseError(ValueError):
    """Malformed or oversized sparse-text input; the message names the offending line."""


def parse_libsvm(text) -> DatasetTable:
    """Parse sparse regression text into the raw table: one "<label> <idx>:<val> ..." per line.

    Indices are 1-based and must be strictly increasing within a line; missing
    indices are zero. The table's width is the largest index seen; input
    whose dense rows would not fit in physical memory is refused before they
    are built. Accepts str or UTF-8 bytes, LF or CRLF, with or without a
    leading byte-order mark; blank lines are skipped. Numbers are ASCII
    without digit separators: Python's int and float also read "1_0" and
    non-ASCII digits, so a line holding "_" or any non-ASCII character is
    refused. One pass checks every number and collects the entries, which
    then fill the zero table in one scatter.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}") from None
    labels, rows, columns, values = [], [], [], []
    dimension = widest = 0
    for line_no, line in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if not line.isascii():
            raise ParseError(f"line {line_no}: non-ASCII character in {line!r}")
        if "_" in line:
            raise ParseError(f"line {line_no}: digit separator '_' in {line!r}")
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError(f"line {line_no}: bad label {tokens[0]!r}") from None
        if not math.isfinite(label):
            raise ParseError(f"line {line_no}: non-finite label {tokens[0]!r}")
        row = len(labels)
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
            if not math.isfinite(value):
                raise ParseError(f"line {line_no}: non-finite value in {token!r}")
            previous = index
            rows.append(row)
            columns.append(index - 1)
            values.append(value)
            if index > dimension:
                dimension, widest = index, line_no
        labels.append(label)
    failure = _memory_failure(
        len(labels) * dimension * 8, f"index {dimension} on line {widest}, over {len(labels)} rows,",
        "dense features",
    )
    if failure:
        raise ParseError(failure)
    features = np.zeros((len(labels), dimension))
    features[np.array(rows, dtype=np.intp), np.array(columns, dtype=np.intp)] = values
    return DatasetTable(features, np.array(labels, dtype=float))


def serialize_libsvm(table: DatasetTable) -> str:
    """Inverse of parse_libsvm up to zero entries: zeros are omitted.

    Values use shortest round-trip decimal formatting, so parse -> serialize ->
    parse is a fixed point on the parsed table.
    """
    lines = []
    for target, features in zip(table.targets.tolist(), table.features.tolist()):
        parts = [repr(target)]
        for index, value in enumerate(features, start=1):
            if value != 0.0:
                parts.append(f"{index}:{value!r}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")
