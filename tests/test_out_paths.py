"""The round's in-place paths against their fresh-array paths, bit for bit.

The round loop runs in buffers allocated once per run (bare calls with out,
_project_rows scaling in place); reference.round_step states the same round
on fresh arrays, from reference.loss_values or loss_gradients and
consensus_mix, and the generic dual pull of the box stated constraint by
constraint (reference.box_constraints) follows it. Both must give the same
bits, signed zeros included, and _row_dots, which calls c_einsum directly,
those of np.einsum. So must problems.system_values, which forms its terms in
place, against its fresh-array expression.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from netoco.algorithm import (
    _mix_growth, _project_rows, _pull_can_be_negative_zero, _round_views, _run_block, _scratch, _step_bounds,
)
from netoco.problems import BoxConstraintSet, _row_dots, system_values
from netoco.reference import box_constraints, loss_gradients, loss_values, round_step

SMALLEST_SUBNORMAL = 5e-324

# Signed zeros, subnormals, and values far from 1 on either side.
entries = st.one_of(
    st.sampled_from([0.0, -0.0, SMALLEST_SUBNORMAL, -SMALLEST_SUBNORMAL, 1e-310, -1e-310]),
    st.floats(-1e100, 1e100),
    st.floats(-4.0, 4.0),
)


@st.composite
def shapes(draw):
    """A batch of seeds, units and the decision dimension, as the kernel's (S, N, d)."""
    return draw(st.integers(1, 3)), draw(st.integers(1, 6)), draw(st.integers(1, 6))


def filled(draw, shape):
    size = int(np.prod(shape))
    return np.array(draw(st.lists(entries, min_size=size, max_size=size)), dtype=float).reshape(shape)


def assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected, equal_nan=True)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def garbage(shape):
    """An out buffer whose old contents must not leak into the result."""
    return np.full(shape, np.nan)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_row_dots_are_the_bits_of_np_einsum(data):
    shape = data.draw(shapes())
    a, b = filled(data.draw, shape), filled(data.draw, shape)
    expected = np.einsum("...d,...d->...", a, b)
    assert_same_bits(_row_dots(a, b), expected)
    # One row broadcast against a batch, as a unit's features against a block of rows.
    assert_same_bits(_row_dots(a[0], b), np.einsum("...d,...d->...", a[0], b))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_zero_rho_skips_only_bits_the_pull_restores(data):
    """With rho == 0.0, values and gradients skip the 0.0 * x term. values
    keeps every bit of the formula with it; gradients may differ in the sign
    of a zero, and adding a dual pull (whose zeros are +0.0) erases that."""
    seeds, units, d = data.draw(shapes())
    features, rows = filled(data.draw, (seeds, units, d)), filled(data.draw, (seeds, units, d))
    targets = filled(data.draw, (seeds, units))
    constraints = box_constraints(BoxConstraintSet(-0.5, 0.25, d))
    eta = 10.0 ** data.draw(st.floats(-3.0, 3.0))
    with np.errstate(over="ignore", invalid="ignore"):  # squares of 1e100 overflow alike on both paths
        r = _row_dots(features, rows) - targets
        assert_same_bits(loss_values(features, targets, 0.0, rows), np.add(np.multiply(0.5 * r, r), 0.0 * _row_dots(rows, rows)))
        with_term = np.add(np.multiply(r[..., None], features), (2.0 * 0.0) * rows)
        for pull in (np.zeros(rows.shape), constraints.dual_pull_rows(rows, eta)):
            assert_same_bits(loss_gradients(features, targets, 0.0, rows) + pull, with_term + pull)


# Radii whose squares round, underflow to a subnormal or zero, or overflow.
@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from([0.3, 1.5, 1e-160, 1e-200, 1e200]))
def test_projection_in_place_is_the_fresh_formula(data, radius):
    """_project_rows skips the scaling when every factor is 1.0; on the
    boundary and one ulp outside it must still give the formula's bits."""
    rows = filled(data.draw, data.draw(shapes())) / 1e60  # keeps the squared norms finite
    on_sphere = data.draw(st.sampled_from([None, radius, np.nextafter(radius, np.inf)]))
    if on_sphere is not None:
        rows[..., -1, :] = 0.0
        rows[..., -1, 0] = on_sphere
    fresh = fresh_projection(rows, radius)
    assert_projections_in_place(rows, radius, fresh)


def assert_projections_in_place(rows, radius, fresh):
    """_project_rows with its row dots in a scratch array, as _run_block calls it, and in a
    fresh array, as reference.round_step does, both write the fresh formula's bits into the
    rows they were given. Both return the largest squared row norm when every row lies in
    the ball (no NaN among the squares), and inf when they scale the rows."""
    squares = np.einsum("...d,...d->...", rows, rows)
    inside = not np.isnan(squares).any() and math.sqrt(squares.max()) <= radius
    expected = float(squares.max()) if inside else math.inf
    in_scratch = rows.copy()
    assert _project_rows(in_scratch, radius, garbage(rows.shape[:-1])) == expected
    assert _project_rows(rows, radius) == expected
    assert_same_bits(rows, fresh)
    assert_same_bits(in_scratch, fresh)


def fresh_projection(rows, radius):
    """rows * (radius / max(norm, radius)), each row's factor on fresh arrays."""
    squares = np.einsum("...d,...d->...", rows, rows)
    norms = np.sqrt(squares)
    # An overflowed square (the on-sphere row at radius 1e200) says nothing of
    # the norm, so such a row is measured without squaring.
    overflowed = np.isinf(squares)
    norms[overflowed] = [math.hypot(*row) for row in rows[overflowed]]
    return rows * (radius / np.maximum(norms, radius))[..., None]


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from([0.3, 1.5, 1e-160, 1e150]), st.sampled_from([math.nan, 1e300]))
def test_a_nan_or_overflowing_row_after_the_first_is_scaled(data, radius, odd):
    """Every row lies inside the ball but one, not the first, which holds a
    NaN or an entry whose square overflows to +inf. The early exit must not
    be taken: a NaN row is NaN throughout, as in the formula, and an
    overflowing row is measured without squaring. Python's max passes over a
    NaN that is not first, so an exit on max alone fails here."""
    shape = data.draw(st.integers(1, 3)), data.draw(st.integers(2, 6)), data.draw(st.integers(2, 6))
    # Entries of at most radius / 8, so every row of at most 6 entries lies inside the ball.
    rows = filled(data.draw, shape) / 1e100 * (radius / 8.0)
    flat = rows.reshape(-1, shape[-1])
    flat[data.draw(st.integers(1, len(flat) - 1)), data.draw(st.integers(0, shape[-1] - 1))] = odd
    with np.errstate(over="ignore", invalid="ignore"):  # the odd row's square, on both paths
        fresh = fresh_projection(rows, radius)
        assert_projections_in_place(rows, radius, fresh)


def sprinkled(rng, shape, low, high):
    """Uniform entries with signed zeros and subnormals in about a fifth of the places."""
    values = rng.uniform(low, high, shape)
    special = rng.random(shape) < 0.2
    values[special] = rng.choice([0.0, -0.0, SMALLEST_SUBNORMAL, -SMALLEST_SUBNORMAL, 1e-310], special.sum())
    return values


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 3]),
    st.sampled_from([0.0, 0.37]),
    st.booleans(),
    st.booleans(),
)
def test_a_block_of_the_round_loop_is_the_fresh_formulas(seed, seeds, rho, bandit, bounded):
    """_run_block on its per-run scratch against one round at a time on fresh
    arrays: reference.round_step, then the generic dual pull of the box. The
    scratch starts as NaN, so a value left from another round or read across
    seeds shows. Without bounded every step bound is inf and every round
    checks; bounded passes the step bounds and the weights' growth, as
    _lockstep does, so that rounds may skip the projection. The directions
    are then of norm 1, as the kernel's are, and the bounds hold in the ball
    of radius + eps, which holds every probe. The box's inscribed ball has
    radius 0.25, so radius 0.2 puts the decision ball inside the box, where
    rounds that scale rows skip the pull."""
    rng = np.random.default_rng(seed)
    rounds, units, d = int(rng.integers(1, 5)), int(rng.integers(1, 7)), int(rng.integers(1, 7))
    shape = (seeds, units, d)
    features = sprinkled(rng, (rounds,) + shape, -1.0, 1.0)
    targets = sprinkled(rng, (rounds, seeds, units), -2.0, 2.0)
    decisions, pull = sprinkled(rng, shape, -0.5, 0.5), sprinkled(rng, shape, -3.0, 3.0)
    etas = 10.0 ** rng.uniform(-2.0, 2.0, (rounds, seeds, 1, 1))
    betas = np.broadcast_to(10.0 ** rng.uniform(-3.0, 0.0, (rounds, seeds, 1, 1)), (rounds,) + shape).copy()
    weights = tuple(rng.random((units, units)) for _ in range(2))
    start, radius = int(rng.integers(0, 4)), float(rng.choice([0.2, 0.3, 1.5]))
    box = BoxConstraintSet(-0.5, 0.25, d)
    eps = 0.1
    directions = sprinkled(rng, (rounds,) + shape, -1.0, 1.0)
    steps, growth = [math.inf] * rounds, 1.0
    if bounded:
        directions[...] = rng.standard_normal(directions.shape)
        directions /= np.sqrt(_row_dots(directions, directions))[..., None]
        steps = _step_bounds(features, targets, betas, radius + eps, rho, d / eps if bandit else None)
        growth = _mix_growth(weights)

    committed = np.empty((rounds + 1,) + shape)
    committed[0] = decisions
    probes = None
    if bandit:
        observed, queries = garbage((rounds, seeds, units)), garbage((rounds,) + shape)
        probes = directions, eps * directions, observed, queries
    scratch = _scratch(shape)
    for array in scratch:
        array[...] = np.nan
    loop_pull = pull.copy()
    _run_block(
        _round_views(committed, features, targets, betas, etas, probes), loop_pull, start,
        weights, radius, rho, box, scratch, _pull_can_be_negative_zero(box, etas.max()), steps, growth,
        d / eps if bandit else None,
    )

    current = decisions
    for k in range(rounds):
        current, seen, probe = round_step(
            current, pull, features[k], targets[k], rho, weights[(start + k) % 2], betas[k],
            radius, directions[k] if bandit else None, eps,
        )
        if bandit:
            assert_same_bits(queries[k], probe)
            assert_same_bits(observed[k], seen)
        pull = box_constraints(box).dual_pull_rows(current, etas[k])
        assert_same_bits(committed[k + 1], current)
    assert_same_bits(loop_pull, pull)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from([0.0, 0.37]))
def test_system_values_in_place_are_the_fresh_formula(data, rho):
    """The residuals are formed inside the product's array and the two terms summed in
    place; the fresh-array expression makes a new array at every step."""
    seeds, units, d = data.draw(shapes())
    rounds = data.draw(st.integers(1, 3))
    features = filled(data.draw, (rounds, seeds, units, d))
    targets = filled(data.draw, (rounds, seeds, units))
    points = filled(data.draw, (rounds, seeds, data.draw(st.integers(1, 6)), d))
    with np.errstate(over="ignore", invalid="ignore"):  # squares of 1e100 overflow alike on both paths
        residuals = points @ np.swapaxes(features, -1, -2) - targets[..., None, :]
        dots = np.einsum("...d,...d->...", residuals, residuals), np.einsum("...d,...d->...", points, points)
        want = 0.5 * dots[0] + (rho * units) * dots[1]
        got = system_values(features, targets, rho, points)
    assert_same_bits(got, want)
