"""The kernel's closed-form box pull against the generic default, bit for bit.

The round loop (algorithm._run_block) writes the box's dual pull out, and
adds its + 0.0 only where algorithm._pull_can_be_negative_zero says a pull
can round to -0.0; the generic default is reference.ConstraintSet.dual_pull_rows
on the box stated constraint by constraint (reference.box_constraints). A
round whose rows all lie inside the box's inscribed ball about the origin
skips the pull, which is +0.0 there.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import netoco.algorithm as algorithm
from netoco.algorithm import _pull_can_be_negative_zero, _round_views, _run_block, _scratch
from netoco.problems import BoxConstraintSet
from netoco.reference import box_constraints

SMALLEST_SUBNORMAL = 5e-324
# The largest eta_1 of the 16 presets (bodyfat-sc and bodyfat-sc-bandit); every preset's box is +-0.15.
LARGEST_PRESET_ETA = 689657.2885937553

# Faces at and near zero let a row sit a subnormal distance outside them.
bounds = st.one_of(
    st.sampled_from([0.0, -0.0, SMALLEST_SUBNORMAL, -SMALLEST_SUBNORMAL, 1e-310, -1e-310]),
    st.floats(-2.0, 2.0),
)
etas = st.one_of(
    st.floats(1e-300, 1e300),
    st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
)


def coordinates(lower, upper):
    """On a face, one ulp outside, a subnormal distance outside, +-0.0, or anywhere."""
    subnormal = st.integers(1, 2**52 - 1).map(lambda k: k * SMALLEST_SUBNORMAL)
    return st.one_of(
        st.sampled_from([lower, upper]),
        st.sampled_from([np.nextafter(lower, -np.inf), np.nextafter(upper, np.inf)]),
        subnormal.map(lambda v: lower - v),
        subnormal.map(lambda v: upper + v),
        st.sampled_from([0.0, -0.0]),
        st.floats(-4.0, 4.0),
    )


@st.composite
def pull_cases(draw):
    lower, upper = sorted(draw(st.lists(bounds, min_size=2, max_size=2, unique=True)))
    seeds, units, d = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    values = draw(st.lists(coordinates(lower, upper), min_size=seeds * units * d, max_size=seeds * units * d))
    rows = np.array(values).reshape(seeds, units, d)
    # One eta per seed, shaped like the kernel's (S, 1, 1) step table rows.
    eta = np.array(draw(st.lists(etas, min_size=seeds, max_size=seeds)))[:, None, None]
    return BoxConstraintSet(lower, upper, d), rows, eta


def kernel_pull(box, rows, eta):
    """The pull _run_block leaves after one round that keeps the rows as they are.

    Every row is a seed of one unit, mixed by the weights [[1.0]]. beta = 0,
    zero features and targets and rho = 0 make the descent step a zero, and
    the ball of radius 10 holds every drawn row, so the round's decisions are
    the rows of committed[0]. eta comes spread over the rows, as the kernel's
    step table spreads it. The pull buffer starts as garbage that beta = 0
    multiplies away, so none of it may reach the result. The loop adds the
    pull's + 0.0 as the kernel decides for a block: by the rule, at the
    largest eta.
    """
    shape = (rows.size // rows.shape[-1], 1, rows.shape[-1])
    committed = np.empty((2,) + shape)
    committed[0] = rows.reshape(shape)
    features, betas = np.zeros((2, 1) + shape)
    etas = np.broadcast_to(eta, rows.shape).reshape((1,) + shape).copy()
    pull = np.full(shape, 7.0)
    views = _round_views(committed, features, np.zeros((1,) + shape[:-1]), betas, etas)
    add_zero = _pull_can_be_negative_zero(box, np.max(eta))
    _run_block(views, pull, 0, (np.array([[1.0]]),), 10.0, 0.0, box, _scratch(shape), add_zero)
    np.testing.assert_array_equal(committed[1], committed[0])
    return pull.reshape(rows.shape)


def assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


@settings(max_examples=400, deadline=None)
@given(pull_cases())
# One subnormal below the lower face with a large eta: the pull underflows to
# zero, which the generic default gives as +0.0.
@example((BoxConstraintSet(0.0, 1.0, 1), np.array([[[-SMALLEST_SUBNORMAL]]]), np.array([[[1e300]]])))
# The rule's edges. One ulp below the face 1.0 is ulp(1.0) / 2 away, which over
# 1.5 * 2**1022 rounds to -0.0: the add stays.
@example((BoxConstraintSet(1.0, 2.0, 1), np.array([[[np.nextafter(1.0, 0.0)]]]), np.array([[[1.5 * 2.0**1022]]])))
# The smallest subnormal over 1.0 is itself (dropped), over 2.0 a tie that rounds to -0.0 (kept).
@example((BoxConstraintSet(SMALLEST_SUBNORMAL, 1.0, 1), np.array([[[0.0]]]), np.array([[[1.0]]])))
@example((BoxConstraintSet(SMALLEST_SUBNORMAL, 1.0, 1), np.array([[[0.0]]]), np.array([[[2.0]]])))
@example((BoxConstraintSet(0.0, 1.0, 2), np.array([[[-SMALLEST_SUBNORMAL, -0.0]]]), np.array([[[1.0]]])))
@example((BoxConstraintSet(1e-310, 1.0, 1), np.array([[[np.nextafter(1e-310, 0.0)]]]), np.array([[[1e10]]])))
@example(
    (
        BoxConstraintSet(-0.15, 0.15, 2),
        np.array([[[np.nextafter(-0.15, -1.0), np.nextafter(0.15, 1.0)]]]),
        np.array([[[LARGEST_PRESET_ETA]]]),
    )
)
def test_box_pull_equals_the_generic_default(case):
    box, rows, eta = case
    assert_same_bits(kernel_pull(box, rows, eta), box_constraints(box).dual_pull_rows(rows, eta))


@pytest.mark.parametrize(
    "lower, upper, eta_max, can",
    [
        (1.0, 2.0, 1.5 * 2.0**1022, True),
        (SMALLEST_SUBNORMAL, 1.0, 1.0, False),
        (SMALLEST_SUBNORMAL, 1.0, 2.0, True),
        (0.0, 1.0, 1.0, True),
        (-1.0, -0.0, 1.0, True),
        (1e-310, 1.0, 1e10, True),
        (-0.15, 0.15, LARGEST_PRESET_ETA, False),
    ],
)
def test_the_rule_at_its_edges(lower, upper, eta_max, can):
    """The decision itself: the bit checks above cannot see an add that is kept
    where no pull can be -0.0, nor a zero face, whose pulls numpy's clip keeps +0.0."""
    assert _pull_can_be_negative_zero(BoxConstraintSet(lower, upper, 1), eta_max) is can


def test_generic_default_is_the_weighted_subgradient_of_the_reset_duals():
    box = BoxConstraintSet(-0.15, 0.15, 3)
    generic = box_constraints(box)
    rows = np.array([[0.2, -0.15, 0.0], [-0.3, 0.1, 0.15000000000000002]])
    eta = 0.25
    expected = generic.weighted_subgradient_rows(rows, generic.positive_parts_rows(rows) / eta)
    assert_same_bits(generic.dual_pull_rows(rows, eta), expected)
    np.testing.assert_allclose(
        kernel_pull(box, rows[None], eta)[0], [[0.2, 0.0, 0.0], [-0.6, 0.0, 0.0]], rtol=1e-12, atol=1e-15
    )


def clip_calls(monkeypatch):
    """The box clips _run_block makes from now on, one per round that takes the full pull."""
    clip, calls = algorithm._clip, []

    def counting(*args):
        calls.append(None)
        return clip(*args)

    monkeypatch.setattr(algorithm, "_clip", counting)
    return calls


@pytest.mark.parametrize("face", ["lower", "upper"])
def test_a_row_one_ulp_past_a_face_takes_the_full_pull(monkeypatch, face):
    """One coordinate one ulp outside a face, the others zero: the row is outside the
    box, so the round must clip, and the pull is the generic one, nonzero on that side."""
    box = BoxConstraintSet(-0.15, 0.15, 3)
    bound, outward = (box.lower, -np.inf) if face == "lower" else (box.upper, np.inf)
    rows = np.array([[[np.nextafter(bound, outward), 0.0, -0.0]]])
    calls = clip_calls(monkeypatch)
    pull = kernel_pull(box, rows, 0.25)
    assert len(calls) == 1
    assert_same_bits(pull, box_constraints(box).dual_pull_rows(rows, 0.25))
    assert np.sign(pull[0, 0, 0]) == np.sign(bound)


def test_rows_inside_the_inscribed_ball_skip_the_pull(monkeypatch):
    """Rows under the bound skip the clip and leave the pull at the formula's +0.0 over
    a buffer of garbage; a row one ulp inside a face is in the box but not under the
    bound, so that round takes the full pull, which is +0.0 as well."""
    box = BoxConstraintSet(-0.15, 0.15, 3)
    inside = np.array([[[0.1, -0.1, -0.0], [0.0, 1e-300, -0.05]]])
    calls = clip_calls(monkeypatch)
    assert_same_bits(kernel_pull(box, inside, 0.25), np.zeros(inside.shape))
    assert calls == []
    near_face = np.array([[[np.nextafter(box.upper, 0.0), 0.0, 0.0]]])
    assert_same_bits(kernel_pull(box, near_face, 0.25), np.zeros(near_face.shape))
    assert len(calls) == 1


@pytest.mark.parametrize(
    "lower, upper", [(0.0, 1.0), (-0.0, 1.0), (0.05, 0.2), (-1.0, 0.0), (-1.0, -0.5)],
    ids=["lower-zero", "lower-negative-zero", "lower-above-zero", "upper-zero", "upper-below-zero"],
)
def test_a_box_without_the_origin_inside_never_skips(monkeypatch, lower, upper):
    """min(-lower, upper) <= 0: no ball about the origin lies inside the box, so even a row
    at the box's centre takes the full pull."""
    box = BoxConstraintSet(lower, upper, 2)
    centre = 0.5 * (lower + upper)
    rows = np.array([[[centre, centre]], [[0.0, -0.0]]])
    calls = clip_calls(monkeypatch)
    assert_same_bits(kernel_pull(box, rows, 0.25), box_constraints(box).dual_pull_rows(rows, 0.25))
    assert len(calls) == 1


def test_a_square_that_underflows_does_not_pass_for_inside(monkeypatch):
    """On the box +-1e-200 the bound m^2 (1 - 1e-12) underflows to 0.0, and so does the
    square of 1e-170, a coordinate far outside the box: the round must still clip."""
    box = BoxConstraintSet(-1e-200, 1e-200, 1)
    rows = np.array([[[1e-170]]])
    calls = clip_calls(monkeypatch)
    pull = kernel_pull(box, rows, 0.25)
    assert len(calls) == 1
    assert_same_bits(pull, box_constraints(box).dual_pull_rows(rows, 0.25))
    assert pull[0, 0, 0] > 0.0
