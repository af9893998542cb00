"""The box's closed-form dual pull against the generic default, bit for bit."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from netoco.problems import BoxConstraintSet, ConstraintSet

SMALLEST_SUBNORMAL = 5e-324

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


def assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


@settings(max_examples=400, deadline=None)
@given(pull_cases())
# One subnormal below the lower face with a large eta: the pull underflows to
# zero, which the generic default gives as +0.0.
@example((BoxConstraintSet(0.0, 1.0, 1), np.array([[[-SMALLEST_SUBNORMAL]]]), np.array([[[1e300]]])))
def test_box_pull_equals_the_generic_default(case):
    box, rows, eta = case
    assert_same_bits(box.dual_pull_rows(rows, eta), ConstraintSet.dual_pull_rows(box, rows, eta))


def test_generic_default_is_the_weighted_subgradient_of_the_reset_duals():
    box = BoxConstraintSet(-0.15, 0.15, 3)
    rows = np.array([[0.2, -0.15, 0.0], [-0.3, 0.1, 0.15000000000000002]])
    eta = 0.25
    expected = box.weighted_subgradient_rows(rows, box.positive_parts_rows(rows) / eta)
    assert_same_bits(ConstraintSet.dual_pull_rows(box, rows, eta), expected)
    np.testing.assert_allclose(
        box.dual_pull_rows(rows, eta), [[0.2, 0.0, 0.0], [-0.6, 0.0, 0.0]], rtol=1e-12, atol=1e-15
    )
