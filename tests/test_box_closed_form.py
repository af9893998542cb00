"""The box constraint set holds no per-constraint state, and the reference states
it constraint by constraint (box_constraints), the form its closed forms are
tested against."""

import tracemalloc

import numpy as np
import pytest

from netoco.problems import BoxConstraintSet
from netoco.reference import box_constraints

LOWER, UPPER = -0.15, 0.15


@pytest.mark.parametrize("d", [1, 2, 14])
class TestScalars:
    def rows(self, d):
        rng = np.random.default_rng(d)
        return [rng.uniform(-0.4, 0.4, d), np.full(d, UPPER), np.full(d, LOWER), np.zeros(d)]

    def test_count(self, d):
        box = BoxConstraintSet(LOWER, UPPER, d)
        assert box.count == box_constraints(box).count == 2 * d
        assert box_constraints(box).gradient_bound == box.gradient_bound == 1.0

    def test_values_are_the_signed_distances(self, d):
        stated = box_constraints(BoxConstraintSet(LOWER, UPPER, d))
        for x in self.rows(d):
            for m in range(d):
                below, above = stated.value(x, m + 1), stated.value(x, d + m + 1)
                assert type(below) is float and type(above) is float
                assert below == LOWER - x[m]
                assert above == x[m] - UPPER

    def test_gradients_are_fresh_writable_unit_vectors(self, d):
        stated = box_constraints(BoxConstraintSet(LOWER, UPPER, d))
        x = self.rows(d)[0]
        for s in range(1, 2 * d + 1):
            grad = stated.gradient(x, s)
            expected = np.zeros(d)
            expected[(s - 1) % d] = -1.0 if s <= d else 1.0
            assert grad.dtype == float and grad.flags.writeable
            np.testing.assert_array_equal(grad, expected)
            assert grad is not stated.gradient(x, s)
            grad[:] = 7.0  # a caller's write must not reach the next call
            np.testing.assert_array_equal(stated.gradient(x, s), expected)

    def test_indices_outside_the_set_raise(self, d):
        stated = box_constraints(BoxConstraintSet(LOWER, UPPER, d))
        for s in (0, 2 * d + 1):
            with pytest.raises(IndexError, match=f"constraint index {s} outside 1..{2 * d}"):
                stated.value(np.zeros(d), s)
            with pytest.raises(IndexError, match=f"constraint index {s} outside 1..{2 * d}"):
                stated.gradient(np.zeros(d), s)


def test_an_empty_box_keeps_its_message():
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        BoxConstraintSet(LOWER, UPPER, 0)


def test_a_wide_box_holds_almost_nothing():
    tracemalloc.start()
    try:
        box = BoxConstraintSet(LOWER, UPPER, 2000)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert box.count == 4000
    assert held < 2**20


@pytest.mark.parametrize("lower, upper", [(LOWER, UPPER), (-1.0, 0.0), (-0.0, 1.0)])
@pytest.mark.parametrize("shape", [(9, 1), (9, 4), (3, 2, 6, 4), (2, 1, 3, 14)])
def test_positive_parts_have_the_bits_of_the_stated_constraints(lower, upper, shape):
    """The closed form computes both sides of every coordinate into one array and
    takes one positive part; the statement loops constraint by constraint. Rows
    at signed zeros, exactly on either face, one ulp past it and beyond it."""
    box = BoxConstraintSet(lower, upper, shape[-1])
    places = [0.0, -0.0, lower, upper, np.nextafter(lower, -np.inf), np.nextafter(upper, np.inf),
              lower - 1.0, upper + 1.0, 0.5 * (lower + upper)]
    # Every place at least once, shuffled over the rows and coordinates.
    rows = np.random.default_rng(len(shape) * shape[-1]).permutation(np.resize(places, np.prod(shape))).reshape(shape)
    got = box.positive_parts_rows(rows)
    flat = rows.reshape(-1, shape[-1])
    want = box_constraints(box).positive_parts_rows(flat).reshape(shape[:-1] + (2 * shape[-1],))
    assert got.shape == want.shape and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
