"""Every integer argument of the library is read as an integer: a value with a
fraction, a float that merely equals an integer, or a bool, raises a ValueError
naming the argument instead of being truncated or failing inside numpy."""

import numpy as np
import pytest

from netoco.algorithm import make_schedule
from netoco.metrics import bound_constants, checkpoint_grid, communication_cost
from netoco.network import default_ring_6
from netoco.problems import BoxConstraintSet, DatasetTable, dataset_stream, synthetic_stream

BANDIT = dict(p=8, G=1.0, radius=1.0, horizon=100, c=0.5)
BOUNDS = dict(n_units=6, window=2, zeta=0.5, p=12, G=1.0, radius=1.0, c=0.5)
TABLE = DatasetTable(np.zeros((3, 2)), np.zeros(3))

CASES = {
    "box dimension": (lambda: BoxConstraintSet(-1, 1, 2.5), "dimension", 2.5),
    "schedule horizon": (lambda: make_schedule("convex-bandit", **{**BANDIT, "horizon": 100.9}), "horizon", 100.9),
    "schedule p": (lambda: make_schedule("convex-bandit", **{**BANDIT, "p": 8.7}), "p", 8.7),
    "schedule p as a bool": (lambda: make_schedule("convex-bandit", **{**BANDIT, "p": True}), "p", True),
    "eta round": (lambda: make_schedule("convex-bandit", **BANDIT).eta(1.5), "round", 1.5),
    "beta round": (lambda: make_schedule("convex-bandit", **BANDIT).beta(1.5), "round", 1.5),
    "grid T": (lambda: checkpoint_grid(2.5), "T", 2.5),
    "grid T as a float": (lambda: checkpoint_grid(7.0), "T", 7.0),
    "communication T": (lambda: communication_cost(default_ring_6(), 2.5), "T", 2.5),
    "synthetic units": (lambda: synthetic_stream(2.5, 2, 4, 0.0, 1), "n_units", 2.5),
    "synthetic dimension": (lambda: synthetic_stream(2, 2.5, 4, 0.0, 1), "dimension", 2.5),
    "synthetic horizon": (lambda: synthetic_stream(2, 2, 4.5, 0.0, 1), "horizon", 4.5),
    "dataset units": (lambda: dataset_stream(TABLE, 2.5, 4, 0.0, 1), "n_units", 2.5),
    "dataset horizon": (lambda: dataset_stream(TABLE, 2, 4.5, 0.0, 1), "horizon", 4.5),
    "bound window": (lambda: bound_constants("convex-full", **{**BOUNDS, "window": 1.5}), "window", 1.5),
    "bound units": (lambda: bound_constants("convex-full", **{**BOUNDS, "n_units": 6.5}), "n_units", 6.5),
    "bound p": (lambda: bound_constants("convex-full", **{**BOUNDS, "p": 12.0}), "p", 12.0),
}


@pytest.mark.parametrize("case", list(CASES))
def test_an_integer_argument_that_is_no_integer_is_named(case):
    call, name, value = CASES[case]
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
        call()


def test_numpy_integers_are_integers():
    assert BoxConstraintSet(-1, 1, np.int64(3)).dimension == 3
    assert checkpoint_grid(np.int64(7)) == (1, 2, 4, 7)
    hyper = make_schedule("convex-bandit", **{**BANDIT, "horizon": np.int64(100), "p": np.int32(8)})
    assert type(hyper.horizon) is int and type(hyper.p) is int
    assert hyper.eta(np.int64(100)) == hyper.eta(1)
