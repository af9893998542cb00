"""The batched comparator solver against the one-prefix loop it replaced, and its gap.

offline_comparators solves every (stream, checkpoint) prefix of a batch in
stream-major groups, each group in one projected-gradient loop on (K, d)
iterates, so a group may span two streams. Each row must take the steps the
one-prefix solver, reference.offline_comparator, takes and stop at the same
iteration, so every field of every Comparator but the gap is compared bit for
bit with that solver.
"""

import dataclasses
import re

import numpy as np
import pytest

from netoco import bench, metrics
from netoco.algorithm import make_schedule
from netoco.cli import main
from netoco.metrics import ConvergenceError, checkpoint_grid, checkpoint_series, offline_comparators
from netoco.network import default_ring_6
from netoco.problems import BoxConstraintSet, RegressionStream, synthetic_stream
from netoco.reference import box_constraints, offline_comparator


def assert_equals_the_oracle(stream, constraints, checkpoints):
    (batched,) = assert_batch_equals_the_oracle([stream], constraints, checkpoints)
    return batched


def assert_batch_equals_the_oracle(streams, constraints, checkpoints):
    batched = offline_comparators(streams, constraints, checkpoints)
    assert len(batched) == len(streams)
    for s, (stream, comparators) in enumerate(zip(streams, batched)):
        assert len(comparators) == len(checkpoints)
        for T, got in zip(checkpoints, comparators):
            want = offline_comparator(stream, constraints, T)
            assert np.array_equal(got.point, want.point), (s, T)
            assert np.array_equal(np.signbit(got.point), np.signbit(want.point)), (s, T)
            assert got.objective.hex() == want.objective.hex(), (s, T)
            assert got.residual.hex() == want.residual.hex(), (s, T)
            assert got.iterations == want.iterations, (s, T)
    return batched


def preset_streams(name, seeds, **changes):
    """The streams and the box a preset's run uses, with config fields replaced."""
    config = dataclasses.replace(bench.preset_config(name), **changes)
    failures, prepared = bench._prepare(config)
    assert failures == []
    streams = [bench._seed_inputs(config, seed, prepared)[0] for seed in seeds]
    return streams, prepared.constraints, prepared.checkpoints


@pytest.mark.parametrize(
    "n_units, dimension, rho, lower, upper",
    [
        (6, 4, 0.0, -0.15, 0.15),  # optimum on the box
        (6, 4, 1.0, -0.15, 0.15),
        (3, 2, 0.0, -5.0, 5.0),  # interior optimum
        (2, 5, 0.5, 0.05, 0.3),  # the projected origin is not the origin
    ],
)
def test_synthetic_streams_equal_the_oracle(n_units, dimension, rho, lower, upper):
    T = 300
    stream = synthetic_stream(n_units, dimension, T, rho, seed=7)
    box = BoxConstraintSet(lower, upper, dimension)
    assert_equals_the_oracle(stream, box, checkpoint_grid(T))
    assert_equals_the_oracle(stream, box, (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 300))


@pytest.mark.parametrize("name", ["bodyfat-convex", "bodyfat-sc", "mg-convex", "mg-sc"])
def test_bundled_datasets_equal_the_oracle(name):
    streams, box, checkpoints = preset_streams(name, (1, 2), horizon=1024)
    for stream in streams:
        assert_equals_the_oracle(stream, box, checkpoints)


def test_a_first_checkpoint_of_hundreds_of_iterations_equals_the_oracle():
    """bodyfat, seed 1, a checkpoint every 16 rounds: the first prefix takes
    hundreds of iterations while the others stop within a few. The 128
    checkpoints span two groups of the solver."""
    (stream,), box, checkpoints = preset_streams(
        "bodyfat-convex", (1,), horizon=2048, checkpoints=tuple(range(16, 2049, 16))
    )
    assert len(checkpoints) > metrics._GROUP
    comparators = assert_equals_the_oracle(stream, box, checkpoints)
    iterations = [c.iterations for c in comparators]
    assert iterations[0] >= 500
    assert sorted(iterations)[len(iterations) // 2] <= 5


def test_a_group_spanning_two_seeds_equals_the_oracle():
    """Three seeds of 30 checkpoints: rows 0..63 form the first group, which
    ends inside seed 3 (rows 60..89), and the rest of seed 3 is the second."""
    streams, box, _ = preset_streams("synthetic-convex-c0.5", (1, 2, 3), horizon=240)
    checkpoints = tuple(range(8, 241, 8))
    assert len(streams) * len(checkpoints) > metrics._GROUP > 2 * len(checkpoints)
    batched = assert_batch_equals_the_oracle(streams, box, checkpoints)
    assert all(c.iterations > 0 for comparators in batched for c in comparators)


def zero_start_stream(flat_rounds, horizon, rho=0.0, seed=11):
    """A synthetic stream whose first flat_rounds rounds have all-zero features."""
    stream = synthetic_stream(3, 4, horizon, rho, seed)
    features = stream.features.copy()
    features[:flat_rounds] = 0.0
    return RegressionStream(features, stream.targets, rho)


@pytest.mark.parametrize("lower, upper", [(-0.15, 0.15), (0.05, 0.3)])
def test_zero_curvature_rows_mixed_with_normal_rows(lower, upper):
    stream = zero_start_stream(3, 40)
    box = BoxConstraintSet(lower, upper, 4)
    comparators = assert_equals_the_oracle(stream, box, (1, 2, 3, 4, 7, 20, 40))
    origin = box.project(np.zeros(4))
    for c in comparators[:3]:
        assert c.iterations == 0 and c.residual == 0.0
        assert np.array_equal(c.point, origin)
    assert all(c.iterations > 0 for c in comparators[3:])


def test_exhausted_iterations_name_the_checkpoint():
    """The zero-curvature prefix needs no iteration; the next one cannot
    reach tol = 0 in three steps on a wide box, and the error names it."""
    stream = zero_start_stream(3, 8)
    box = BoxConstraintSet(-5.0, 5.0, 4)
    with pytest.raises(RuntimeError, match=r"did not converge at checkpoint T = 6: .* after 3 iterations"):
        offline_comparators([stream], box, (2, 6, 8), tol=0.0, max_iters=3)
    with pytest.raises(ConvergenceError, match=r"did not converge at checkpoint T = 6: .* after 3 iterations"):
        offline_comparator(stream, box, 6, tol=0.0, max_iters=3)
    # The first group stops; the second names its first prefix that does not.
    stream = zero_start_stream(metrics._GROUP + 6, metrics._GROUP + 12)
    checkpoints = tuple(range(1, metrics._GROUP + 7)) + (metrics._GROUP + 9, metrics._GROUP + 12)
    with pytest.raises(RuntimeError, match=rf"did not converge at checkpoint T = {metrics._GROUP + 9}:"):
        offline_comparators([stream], box, checkpoints, tol=0.0, max_iters=3)


def test_of_two_seeds_that_do_not_converge_the_error_names_the_first():
    """Stream 0 stops: its prefixes have no curvature. Streams 1 and 2 cannot
    reach tol = 0 in three steps; the error names stream 1's first checkpoint
    that does not stop, though stream 2's T = 2 comes before it in the
    checkpoints."""
    box = BoxConstraintSet(-5.0, 5.0, 4)
    streams = [zero_start_stream(8, 8), zero_start_stream(3, 8, seed=12), zero_start_stream(1, 8, seed=13)]
    with pytest.raises(ConvergenceError, match=r"did not converge at checkpoint T = 6: .* after 3 iterations") as caught:
        offline_comparators(streams, box, (2, 6, 8), tol=0.0, max_iters=3)
    assert caught.value.stream == 1
    # Alone, stream 2 names its own first checkpoint, as stream 0 of its batch.
    with pytest.raises(ConvergenceError, match=r"did not converge at checkpoint T = 2:") as caught:
        offline_comparators(streams[2:], box, (2, 6, 8), tol=0.0, max_iters=3)
    assert caught.value.stream == 0


def test_no_checkpoints_no_comparators():
    stream = synthetic_stream(2, 2, 4, 0.0, seed=1)
    box = BoxConstraintSet(-1.0, 1.0, 2)
    assert offline_comparators([stream], box, ()) == ((),)
    assert offline_comparators([stream, stream], box, ()) == ((), ())
    assert offline_comparators([], box, (1, 2)) == ()


def test_non_integral_checkpoints_are_refused():
    """A checkpoint is a prefix length; 16.9 is not truncated to T = 16, by either comparator."""
    stream, box = synthetic_stream(2, 2, 32, 0.0, seed=1), BoxConstraintSet(-1.0, 1.0, 2)
    with pytest.raises(ValueError, match="checkpoint must be an integer, got 16.9"):
        offline_comparators([stream], box, (16.9,))
    with pytest.raises(ValueError, match="checkpoint must be an integer, got 16.9"):
        offline_comparator(stream, box, 16.9)


def test_the_streams_of_a_batch_share_their_dimension():
    with pytest.raises(ValueError, match="share their dimension"):
        offline_comparators(
            [synthetic_stream(2, 2, 4, 0.0, seed=1), synthetic_stream(2, 3, 4, 0.0, seed=1)],
            BoxConstraintSet(-1.0, 1.0, 2), (4,),
        )


def test_both_comparators_refuse_constraints_of_another_dimension():
    """A box's projection is an elementwise clip, so a 4-dimensional box would clip a
    2-dimensional iterate by broadcasting; the comparators refuse it as _lockstep does."""
    stream, box = synthetic_stream(6, 2, 16, 1.0, 1), BoxConstraintSet(-0.15, 0.15, 4)
    hyper = make_schedule("convex-full", p=box.count, G=1.0, radius=1.0, horizon=16, c=0.5)
    with pytest.raises(ValueError, match="^constraint dimension does not match the stream$"):
        checkpoint_series([stream], default_ring_6(), [hyper], box, [None], (8, 16))
    with pytest.raises(ValueError, match="^constraint dimension does not match the stream$"):
        offline_comparators([stream, stream], box, (8,))
    with pytest.raises(ValueError, match="^constraint dimension does not match the stream$"):
        offline_comparator(stream, box, 8)


def prefix_quadratic(stream, T):
    """The prefix's (gram, cross, target_square_sum) and its regularizer's weight 2 rho (T N)."""
    return stream.sufficient_statistics(T), 2.0 * stream.rho * (T * stream.n_units)


def reference_point(quadratic, box, start):
    """A tight solve of the prefix's box QP: Newton steps on the coordinates
    not held at a bound, from start, until the point stops moving."""
    (gram, cross, _), reg = quadratic
    hessian = gram + reg * np.eye(len(start))
    x = start.copy()
    for _ in range(50):
        grad = hessian @ x - cross
        free = ~(((x <= box.lower) & (grad > 0.0)) | ((x >= box.upper) & (grad < 0.0)))
        y = x.copy()
        y[free] -= np.linalg.solve(hessian[np.ix_(free, free)], grad[free])
        y = np.clip(y, box.lower, box.upper)
        if np.array_equal(y, x):
            break
        x = y
    grad = hessian @ x - cross
    gap = np.maximum(grad * (x - box.lower), grad * (x - box.upper)).sum()
    return x, gap


def objective(quadratic, x):
    (gram, cross, target_square_sum), reg = quadratic
    return float(
        0.5 * (x @ gram @ x) - cross @ x + 0.5 * target_square_sum
    ) + 0.5 * reg * float(x @ x)


@pytest.mark.parametrize("name", bench.list_presets())
def test_the_gap_bounds_the_distance_to_a_tight_solve(name):
    """Frank-Wolfe: objective - min <= gap. The reference's own gap shows it is tight."""
    streams, box, checkpoints = preset_streams(name, (1, 2), horizon=2048)
    for stream in streams:
        (comparators,) = offline_comparators([stream], box, checkpoints)
        for T, c in zip(checkpoints, comparators):
            quadratic = prefix_quadratic(stream, T)
            reference, reference_gap = reference_point(quadratic, box, c.point)
            assert reference_gap <= 1e-11
            assert np.isfinite(c.gap) and c.gap >= 0.0
            assert c.gap >= c.objective - objective(quadratic, reference), (T, c.gap)


@pytest.mark.parametrize("rho", [0.0, 0.5])
def test_the_gaps_equal_the_one_vector_gap(rho):
    """offline_comparators' Frank-Wolfe gaps, on stacked points, against the gap
    reference.offline_comparator takes at the same point on one vector, from the
    vertex that minimizes grad.v. At rho > 0 the gradient's rho term counts."""
    stream, box = synthetic_stream(3, 4, 200, rho, seed=11), BoxConstraintSet(-0.15, 0.15, 4)
    checkpoints = (1, 2, 5, 50, 200)
    (comparators,) = offline_comparators([stream], box, checkpoints)
    gaps = [offline_comparator(stream, box, T).gap for T in checkpoints]
    assert [c.gap for c in comparators] == pytest.approx(gaps, rel=1e-12, abs=0.0)
    assert max(gaps) > 0.0


def test_a_set_that_is_not_a_box_is_refused_by_name():
    """Both comparators project onto a box; a set with another projection, and the
    box stated constraint by constraint, are refused, naming their type."""

    class Ball:
        dimension = 3

        def project(self, x):
            return x / np.maximum(np.linalg.norm(x, axis=-1, keepdims=True), 1.0)

    stream = synthetic_stream(2, 3, 20, 1.0, seed=3)
    for constraints in (Ball(), box_constraints(BoxConstraintSet(-0.15, 0.15, 3))):
        message = f"the comparator needs a BoxConstraintSet, got {type(constraints).__name__}"
        with pytest.raises(ValueError, match=message):
            offline_comparators([stream], constraints, (5, 20))
        with pytest.raises(ValueError, match=message):
            offline_comparator(stream, constraints, 5)


def test_a_comparator_that_does_not_converge_exits_2_naming_seed_and_checkpoint(
    tmp_path, monkeypatch, capsys
):
    solve = metrics.offline_comparators

    def few_iterations(*args, **kwargs):
        return solve(*args, **{**kwargs, "max_iters": 2})

    monkeypatch.setattr(metrics, "offline_comparators", few_iterations)
    argv = ["run", "--preset", "synthetic-convex-c0.5", "--seed-count", "2", "--horizon", "64"]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"error: synthetic-convex-c0\.5: seed 1: comparator did not converge at checkpoint "
        r"T = 4: residual \d\.\d{3}e[+-]\d+ after 2 iterations\n",
        err,
    ), err
    assert list(tmp_path.iterdir()) == []
