"""The set-up passes that work a block of 128 rounds at a time give the bits of
the whole-stream formulas: the bounds G and C, the dealing of dataset rows and
the kernel's step sizes; so do synthetic streams, whose targets are written in
place. The finiteness check, which makes no temporary, still finds a
non-finite entry in the last block.

The golden digests run T = 2048, a whole number of blocks; these horizons
include a single round, one block short of full, one block and one round past.
"""

from importlib import resources

import numpy as np
import pytest

from netoco.algorithm import _block_steps, make_schedule
from netoco.bench import _bounding_stream, _load_dataset, preset_config
from netoco.problems import (
    _BLOCK,
    _SPAWN_DATA,
    _SPAWN_SHUFFLE,
    RegressionStream,
    dataset_stream,
    parse_libsvm,
    synthetic_stream,
)

HORIZONS = (1, 127, 128, 129, 300)
N = 6


def whole_stream_bounds(stream, radius):
    """G and C as one expression over the whole (T, N, d) stream."""
    norms = np.linalg.norm(stream.features, axis=2)
    per_slot = (norms * radius + np.abs(stream.targets)) * norms
    reach = norms * radius + np.abs(stream.targets)
    return (
        float(per_slot.max()) + 2.0 * stream.rho * radius,
        0.5 * float((reach * reach).max()) + stream.rho * radius * radius,
    )


def assert_same_bounds(stream, radius):
    got = stream.bounds(radius)
    want = whole_stream_bounds(stream, radius)
    assert [v.hex() for v in got] == [v.hex() for v in want]


def bundled_table(name):
    text = resources.files("netoco").joinpath("data", f"{name}.libsvm").read_text(encoding="utf-8")
    return parse_libsvm(text)


def whole_dataset_stream_arrays(raw, n_units, horizon, seed):
    """Rescale the raw table's rows and deal them as one (T, N) index array."""
    table, targets = raw.features, raw.targets
    low, high = table.min(axis=0), table.max(axis=0)
    span = high - low
    scaled = np.zeros_like(table)
    varying = span > 0.0
    scaled[:, varying] = 2.0 * (table[:, varying] - low[varying]) / span[varying] - 1.0
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_SPAWN_SHUFFLE, 0)))
    order = rng.permutation(len(targets))
    dealt = order[np.arange(horizon * n_units) % len(targets)].reshape(horizon, n_units)
    return scaled[dealt], targets[dealt]


@pytest.mark.parametrize("T", HORIZONS)
@pytest.mark.parametrize("rho", [0.0, 1.0])
def test_synthetic_bounds_have_the_whole_stream_bits(T, rho):
    for d in (4, 14):
        stream = synthetic_stream(N, d, T, rho, seed=T + d)
        for radius in (0.15 * np.sqrt(d), 2.5):
            assert_same_bounds(stream, radius)


@pytest.mark.parametrize("T", HORIZONS)
@pytest.mark.parametrize("name", ["mg", "bodyfat"])
def test_dataset_streams_are_dealt_and_bounded_with_the_whole_stream_bits(T, name):
    raw = bundled_table(name)
    table = raw.rescaled()
    for seed in (0, 5):
        features, targets = whole_dataset_stream_arrays(raw, N, T, seed)
        stream = dataset_stream(table, N, T, 1.0, seed)
        assert np.array_equal(stream.features, features)
        assert np.array_equal(stream.targets, targets)
        assert_same_bounds(stream, 0.15 * np.sqrt(table.features.shape[1]))


@pytest.mark.parametrize("preset", ["mg-sc", "bodyfat-convex"])
def test_the_whole_dataset_bound_is_that_of_each_row_dealt_once(preset):
    config = preset_config(preset)
    table, dimension = _load_dataset(config)
    radius = config.upper * np.sqrt(dimension)
    rows = len(table.targets)
    dealt_once = dataset_stream(table, 1, rows, config.rho, 0)
    got = _bounding_stream(config, table, dimension).bounds(radius)
    assert [v.hex() for v in got] == [v.hex() for v in whole_stream_bounds(dealt_once, radius)]


@pytest.mark.parametrize("T", HORIZONS)
def test_a_non_finite_entry_in_the_last_block_is_still_found(T):
    stream = synthetic_stream(2, 3, T, 0.0, seed=1)
    for bad in (np.nan, np.inf):
        features = stream.features.copy()
        features[-1, 1, 2] = bad
        with pytest.raises(ValueError, match="non-finite stream data"):
            RegressionStream(features, stream.targets, 0.0)
        targets = stream.targets.copy()
        targets[-1, 0] = -bad
        with pytest.raises(ValueError, match="non-finite stream data"):
            RegressionStream(stream.features, targets, 0.0)


SCHEDULES = [
    ("convex-full", [{"G": 3.7, "c": 0.5}, {"G": 41.0, "c": 0.75}]),
    ("convex-bandit", [{"G": 3.7, "c": 0.75}, {"G": 41.0, "c": 0.75, "a": 3.0}]),
    ("strongly-convex-full", [{"G": 3.7, "sigma": 2.0}, {"G": 41.0, "sigma": 0.5}]),
    ("strongly-convex-bandit", [{"G": 3.7, "sigma": 0.7}, {"G": 41.0, "sigma": 3.0}]),
]


@pytest.mark.parametrize("T", HORIZONS + (2048,))
@pytest.mark.parametrize("variant, extra", SCHEDULES)
def test_block_step_sizes_equal_the_per_round_eta_and_beta(T, variant, extra):
    # Two seeds whose G and step constants differ, as the schedules of one batch may.
    schedules = [make_schedule(variant, p=8, radius=10.0, horizon=T, **fields) for fields in extra]
    etas, betas = np.full((2, T, 2, 3, 4), np.nan)
    for start in range(0, T, _BLOCK):
        assert _block_steps(schedules, start, etas[start : start + _BLOCK], betas[start : start + _BLOCK]) is None
    for s, hyper in enumerate(schedules):
        want_etas = [hyper.eta(t) for t in range(1, T + 1)]
        want_betas = [hyper.beta(t) for t in range(1, T + 1)]
        # Every row of a seed, and every coordinate of a row, carries its round's step.
        assert np.array_equal(etas[:, s], np.broadcast_to(np.array(want_etas)[:, None, None], (T, 3, 4)))
        assert np.array_equal(betas[:, s], np.broadcast_to(np.array(want_betas)[:, None, None], (T, 3, 4)))


def whole_synthetic_arrays(n_units, dimension, horizon, seed):
    """Each unit's draws as whole arrays, the targets as a.xbar + noise of contiguous copies."""
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
    return features, targets


@pytest.mark.parametrize("T", HORIZONS + (2048,))
@pytest.mark.parametrize("n_units, dimension", [(1, 1), (6, 4), (3, 7), (2, 14), (4, 33)])
def test_synthetic_streams_have_the_bits_of_whole_draws(T, n_units, dimension):
    stream = synthetic_stream(n_units, dimension, T, 0.0, seed=T + dimension)
    features, targets = whole_synthetic_arrays(n_units, dimension, T, T + dimension)
    assert np.array_equal(stream.features, features)
    assert np.array_equal(stream.targets, targets)
