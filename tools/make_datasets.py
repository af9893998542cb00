"""Regenerate the bundled regression datasets deterministically.

The two files under src/netoco/data/ are local stand-ins shaped exactly like
the public LIBSVM regression sets of the same names (mg: 1385 rows, 6
features; bodyfat: 252 rows, 14 features), for environments without network
access. Replacing them with the genuine files is a drop-in swap; nothing in
the package depends on the values beyond shape and finiteness.

mg mirrors the original construction: a Mackey-Glass delay series, windowed so
six consecutive samples predict the next one. bodyfat is a seeded synthetic
anthropometric table whose target is a noisy linear read-out of a latent
adiposity factor. Values are rounded to 6 decimals and written by
netoco.problems.serialize_libsvm.

Usage (from the repository root):

    PYTHONPATH=src python tools/make_datasets.py [output_dir]
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from netoco.problems import DatasetTable, serialize_libsvm

MG_ROWS = 1385
MG_FEATURES = 6
BODYFAT_ROWS = 252
BODYFAT_FEATURES = 14


def mackey_glass(length: int, *, tau: int = 17, beta: float = 0.2, gamma: float = 0.1,
                 exponent: float = 10.0, dt: float = 1.0, burn_in: int = 500) -> np.ndarray:
    total = length + burn_in
    series = np.empty(total)
    history = 1.2  # constant pre-history
    for t in range(total):
        delayed = series[t - tau] if t >= tau else history
        current = series[t - 1] if t >= 1 else history
        series[t] = current + dt * (beta * delayed / (1.0 + delayed**exponent) - gamma * current)
    return series[burn_in:]


def make_mg() -> DatasetTable:
    """Each row is six consecutive samples; its target is the next sample."""
    series = mackey_glass(MG_ROWS + MG_FEATURES)
    windows = np.lib.stride_tricks.sliding_window_view(series[:-1], MG_FEATURES)
    return DatasetTable(windows, series[MG_FEATURES:])


def make_bodyfat() -> DatasetTable:
    rng = np.random.default_rng(np.random.SeedSequence(252))
    adiposity = rng.normal(0.0, 1.0, BODYFAT_ROWS)
    frame = rng.normal(0.0, 1.0, BODYFAT_ROWS)
    age = np.clip(44 + 12 * rng.standard_normal(BODYFAT_ROWS), 22, 81)
    height = np.clip(70 + 2.5 * frame + rng.normal(0, 1.5, BODYFAT_ROWS), 62, 78)
    weight = np.clip(
        178 + 20 * frame + 18 * adiposity + rng.normal(0, 8, BODYFAT_ROWS), 118, 363
    )
    circumferences = []
    baselines = [37.8, 100.8, 92.6, 99.9, 59.4, 38.6, 23.1, 32.3, 28.7, 18.2]
    gains = [1.9, 8.4, 10.8, 7.1, 4.3, 2.8, 1.5, 2.0, 1.2, 0.8]
    for base, gain in zip(baselines, gains):
        circumferences.append(
            base + gain * adiposity + 0.35 * gain * frame
            + rng.normal(0, 0.25 * gain, BODYFAT_ROWS)
        )
    density = 1.0554 - 0.019 * adiposity + rng.normal(0, 0.002, BODYFAT_ROWS)
    table = np.column_stack([density, age, weight, height] + circumferences)
    fat = np.clip(19.0 + 8.0 * adiposity + rng.normal(0, 1.2, BODYFAT_ROWS), 0.0, 47.5)
    return DatasetTable(table, fat)


def rounded(values: np.ndarray) -> np.ndarray:
    """Each value rounded to 6 decimals by Python's round, which rounds the exact decimal."""
    return np.array([round(value, 6) for value in values.ravel().tolist()]).reshape(values.shape)


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1] / "src" / "netoco" / "data"
    out.mkdir(parents=True, exist_ok=True)
    for name, table, shape in (
        ("mg", make_mg(), (MG_ROWS, MG_FEATURES)),
        ("bodyfat", make_bodyfat(), (BODYFAT_ROWS, BODYFAT_FEATURES)),
    ):
        if table.features.shape != shape or table.targets.shape != shape[:1]:
            raise ValueError(
                f"{name}: built features {table.features.shape} and targets {table.targets.shape}, "
                f"expected {shape} and {shape[:1]}"
            )
        path = out / f"{name}.libsvm"
        text = serialize_libsvm(DatasetTable(rounded(table.features), rounded(table.targets)))
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path} ({shape[0]} x {shape[1]})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
