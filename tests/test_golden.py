"""Golden output: every preset's CSV bytes, pinned to recorded SHA-256 digests,
and its numbers, pinned to recorded values.

golden_digests.json holds the digests tools/golden_digests.py printed for all
presets (T = 2048, seeds 1 and 2) and the numpy version that produced them;
golden_values.json holds the same CSVs as rows of numbers. The presets run once,
in a child process, because the tool pins BLAS to one thread before numpy loads.
Floating-point results can change in the last bit between numpy builds, so a
different numpy version fails the digest test by name instead of skipping it.
The bytes also depend on the OpenBLAS kernel picked for the CPU, which the
thread pin does not fix, so a failing digest names the kernel it ran on. The
values test asks only that the numbers agree to rounding, which holds where
the bits do not: the largest move measured under another kernel or thread
count is 1.5e-12 relative, against a tolerance of 1e-9.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDED = json.loads((ROOT / "tests" / "golden_digests.json").read_text(encoding="utf-8"))
VALUES = json.loads((ROOT / "tests" / "golden_values.json").read_text(encoding="utf-8"))
# A float may move by this times the larger of its recorded magnitude and its column's largest.
RELATIVE_TOLERANCE = 1e-9


@pytest.fixture(scope="module")
def measured():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    child = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "golden_digests.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def test_every_preset_has_a_digest(measured):
    assert sorted(measured["csv_sha256"]) == sorted(RECORDED["csv_sha256"])


@pytest.mark.parametrize("name", sorted(RECORDED["csv_sha256"]))
def test_csv_matches_recorded_digest(measured, name):
    assert measured["numpy"] == RECORDED["numpy"], (
        f"digests were recorded with numpy {RECORDED['numpy']}, this is numpy {measured['numpy']}"
    )
    assert measured["csv_sha256"].get(name) == RECORDED["csv_sha256"][name], (
        f"{name}: CSV bytes differ from the recorded run, on OpenBLAS core {measured['blas_core']} "
        "(the digests hold on one BLAS thread and the kernel they were recorded on)"
    )


def test_every_preset_has_recorded_values(measured):
    assert sorted(measured["csv_values"]) == sorted(VALUES)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_csv_values_match_recorded_values(measured, name):
    """checkpoint_T, seed and comm_cost exactly; each float within the tolerance."""
    header, *rows = measured["csv_values"][name]
    recorded_header, *recorded = VALUES[name]
    assert header == recorded_header
    assert len(rows) == len(recorded)
    floats = range(2, len(header) - 1)
    column_scale = {j: max(abs(row[j]) for row in recorded) for j in floats}
    for row, want in zip(rows, recorded):
        where = f"{name}, T = {want[0]}, seed {want[1]}"
        assert (row[0], row[1], row[-1]) == (want[0], want[1], want[-1]), where
        for j in floats:
            bound = RELATIVE_TOLERANCE * max(abs(want[j]), column_scale[j])
            assert abs(row[j] - want[j]) <= bound, f"{where}, {header[j]}: {row[j]!r}, recorded {want[j]!r}"
