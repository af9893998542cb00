"""Golden output: every preset's CSV bytes, pinned to recorded SHA-256 digests.

golden_digests.json holds the digests tools/golden_digests.py printed for all
presets (T = 2048, seeds 1 and 2) and the numpy version that produced them.
The presets run in a child process, because the tool pins BLAS to one thread
before numpy loads. Floating-point results can change in the last bit between
numpy builds, so a different numpy version fails the test by name instead of
skipping it. The bytes also depend on the OpenBLAS kernel picked for the CPU,
which the thread pin does not fix, so a failing digest names the kernel it ran on.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDED = json.loads((ROOT / "tests" / "golden_digests.json").read_text(encoding="utf-8"))


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
