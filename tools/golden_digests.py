"""SHA-256 digests of every preset's CSV, for the golden-output test.

Usage (from the repository root):

    PYTHONPATH=src python tools/golden_digests.py          # print them as JSON
    PYTHONPATH=src python tools/golden_digests.py --check  # compare with tests/golden_digests.json
    PYTHONPATH=src python tools/golden_digests.py --write  # replace tests/golden_digests.json

--check prints each preset whose digest differs from the recorded one (and a
numpy version mismatch) and exits 1 if there is any, 0 otherwise.

Runs all presets at T = 2048 with seeds 1 and 2 (the shortest horizon every
preset accepts) with BLAS pinned to one thread. The comparator's Gram matrix
is a BLAS product whose rounding depends on the thread count and on the
OpenBLAS kernel picked for the CPU, which the pin does not fix: the digests
hold on one thread and the kernel they were recorded on. The output and the
--check summary name the kernel that ran (blas_core). Write new digests only
from a commit whose CSV output is known to be right, and say why.
"""

from __future__ import annotations

import os

# The pins must be in the environment before numpy loads its BLAS.
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import ctypes
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from netoco.bench import list_presets, preset_config, run_suite

GOLDEN_FILE = Path(__file__).resolve().parent.parent / "tests" / "golden_digests.json"
HORIZON = 2048
SEED_COUNT = 2


def blas_core() -> str:
    """The kernel of numpy's bundled OpenBLAS (SkylakeX, Haswell, ...), or "unknown" without one."""
    try:
        [lib] = (Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so")
        corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
    except (ValueError, OSError, AttributeError):  # no bundled library, several, or no such symbol
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def digests() -> dict:
    with tempfile.TemporaryDirectory() as out_dir:
        csv = {}
        for name in list_presets():
            config = preset_config(name, seed_count=SEED_COUNT, horizon=HORIZON)
            path = run_suite(config, out_dir=out_dir).csv_path
            csv[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return dict(numpy=np.__version__, blas_core=blas_core(), horizon=HORIZON, seed_count=SEED_COUNT, csv_sha256=csv)


def differences(measured: dict, recorded: dict) -> list[str]:
    """One line per way measured differs from recorded: numpy version, then presets."""
    lines = []
    if measured["numpy"] != recorded["numpy"]:
        lines.append(f"numpy {measured['numpy']} (digests recorded with numpy {recorded['numpy']})")
    for name in sorted(set(measured["csv_sha256"]) | set(recorded["csv_sha256"])):
        got, want = measured["csv_sha256"].get(name), recorded["csv_sha256"].get(name)
        if got != want:
            lines.append(f"{name}: {got or 'missing'} (recorded {want or 'missing'})")
    return lines


def main(argv) -> int:
    if argv not in ([], ["--write"], ["--check"]):
        raise SystemExit(f"usage: {sys.argv[0]} [--check | --write]")
    measured = digests()
    if argv == ["--check"]:
        lines = differences(measured, json.loads(GOLDEN_FILE.read_text(encoding="utf-8")))
        for line in lines:
            print(line)
        print(f"{len(lines)} difference(s) from {GOLDEN_FILE.name} on OpenBLAS core {measured['blas_core']}")
        return 1 if lines else 0
    text = json.dumps(measured, indent=1, sort_keys=True) + "\n"
    if argv == ["--write"]:
        GOLDEN_FILE.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
