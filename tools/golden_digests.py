"""SHA-256 digests of every preset's CSV, and its rows as numbers, for the golden-output tests.

Usage (from the repository root):

    PYTHONPATH=src python tools/golden_digests.py          # print both as JSON
    PYTHONPATH=src python tools/golden_digests.py --check  # compare the digests with tests/golden_digests.json
    PYTHONPATH=src python tools/golden_digests.py --write  # replace tests/golden_digests.json and golden_values.json

--check prints each preset whose digest differs from the recorded one (and a
numpy version mismatch) and exits 1 if there is any, 0 otherwise. The printed
JSON is the digest record with one more key, csv_values: each preset's CSV as
rows of numbers, the header first, the seed column an int or "mean". The
digests pin the bits; tests/test_golden.py holds the values to
tests/golden_values.json within a relative tolerance, which pins the numbers.

Runs all presets at T = 2048 with seeds 1 and 2 (the shortest horizon every
preset accepts) with BLAS pinned to one thread. Four BLAS calls on the path
to a CSV round by the OpenBLAS kernel picked for the CPU, which the pin does
not fix (the README's "Determinism" section has the measurements): the
comparator's Gram product and cross term, whose rounding also depends on the
thread count; the row dot of the bandit directions (algorithm._sphere_block);
the mix's np.matmul on the round's weights; and synthetic_stream's per-unit
gemv for the targets. So the digests hold on one thread and the kernel they
were recorded on. The output and the --check summary name the kernel that
ran (blas_core). Write new digests only from a commit whose CSV output is
known to be right, and say why.
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
VALUES_FILE = GOLDEN_FILE.with_name("golden_values.json")
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


def csv_rows(text: str) -> list[list]:
    """A CSV's header, then each row as numbers: ints for checkpoint_T, seed (or "mean") and comm_cost."""
    header, *rows = (line.split(",") for line in text.splitlines())
    numbers = [
        [int(T), seed if seed == "mean" else int(seed), *map(float, floats), int(comm)]
        for T, seed, *floats, comm in rows
    ]
    return [header] + numbers


def measure() -> tuple[dict, dict]:
    """The digest record and each preset's rows as numbers, from one run of every preset."""
    with tempfile.TemporaryDirectory() as out_dir:
        csv, values = {}, {}
        for name in list_presets():
            config = preset_config(name, seed_count=SEED_COUNT, horizon=HORIZON)
            blob = run_suite(config, out_dir=out_dir).csv_path.read_bytes()
            csv[name] = hashlib.sha256(blob).hexdigest()
            values[name] = csv_rows(blob.decode("utf-8"))
    record = dict(numpy=np.__version__, blas_core=blas_core(), horizon=HORIZON, seed_count=SEED_COUNT, csv_sha256=csv)
    return record, values


def values_text(values: dict) -> str:
    """values as JSON with one CSV row a line; json writes floats by repr, so they read back exactly."""
    presets = (
        f" {json.dumps(name)}: [\n" + ",\n".join(f"  {json.dumps(row)}" for row in rows) + "\n ]"
        for name, rows in sorted(values.items())
    )
    return "{\n" + ",\n".join(presets) + "\n}\n"


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
    measured, values = measure()
    if argv == ["--check"]:
        lines = differences(measured, json.loads(GOLDEN_FILE.read_text(encoding="utf-8")))
        for line in lines:
            print(line)
        print(f"{len(lines)} difference(s) from {GOLDEN_FILE.name} on OpenBLAS core {measured['blas_core']}")
        return 1 if lines else 0
    if argv == ["--write"]:
        # The kernel is reported (above, and by a failing test), not recorded.
        recorded = {key: value for key, value in measured.items() if key != "blas_core"}
        GOLDEN_FILE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        VALUES_FILE.write_text(values_text(values), encoding="utf-8")
    else:
        sys.stdout.write(json.dumps({**measured, "csv_values": values}, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
