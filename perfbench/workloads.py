"""The benchmark's workloads, as netoco scenario configs.

This module imports only the standard library until ``import_netoco`` runs, so
``setup_probe.py`` times netoco's own set-up and none of the runner's. NOTES.md
gives the reason for each workload.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Workload seeds whose CSV digests digests.json holds.
RECORDED_SEEDS = range(24)

# Named here rather than taken from netoco's preset list, so that a preset
# added to or renamed in netoco cannot change the workload.
RATE_SUITE_PRESETS = (
    "synthetic-convex-c0.5",
    "synthetic-bandit-c0.5",
    "synthetic-convex-c0.75",
    "synthetic-bandit-c0.75",
    "synthetic-sc-rho1",
    "synthetic-sc-bandit-rho1",
    "synthetic-sc-rho2",
    "synthetic-sc-bandit-rho2",
)


def import_netoco():
    """Import netoco.bench, the entry points, from this checkout's src/ only."""
    src = ROOT / "src"
    if not (src / "netoco" / "__init__.py").is_file():
        raise SystemExit(f"error: netoco sources not found under {src}")
    sys.path.insert(0, str(src))
    import netoco.bench

    if Path(netoco.__file__).resolve().parent != (src / "netoco").resolve():
        raise SystemExit(f"error: imported netoco from {netoco.__file__}, not from {src}")
    return netoco.bench


def _rate_suite(api):
    return [api.preset_config(n, seed_count=3, horizon=2048, workers=1) for n in RATE_SUITE_PRESETS]


def _long_horizon(api):
    return [api.preset_config("synthetic-sc-bandit-rho1", seed_count=1, horizon=2**13, workers=1)]


def _dense_checkpoints(api):
    return [api.load_config(path) for path in sorted((BENCH_DIR / "scenarios").glob("*.ini"))]


WORKLOADS = {
    "rate-suite": _rate_suite,
    "long-horizon": _long_horizon,
    "dense-checkpoints": _dense_checkpoints,
}


def scenario_configs(api, workload: str, seed: int):
    """The workload's configs, each data seed offset by the workload seed."""
    return [replace(c, data_seed=c.data_seed + seed) for c in WORKLOADS[workload](api)]
