"""The benchmark's inputs still load: every workload's configs, built through
perfbench/workloads.py as the benchmark builds them (preset_config with its
keywords, and the INI files under perfbench/scenarios), pass the loader and the
pre-round checks. Nothing is run."""

import importlib.util
from pathlib import Path

import pytest

import netoco.bench
from netoco.bench import validate_scenario

WORKLOADS_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()


@pytest.mark.parametrize("workload", ["rate-suite", "long-horizon", "dense-checkpoints"])
def test_every_config_of_a_workload_loads_and_validates(workload):
    configs = WORKLOADS.scenario_configs(netoco.bench, workload, 0)
    assert configs
    for config in configs:
        assert validate_scenario(config) == [], config.name
