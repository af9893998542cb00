"""Scenario preparation: invalid configs come back as failures, data is parsed once,
and the round contracts hold without assertions."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import netoco.bench
from netoco.bench import ScenarioError, preset_config, run_suite, validate_scenario

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def parse_calls(monkeypatch):
    calls = []
    parse = netoco.bench.parse_libsvm

    def counting(text):
        calls.append(len(text))
        return parse(text)

    monkeypatch.setattr(netoco.bench, "parse_libsvm", counting)
    return calls


def test_a_dataset_run_parses_its_file_once(parse_calls):
    run_suite(preset_config("mg-convex", seed_count=1, horizon=32), write=False)
    assert len(parse_calls) == 1


def test_validation_alone_parses_the_dataset(parse_calls):
    assert validate_scenario(preset_config("bodyfat-sc")) == []
    assert len(parse_calls) == 1


def test_a_zero_horizon_is_a_failure_not_an_exception():
    config = replace(preset_config("synthetic-convex-c0.5"), horizon=0)
    failures = validate_scenario(config)
    assert any("horizon must be >= 1" in f for f in failures)
    with pytest.raises(ScenarioError, match="horizon"):
        run_suite(config, write=False)


def test_an_empty_seed_list_is_a_failure_not_an_exception():
    config = replace(preset_config("synthetic-sc-rho1", horizon=16), seeds=())
    assert validate_scenario(config) == ["seeds must not be empty"]
    with pytest.raises(ScenarioError, match="seeds must not be empty"):
        run_suite(config, write=False)


def test_containment_check_survives_optimized_mode():
    script = (
        "import numpy as np\n"
        "from netoco.algorithm import _check_in_ball\n"
        "if __debug__:\n"
        "    raise SystemExit('not running under -O')\n"
        "try:\n"
        "    _check_in_ball(np.array([[0.0, 0.0], [2.0, 0.0]]), 1.0)\n"
        "except RuntimeError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    raise SystemExit('a row outside the ball passed')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    child = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stderr
    assert "containment broken" in child.stdout
