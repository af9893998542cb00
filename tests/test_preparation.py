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
from netoco.cli import main

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


@pytest.fixture
def stream_calls(monkeypatch):
    calls = []
    monkeypatch.setattr(netoco.bench, "synthetic_stream", lambda *args: calls.append(args))
    return calls


def test_streams_larger_than_memory_are_a_failure(stream_calls):
    config = preset_config("synthetic-sc-bandit-rho1", horizon=10**15)
    [failure] = validate_scenario(config)
    # 10 seeds x 10^15 rounds x 6 units x (4 + 1) values x 8 bytes.
    assert "horizon = 1000000000000000 with 10 seeds" in failure
    assert "2.235e+09 GiB of stream data" in failure
    assert "GiB of physical memory" in failure
    with pytest.raises(ScenarioError, match="physical memory"):
        run_suite(config, write=False)
    assert stream_calls == []


def test_run_with_a_horizon_too_long_for_memory_exits_2(stream_calls, tmp_path, capsys):
    argv = ["run", "--preset", "synthetic-convex-c0.5", "--horizon", "1000000000000000"]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "physical memory" in capsys.readouterr().err
    assert stream_calls == []
    assert list(tmp_path.iterdir()) == []


BOX_BEYOND_FLOATS = """\
[constraints]
lower = -{bound}
upper = {bound}

[algorithm]
variant = convex-full
c = 0.5
horizon = 64

[run]
seed_count = 1
"""


# Under the suite's filterwarnings = error, a numpy warning would raise out of main.
@pytest.mark.parametrize("bound", ["1e308", "1e200"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_box_whose_radius_overflows_exits_2_naming_the_keys(tmp_path, capsys, command, bound):
    path = tmp_path / "huge-box.ini"
    path.write_text(BOX_BEYOND_FLOATS.format(bound=bound), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, str(path)] + (["--out", str(out)] if command == "run" else [])) == 2
    captured = capsys.readouterr()
    assert "lower/upper/radius/rho too large" in captured.err
    assert "Traceback" not in captured.err and "Warning" not in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_realized_bounds_that_overflow_exit_2_naming_the_keys(tmp_path, capsys):
    (tmp_path / "huge-target.libsvm").write_text("1e200 1:0.5 2:1\n0 1:1 2:-1\n", encoding="utf-8")
    path = tmp_path / "huge-target.ini"
    path.write_text(
        "[problem]\nsource = dataset\ndataset = huge-target.libsvm\n"
        "[algorithm]\nvariant = convex-full\nc = 0.5\nhorizon = 64\n[run]\nseed_count = 1\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "G^2 = inf" in err and "lower/upper/radius, rho" in err
    assert "Traceback" not in err and "Warning" not in err
    assert not out.exists()


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
