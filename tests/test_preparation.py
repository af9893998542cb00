"""Scenario preparation: invalid configs come back as failures, data is parsed once,
and the round contracts hold without assertions."""

import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import netoco.bench
from netoco.algorithm import VARIANTS, variant_spec
from netoco.bench import ConfigError, ScenarioError, preset_config, run_suite, validate_scenario
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
    # The horizon as an override is checked in the loader, where one seed alone does not fit;
    # as a replaced field it reaches validation.
    with pytest.raises(ConfigError, match="horizon = 1000000000000000 for one seed, units = 6"):
        preset_config("synthetic-sc-bandit-rho1", horizon=10**15)
    config = replace(preset_config("synthetic-sc-bandit-rho1"), horizon=10**15)
    [failure] = validate_scenario(config)
    # 10 seeds x 10^15 rounds x 6 units x (4 + 1) values x 8 bytes.
    assert "horizon = 1000000000000000 with 10 seeds" in failure
    assert "2.235e+09 GiB of stream data" in failure
    assert "GiB of physical memory" in failure
    with pytest.raises(ScenarioError, match="physical memory"):
        run_suite(config, write=False)
    assert stream_calls == []


def test_a_horizon_too_long_for_one_seed_names_no_seed_count(stream_calls):
    """The default ten seeds were never given: the error names the horizon for one seed.
    A count that does not fit where one seed does is still named."""
    with pytest.raises(ConfigError) as caught:
        preset_config("synthetic-convex-c0.5", horizon=10**15)
    assert str(caught.value).startswith("horizon = 1000000000000000 for one seed, units = 6 and dimension = 4 needs")
    assert "seed_count" not in str(caught.value)
    with pytest.raises(ConfigError, match="^seed_count = 100000000000 with horizon = 64, units = 6"):
        preset_config("synthetic-convex-c0.5", seed_count=10**11, horizon=64)
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


def test_validate_rejects_dataset_targets_that_overflow_as_run_does(tmp_path, capsys):
    (tmp_path / "huge.libsvm").write_text("1e200 1:0.5 2:1\n1 1:1 2:-1\n2 1:0 2:0.25\n", encoding="utf-8")
    path = tmp_path / "huge.ini"
    path.write_text(
        "[problem]\nsource = dataset\ndataset = huge.libsvm\n"
        "[algorithm]\nvariant = convex-full\nc = 0.5\nhorizon = 64\n[run]\nseed_count = 1\n",
        encoding="utf-8",
    )
    assert main(["validate", str(path)]) == 2
    validated = capsys.readouterr()
    assert validated.out == ""
    [failure] = validated.err.splitlines()
    assert failure.startswith("fail: dataset rows: realized bounds G = ")
    assert "G^2 = inf and C = inf" in failure
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: " + failure[len("fail: "):] + "\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_dataset_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys, command):
    data = tmp_path / "utf16.libsvm"
    data.write_bytes(b"\xff\xfe1 1:2\n")
    path = tmp_path / "utf16.ini"
    path.write_text(
        "[problem]\nsource = dataset\ndataset = utf16.libsvm\n"
        "[algorithm]\nvariant = convex-full\nc = 0.5\nhorizon = 64\n[run]\nseed_count = 1\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main([command, str(path)] + (["--out", str(out)] if command == "run" else [])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"dataset {data}: input is not valid UTF-8: 'utf-8' codec can't decode byte 0xff" in captured.err
    assert not out.exists()


# The keys item 4 of the roadmap names, by section.
DRAWN_KEYS = {"lower": "constraints", "upper": "constraints", "radius": "constraints",
              "rho": "problem", "a": "algorithm", "c": "algorithm"}


def signed_magnitudes(usual_sign):
    """Log-uniform from 1e-300 to 1e300, with either sign; the key's usual sign three times in four."""
    signs = st.sampled_from([usual_sign] * 3 + [-usual_sign])
    return st.tuples(signs, st.floats(-300.0, 300.0)).map(lambda drawn: drawn[0] * 10.0 ** drawn[1])


DRAWN_VALUES = {key: signed_magnitudes(-1.0 if key == "lower" else 1.0) for key in DRAWN_KEYS}


@st.composite
def scenario_files(draw):
    """INI text: synthetic data, one seed, T <= 64, any variant, drawn keys.

    A key the variant needs (c for convex variants, rho for strongly convex
    ones) is always drawn and one it refuses (c for strongly convex ones) never
    written, so that a fair share of files pass validate; each other key is
    drawn or left at its default.
    """
    variant = draw(st.sampled_from(VARIANTS))
    strongly = variant_spec(variant).strongly_convex
    needed = {"rho"} if strongly else {"c"}
    optional = set(DRAWN_KEYS) - needed - ({"c"} if strongly else set())
    drawn = draw(
        st.fixed_dictionaries(
            {key: DRAWN_VALUES[key] for key in sorted(needed)},
            optional={key: DRAWN_VALUES[key] for key in sorted(optional)},
        )
    )
    sections = {
        "problem": {},
        "constraints": {},
        "algorithm": {"variant": variant, "horizon": str(draw(st.integers(1, 64)))},
        "run": {"seed_count": "1"},
    }
    for key, value in drawn.items():
        sections[DRAWN_KEYS[key]][key] = repr(value)
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for name, keys in sections.items()
    )


def main_output(argv):
    """Exit code and standard error of netoco's main, run in this process."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(scenario_files())
# Rounding at radius 1e5 exceeded an absolute containment tolerance of 1e-12.
@example("[problem]\nrho = 1.0\n[constraints]\nradius = 100000.0\n[algorithm]\n"
         "variant = strongly-convex-bandit\nhorizon = 5\n[run]\nseed_count = 1\n")
# eta_1 = 2 p G^2 / (2 rho) overflowed at the realized G; validate had checked G = 1.
@example("[problem]\nrho = 1e-195\n[constraints]\nradius = 1e+56\n[algorithm]\n"
         "variant = strongly-convex-full\nhorizon = 1\n[run]\nseed_count = 1\n")
# a p G^2 overflowed in beta_1's denominator, so beta_1 passed the check as 0.0.
@example("[problem]\n[constraints]\nupper = 1e+153\n[algorithm]\nvariant = convex-full\nhorizon = 1\n"
         "c = 0.1\na = 10.0\n[run]\nseed_count = 1\n")
def test_validate_accepts_exactly_what_run_can_run(text):
    """What validate passes, run runs to a CSV of finite numbers; what it fails,
    run fails with the same message; neither prints a traceback or a warning."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "drawn.ini"
        path.write_text(text, encoding="utf-8")
        out = Path(directory) / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning raises out of main
            validated, validate_err = main_output(["validate", str(path)])
            ran, run_err = main_output(["run", str(path), "--out", str(out)])
        assert "Traceback" not in validate_err + run_err and "Warning" not in validate_err + run_err
        if validated == 0:
            assert (ran, run_err) == (0, "")
            rows = (out / "drawn.csv").read_text(encoding="utf-8").splitlines()[1:]
            values = [float(v) for row in rows for v in row.split(",") if v != "mean"]
            assert values and all(math.isfinite(v) for v in values)
        else:
            assert (validated, ran) == (2, 2)
            if validate_err.startswith("error: "):  # the file itself was rejected
                assert run_err == validate_err
            else:
                failures = [line.removeprefix("fail: ") for line in validate_err.splitlines()]
                assert run_err == "error: " + "; ".join(failures) + "\n"
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
