"""`netoco run` on a scenario file checks its overrides exactly as on a preset,
and a zero override fails in the words of the zero key it replaces."""

import pytest

from netoco.cli import main

SCENARIO = """\
[algorithm]
variant = convex-full
c = 0.5
horizon = 16

[run]
seeds = 4 5 6
"""


# The scenario with one key of [algorithm] or [run] set to zero.
ZERO_KEY = """\
[algorithm]
variant = convex-full
c = 0.5
{algorithm}
[run]
{run}
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(SCENARIO, encoding="utf-8")
    return path


@pytest.mark.parametrize(
    ("flag", "section", "message"),
    [
        ("--seed-count", "run", "seed_count must be >= 1, got 0"),
        ("--horizon", "algorithm", "horizon must be >= 1, got 0"),
        ("--workers", "run", "workers must be >= 1, got 0"),
    ],
)
def test_file_run_rejects_a_zero_override_like_a_preset_run(
    scenario_file, tmp_path, capsys, flag, section, message
):
    out = str(tmp_path / "out")
    assert main(["run", "--preset", "mg-sc", flag, "0", "--out", out]) == 2
    preset_error = capsys.readouterr().err
    assert main(["run", str(scenario_file), flag, "0", "--out", out]) == 2
    file_error = capsys.readouterr().err
    keyed = tmp_path / "keyed.ini"
    key = flag[2:].replace("-", "_") + " = 0"
    keyed.write_text(ZERO_KEY.format(**{"algorithm": "", "run": "", section: key}), encoding="utf-8")
    assert main(["run", str(keyed), "--out", out]) == 2
    key_error = capsys.readouterr().err
    assert file_error == preset_error == key_error == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_file_run_applies_the_overrides(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["run", str(scenario_file), "--seed-count", "2", "--horizon", "8", "--workers", "3",
         "--out", str(out)]
    )
    assert code == 0
    assert "scenario: T=8 seeds=2" in capsys.readouterr().out
    rows = (out / "scenario.csv").read_text(encoding="utf-8").splitlines()
    assert {row.split(",")[1] for row in rows[1:]} == {"1", "2", "mean"}
