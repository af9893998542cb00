"""`netoco run` on a scenario file checks its overrides exactly as on a preset,
and a zero override fails in the words of the zero key it replaces. The loader
takes the overrides, so a config is checked once, with them in place."""

import os

import pytest

from netoco import bench
from netoco.bench import ConfigError, load_config
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
        ["run", str(scenario_file), "--seed-count", "2", "--horizon", "8", "--out", str(out)]
    )
    assert code == 0
    assert "scenario: T=8 seeds=2" in capsys.readouterr().out
    rows = (out / "scenario.csv").read_text(encoding="utf-8").splitlines()
    assert {row.split(",")[1] for row in rows[1:]} == {"1", "2", "mean"}


@pytest.mark.parametrize(
    ("flag", "key", "text"),
    [
        ("--horizon", "horizon", "1_6"),
        ("--seed-count", "seed_count", "1_0"),
        ("--horizon", "horizon", "\u0661\u0666"),  # Arabic-Indic 16, which int() reads
        ("--seed-count", "seed_count", "\u0663"),
        ("--horizon", "horizon", "16.0"),
    ],
)
def test_run_reads_its_integer_flags_as_the_loader_reads_its_keys(scenario_file, tmp_path, capsys, flag, key, text):
    """A digit separator or another script's digits fail on the flag, exit 2, in the loader's
    words, on a preset run and a file run alike, before anything runs."""
    out = tmp_path / "out"
    for source in (["--preset", "synthetic-convex-c0.5"], [str(scenario_file)]):
        assert main(["run", *source, flag, text, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {key} must be an integer, got {text!r}\n"
    assert not out.exists()


def test_run_has_no_workers_flag(scenario_file, capsys):
    with pytest.raises(SystemExit) as raised:
        main(["run", str(scenario_file), "--workers", "1"])
    assert raised.value.code == 2
    assert "unrecognized arguments: --workers 1" in capsys.readouterr().err


# A file without a seed key, so the loader's default is 10 seeds.
NO_SEED_KEY = """\
[algorithm]
variant = convex-full
c = 0.5
horizon = {horizon}
"""


def test_the_loader_checks_a_seed_count_override_in_place_of_the_default_ten(tmp_path):
    """At this horizon one seed's stream takes a third of physical memory: ten seeds do not
    fit, and a seed_count of 1 is checked as one seed, not after ten were refused."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    path = tmp_path / "scenario.ini"
    path.write_text(NO_SEED_KEY.format(horizon=memory // (3 * 8 * 6 * 5)), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"^seed_count = 10 with horizon = \d+, units = 6"):
        load_config(path)
    assert load_config(path, seed_count=1).seeds == (1,)


def test_a_file_run_checks_its_overrides_not_the_keys_they_replace(tmp_path, capsys):
    """No host holds ten seeds at T = 10^12; the run's one seed at T = 16 is what is checked."""
    path = tmp_path / "scenario.ini"
    path.write_text(NO_SEED_KEY.format(horizon=10**12), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(path), "--seed-count", "1", "--horizon", "16", "--out", str(out)]) == 0
    assert "scenario: T=16 seeds=1" in capsys.readouterr().out


def test_a_preset_with_overrides_is_checked_once(monkeypatch):
    calls = {"rules": 0, "size": 0}
    rules, size = bench._rule_failures, bench._stream_failure

    def counted_rules(config):
        calls["rules"] += 1
        return rules(config)

    def counted_size(*args):
        calls["size"] += 1
        return size(*args)

    monkeypatch.setattr(bench, "_rule_failures", counted_rules)
    monkeypatch.setattr(bench, "_stream_failure", counted_size)
    config = bench.preset_config("mg-sc", seed_count=2, horizon=64, workers=1)
    assert (config.seeds, config.horizon) == ((1, 2), 64)
    assert calls == {"rules": 1, "size": 1}
