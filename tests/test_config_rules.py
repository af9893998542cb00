"""One set of rules for a config's fields: a config made with dataclasses.replace
fails validate_scenario, run_suite and apply_overrides in the words a scenario
file fails load_config."""

from dataclasses import replace

import numpy as np
import pytest

from netoco.bench import (
    ConfigError,
    ScenarioError,
    apply_overrides,
    load_config,
    preset_config,
    run_suite,
    validate_scenario,
)

# preset_config("synthetic-convex-c0.5", seed_count=1, horizon=64) as a file.
BASE_KEYS = {
    "problem": {},
    "constraints": {},
    "algorithm": {"variant": "convex-full", "c": "0.5", "horizon": "64"},
    "run": {"seeds": "1"},
}

# id: (fields replaced, the same values as file keys, the failures both give)
CASES = {
    "negative data seed": (
        {"data_seed": -5}, {"problem": {"seed": "-5"}}, ["seed must be >= 0, got -5"],
    ),
    "negative seed": ({"seeds": (-1,)}, {"run": {"seeds": "-1"}}, ["seeds must be >= 0, got -1"]),
    "unknown source": (
        {"source": "bogus"},
        {"problem": {"source": "bogus"}},
        ["problem source must be synthetic or dataset, got 'bogus'"],
    ),
    "repeated seed": ({"seeds": (1, 1)}, {"run": {"seeds": "1 1"}}, ["seeds must be distinct"]),
    "empty checkpoints": (
        {"checkpoints": ()},
        {"algorithm": {"checkpoints": ""}},
        ["checkpoints must not be empty; omit the key for the default grid"],
    ),
    "no workers": ({"workers": 0}, {"run": {"workers": "0"}}, ["workers must be >= 1, got 0"]),
    "empty box": (
        {"lower": 1.0, "upper": 0.0},
        {"constraints": {"lower": "1.0", "upper": "0.0"}},
        ["need lower < upper"],
    ),
    "no dimension": (
        {"dimension": 0}, {"problem": {"dimension": "0"}}, ["dimension must be >= 1, got 0"],
    ),
    "negative rho": ({"rho": -1.0}, {"problem": {"rho": "-1"}}, ["rho must be >= 0"]),
    "no units": (
        {"n_units": 0},
        {"problem": {"units": "0"}},
        ["units must be >= 1, got 0", "topology has 6 nodes but units = 0"],
    ),
}


def scenario_text(keys):
    sections = {name: dict(values) for name, values in BASE_KEYS.items()}
    for name, values in keys.items():
        sections.setdefault(name, {}).update(values)
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in values.items())
        for name, values in sections.items()
    )


@pytest.mark.parametrize("case", list(CASES))
def test_a_replaced_field_fails_as_its_file_key_does(tmp_path, case):
    changes, keys, expected = CASES[case]
    config = replace(preset_config("synthetic-convex-c0.5", seed_count=1, horizon=64), **changes)
    assert validate_scenario(config) == expected
    with pytest.raises(ScenarioError) as raised:
        run_suite(config, out_dir=tmp_path / "out")
    assert str(raised.value) == "; ".join(expected)
    assert not (tmp_path / "out").exists()
    with pytest.raises(ConfigError) as raised:
        apply_overrides(config, horizon=8)
    assert str(raised.value) == "; ".join(expected)
    path = tmp_path / "case.ini"
    path.write_text(scenario_text(keys), encoding="utf-8")
    with pytest.raises(ConfigError) as raised:
        load_config(path)
    assert str(raised.value) == "; ".join(expected)


# Values the loader cannot take as far as the rules: each failure still names its key.
FILE_ONLY_CASES = {
    "no units under explicit graphs": (
        {"problem": {"units": "0"}, "topology": {"graphs": "1-2"}},
        "explicit topology needs units >= 1 nodes, got units = 0",
    ),
    "dataset dimension that is no integer": (
        {"problem": {"source": "dataset", "dataset": "mg", "dimension": "abc"}},
        "dimension must be an integer, got 'abc'",
    ),
}


@pytest.mark.parametrize("case", list(FILE_ONLY_CASES))
def test_a_key_the_loader_stops_at_is_named(tmp_path, case):
    keys, expected = FILE_ONLY_CASES[case]
    path = tmp_path / "case.ini"
    path.write_text(scenario_text(keys), encoding="utf-8")
    with pytest.raises(ConfigError) as raised:
        load_config(path)
    assert str(raised.value) == expected


# Integer fields replaced by values with a fraction, or by floats: the loader parses only
# integers, so these reach the rules only through dataclasses.replace.
REPLACE_ONLY_CASES = {
    "dimension with a fraction": ({"dimension": 2.5}, ["dimension must be an integer, got 2.5"]),
    "seed entry with a fraction": ({"seeds": (1.5, 2)}, ["seeds must be an integer, got 1.5"]),
    "data seed with a fraction": ({"data_seed": 0.5}, ["seed must be an integer, got 0.5"]),
    "horizon with a fraction": ({"horizon": 64.5}, ["horizon must be an integer, got 64.5"]),
    "units as a float": ({"n_units": 6.0}, ["units must be an integer, got 6.0"]),
    "workers with a fraction": ({"workers": 1.5}, ["workers must be an integer, got 1.5"]),
    "checkpoint with a fraction": ({"checkpoints": (1, 2.5, 64)}, ["checkpoints must be an integer, got 2.5"]),
    "two negative seeds": ({"seeds": (-1, 2, -3)}, ["seeds must be >= 0, got -1", "seeds must be >= 0, got -3"]),
}


@pytest.mark.parametrize("case", list(REPLACE_ONLY_CASES))
def test_a_replaced_integer_field_fails_in_the_loaders_words(tmp_path, case):
    changes, expected = REPLACE_ONLY_CASES[case]
    config = replace(preset_config("synthetic-convex-c0.5", seed_count=2, horizon=64), **changes)
    assert validate_scenario(config) == expected
    with pytest.raises(ScenarioError) as raised:
        run_suite(config, out_dir=tmp_path / "out")
    assert str(raised.value) == "; ".join(expected)
    assert not (tmp_path / "out").exists()
    with pytest.raises(ConfigError) as raised:
        apply_overrides(config)
    assert str(raised.value) == "; ".join(expected)


# Float fields replaced by values that are no numbers: each fails in the loader's words for a
# key it cannot parse, and the rules that compare the field as a number are not reached.
NOT_A_NUMBER_CASES = {
    "rho as text": ({"rho": "1"}, ["rho must be a number, got '1'"]),
    "lower as text": ({"lower": "-0.15"}, ["lower must be a number, got '-0.15'"]),
    "upper as None": ({"upper": None}, ["upper must be a number, got None"]),
    "radius as text": ({"radius": "0.3"}, ["radius must be a number, got '0.3'"]),
    "c as text": ({"c": "0.5"}, ["c must be a number, got '0.5'"]),
    "a as None": ({"a": None}, ["a must be a number, got None"]),
    "two of them": ({"rho": "1", "a": "2"}, ["rho must be a number, got '1'", "a must be a number, got '2'"]),
}


@pytest.mark.parametrize("case", list(NOT_A_NUMBER_CASES))
def test_a_replaced_float_field_that_is_no_number_is_named(tmp_path, case):
    changes, expected = NOT_A_NUMBER_CASES[case]
    config = replace(preset_config("synthetic-convex-c0.5", seed_count=2, horizon=64), **changes)
    assert validate_scenario(config) == expected
    with pytest.raises(ScenarioError) as raised:
        run_suite(config, out_dir=tmp_path / "out")
    assert str(raised.value) == "; ".join(expected)
    assert not (tmp_path / "out").exists()
    with pytest.raises(ConfigError) as raised:
        apply_overrides(config)
    assert str(raised.value) == "; ".join(expected)


@pytest.mark.parametrize(
    ("seed_count", "expected"),
    [
        (1.5, "seed_count must be an integer, got 1.5"),
        ("2", "seed_count must be an integer, got '2'"),
        (0, "seed_count must be >= 1, got 0"),
    ],
    ids=["fraction", "text", "zero"],
)
def test_a_seed_count_override_fails_in_the_rules_words(seed_count, expected):
    """seed_count is read as the rules read an integer field; a numpy integer is one."""
    config = preset_config("synthetic-convex-c0.5", seed_count=2, horizon=64)
    with pytest.raises(ConfigError) as raised:
        apply_overrides(config, seed_count=seed_count)
    assert str(raised.value) == expected
    with pytest.raises(ConfigError) as raised:
        preset_config("synthetic-convex-c0.5", seed_count=seed_count, horizon=64)
    assert str(raised.value) == expected
    assert apply_overrides(config, seed_count=np.int64(3)).seeds == (1, 2, 3)
