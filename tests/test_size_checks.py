"""Sizes that would exhaust memory exit 2 before anything of that size is allocated.

Each case runs the command line in a child process whose address space is
capped at 2 GiB, so a check that stops working ends in that child's
MemoryError rather than in the host running out of memory. The sizes are far
beyond any host's memory, so the outcome does not depend on where this runs.
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ADDRESS_SPACE = 2 << 30

SMALL_RUN = "[algorithm]\nvariant = convex-full\nc = 0.5\nhorizon = 64\n"


def cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def python(tmp_path, *argv):
    """sys.executable with argv, src on the path, one BLAS thread and the address space capped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["OPENBLAS_NUM_THREADS"] = "1"
    return subprocess.run(
        [sys.executable, *argv], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120, preexec_fn=cap_address_space,
    )


def netoco(tmp_path, *argv):
    return python(tmp_path, "-m", "netoco.cli", *argv)


CASES = {
    "seed_count key": (
        {"case.ini": SMALL_RUN + "[run]\nseed_count = 100000000000\n"},
        ["validate", "case.ini"],
        ["error: seed_count = 100000000000 with horizon = 64", "GiB of stream data"],
    ),
    "seed_count override": (
        {"case.ini": SMALL_RUN + "[run]\nseed_count = 1\n"},
        ["run", "case.ini", "--seed-count", "100000000000", "--out", "out"],
        ["error: seed_count = 100000000000 with horizon = 64", "GiB of stream data"],
    ),
    "explicit topology": (
        {"case.ini": "[problem]\nunits = 10000000\n[topology]\ngraphs = 1-2\n" + SMALL_RUN},
        ["validate", "case.ini"],
        ["error: explicit topology: 1 graph(s) on units = 10000000 nodes", "GiB of mixing weights"],
    ),
    "dataset width": (
        {
            "wide.libsvm": "1 4000000000000:1\n",
            "case.ini": "[problem]\nsource = dataset\ndataset = wide.libsvm\n" + SMALL_RUN
            + "[run]\nseeds = 1\n",
        },
        ["validate", "case.ini"],
        ["fail: dataset wide.libsvm: index 4000000000000 on line 1", "GiB of dense features"],
    ),
    "dimension with seed_count": (
        {"case.ini": "[problem]\ndimension = 1000000000000\n" + SMALL_RUN + "[run]\nseed_count = 1\n"},
        ["validate", "case.ini"],
        ["error: horizon = 64 for one seed, units = 6 and dimension = 1000000000000"],
    ),
    "dimension with the default seed count": (
        {"case.ini": "[problem]\ndimension = 1000000000000\n" + SMALL_RUN},
        ["validate", "case.ini"],
        ["error: horizon = 64 for one seed, units = 6 and dimension = 1000000000000"],
    ),
    "dimension with seeds": (
        {"case.ini": "[problem]\ndimension = 1000000000000\n" + SMALL_RUN + "[run]\nseeds = 1\n"},
        ["validate", "case.ini"],
        ["fail: horizon = 64 with 1 seeds, units = 6 and dimension = 1000000000000"],
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_size_beyond_memory_exits_2_naming_its_key(tmp_path, case):
    files, argv, expected = CASES[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    child = netoco(tmp_path, *argv)
    assert child.returncode == 2, child.stderr
    assert "Traceback" not in child.stderr
    for text in expected:
        assert text in child.stderr
    assert "GiB of physical memory" in child.stderr
    assert not (tmp_path / "out").exists()


# Rules that fail beside a seed_count far beyond memory, as more [algorithm] keys or a
# [problem] section: the rules are checked first, so the size estimate never sees a
# horizon, unit count or dimension below 1.
RULE_CASES = {
    "zero horizon": ("horizon = 0\n", "error: horizon must be >= 1, got 0"),
    "negative horizon": ("horizon = -3\n", "error: horizon must be >= 1, got -3"),
    "zero units": ("[problem]\nunits = 0\n", "error: units must be >= 1, got 0"),
    "negative dimension": ("[problem]\ndimension = -2\n", "error: dimension must be >= 1, got -2"),
}


@pytest.mark.parametrize("case", sorted(RULE_CASES))
def test_a_rule_failure_comes_before_the_seed_list(tmp_path, case):
    keys, expected = RULE_CASES[case]
    (tmp_path / "case.ini").write_text(
        "[algorithm]\nvariant = convex-full\nc = 0.5\n" + keys
        + "[run]\nseed_count = 100000000000\n",
        encoding="utf-8",
    )
    child = netoco(tmp_path, "validate", "case.ini")
    assert child.returncode == 2, child.stderr
    assert "Traceback" not in child.stderr
    assert child.stderr.startswith(expected)


REPLACED_OVERRIDE = """\
import sys
from dataclasses import replace
from netoco.bench import ConfigError, apply_overrides, preset_config

config = replace(preset_config("synthetic-convex-c0.5", seed_count=1), {field}=0)
try:
    apply_overrides(config, seed_count=100000000000)
except ConfigError as exc:
    sys.exit(f"error: {{exc}}")
"""


@pytest.mark.parametrize(
    ("field", "expected"),
    [("horizon", "horizon must be >= 1, got 0"), ("n_units", "units must be >= 1, got 0")],
)
def test_a_seed_count_override_checks_the_rules_of_a_replaced_config(tmp_path, field, expected):
    child = python(tmp_path, "-c", REPLACED_OVERRIDE.format(field=field))
    assert child.returncode == 1, child.stderr
    assert child.stderr.startswith(f"error: {expected}")

