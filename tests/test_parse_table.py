"""parse_libsvm fills one dense table in a single pass: the same errors, the same tables.

The bundled datasets' tables must be those filled row by row, bit for bit,
input too wide for memory must still be refused before its table is
allocated, and the bundled files must be what tools/make_datasets.py writes.
"""

import os
import re
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from netoco.bench import _load_dataset, preset_config
from netoco.problems import DatasetTable, ParseError, parse_libsvm

ROOT = Path(__file__).resolve().parent.parent

MALFORMED = [
    ("1 1:2\nx 1:2\n", "line 2: bad label 'x'"),
    ("nan 1:1\n", "line 1: non-finite label 'nan'"),
    ("1 -inf\n", "line 1: token '-inf' is not idx:val"),
    ("1 15\n", "line 1: token '15' is not idx:val"),
    ("1 a:1\n", "line 1: bad index in 'a:1'"),
    ("1 1:2 :3\n", "line 1: bad index in ':3'"),
    ("1 0:3\n", "line 1: index 0 < 1"),
    ("1 -2:3\n", "line 1: index -2 < 1"),
    ("1 1:1\n1 1:1 2:2\n1 2:2 2:3\n", "line 3: index 2 not increasing after 2"),
    ("1 3:1 3:2\n", "line 1: index 3 not increasing after 3"),
    ("1 1:zzz\n", "line 1: bad value in '1:zzz'"),
    ("1 1:2:3\n", "line 1: bad value in '1:2:3'"),
    ("1 1:inf\n", "line 1: non-finite value in '1:inf'"),
    ("1 2:nan\n", "line 1: non-finite value in '2:nan'"),
    # Blank lines count: the bad token is on line 5 of the text.
    ("\n\n1 1:2\r\n\n2 3:x\n", "line 5: bad value in '3:x'"),
    (b"\xff\xfe1 1:2\n", "input is not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    # int and float read digit separators and non-ASCII digits; no libsvm file holds them.
    ("1 1:2\n1_0 1_0:2_5\n", "line 2: digit separator '_' in '1_0 1_0:2_5'"),
    ("1 1:2_5\n", "line 1: digit separator '_' in '1 1:2_5'"),
    ("\u0661 1:2\n", "line 1: non-ASCII character in '\u0661 1:2'"),
    ("1 1:2\n2 \u0661:2\n", "line 2: non-ASCII character in '2 \u0661:2'"),
    # Only a leading byte-order mark is skipped.
    ("1 1:2\n\ufeff2 1:3\n", "line 2: non-ASCII character in '\\ufeff2 1:3'"),
]


@pytest.mark.parametrize(("text", "message"), MALFORMED)
def test_malformed_input_raises_its_message(text, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_libsvm(text)


def test_an_oversized_index_is_refused_before_the_table_is_allocated():
    tracemalloc.start()
    try:
        refused = r"^index 99999999999999 on line 1, over 2 rows, needs .* GiB of dense features"
        with pytest.raises(ParseError, match=refused):
            parse_libsvm("1 99999999999999:1\n2 1:1\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def row_by_row(text):
    """The bundled files' raw table, one dense row per line, filled entry by entry."""
    lines = [line.split() for line in text.splitlines() if line.split()]
    dimension = max(int(token.split(":")[0]) for tokens in lines for token in tokens[1:])
    features = np.zeros((len(lines), dimension))
    for row, tokens in zip(features, lines):
        for token in tokens[1:]:
            index, value = token.split(":")
            row[int(index) - 1] = float(value)
    return DatasetTable(features, np.array([float(tokens[0]) for tokens in lines]))


def assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


@pytest.mark.parametrize(("preset", "name"), [("mg-sc", "mg"), ("bodyfat-convex", "bodyfat")])
def test_bundled_tables_are_the_tables_filled_row_by_row(preset, name):
    text = resources.files("netoco").joinpath("data", f"{name}.libsvm").read_text(encoding="utf-8")
    raw = row_by_row(text)
    parsed = parse_libsvm(text)
    assert_same_bits(parsed.features, raw.features)
    assert_same_bits(parsed.targets, raw.targets)
    expected = raw.rescaled()
    table, dimension = _load_dataset(preset_config(preset))
    assert dimension == raw.features.shape[1]
    assert_same_bits(table.features, expected.features)
    assert_same_bits(table.targets, expected.targets)


def test_parsed_rows_are_one_raw_table():
    table = parse_libsvm("1.5 1:0.5 3:-0.0\n\n-2 2:4\n")
    assert isinstance(table, DatasetTable)
    assert_same_bits(table.features, np.array([[0.5, 0.0, -0.0], [0.0, 4.0, 0.0]]))
    assert_same_bits(table.targets, np.array([1.5, -2.0]))
    assert parse_libsvm("\n").features.shape == (0, 0)


@pytest.mark.parametrize("text", [b"1.5 1:0.5 3:-0.0\r\n-2 2:4\n", "1.5 1:0.5 3:-0.0\r\n-2 2:4\n"])
def test_a_leading_byte_order_mark_is_skipped(text):
    mark = b"\xef\xbb\xbf" if isinstance(text, bytes) else "\ufeff"
    table, plain = parse_libsvm(mark + text), parse_libsvm(text)
    assert_same_bits(table.features, plain.features)
    assert_same_bits(table.targets, plain.targets)


def test_the_generator_writes_the_bundled_files(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    child = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "make_datasets.py"), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    for name in ("mg", "bodyfat"):
        written = (tmp_path / f"{name}.libsvm").read_bytes()
        assert written == (ROOT / "src" / "netoco" / "data" / f"{name}.libsvm").read_bytes()
