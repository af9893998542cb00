"""The README's examples hold as written: the "Library use" example runs and prints finite
SREG and CACV, the scenario file validates and names the loader's keys, and the preset
table lists the presets' keys."""

import contextlib
import io
import math
import re
from pathlib import Path

from netoco import bench
from netoco.bench import load_config, validate_scenario

README = Path(__file__).resolve().parent.parent / "README.md"


def section(heading):
    """The README's text under heading, up to the next heading of any level."""
    text = README.read_text(encoding="utf-8")
    return re.split(r"\n#+ ", text.split(f"\n{heading}\n", 1)[1], maxsplit=1)[0]


def fenced_block(heading, language):
    """The one fenced block of the language in the section under heading."""
    blocks = re.findall(rf"```{language}\n(.*?)```", section(heading), re.DOTALL)
    assert len(blocks) == 1, f"{len(blocks)} {language} blocks under {heading!r}"
    return blocks[0]


def test_the_library_use_example_prints_finite_sreg_and_cacv():
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(fenced_block("## Library use", "python"), str(README), "exec"), {"__name__": "readme_example"})
    lines = printed.getvalue().splitlines()
    scores = [re.fullmatch(r"T = (\d+): SREG (\S+), CACV (\S+)", line) for line in lines]
    assert lines and all(scores), lines
    assert [int(m[1]) for m in scores] == [256, 512, 1024]
    for match in scores:
        assert math.isfinite(float(match[2])) and math.isfinite(float(match[3])), match[0]


def test_the_scenario_file_loads_and_validates(tmp_path):
    path = tmp_path / "readme.ini"
    path.write_text(fenced_block("### Scenario files", "ini"), encoding="utf-8")
    assert validate_scenario(load_config(path)) == []


def test_the_scenario_file_names_each_key_of_the_loader_once_in_its_section():
    """A key line, set or commented out ("; key = ..."), under each [section] header of the
    block; continuation comments are indented, so they name no key."""
    named, section_name = [], None
    for line in fenced_block("### Scenario files", "ini").splitlines():
        header = re.fullmatch(r"\[(\w+)\]", line)
        if header:
            section_name = header[1]
        elif key := re.match(r"(?:; )?(\w+) = ", line):
            named.append((section_name, key[1]))
    assert sorted(named) == sorted((name, key) for name, keys in bench._SECTIONS.items() for key in keys)


def test_the_preset_table_lists_each_preset_and_its_keys_in_order():
    text = section("### Scenario files")
    header, _, *rows = re.search(r"^\| Preset \|.*?\n(?!\|)", text, re.DOTALL | re.MULTILINE)[0].splitlines()
    sections = re.findall(r"`\[(\w+)\]`", header)
    table = {}
    for row in rows:
        name, *cells = [cell.strip() for cell in row.strip("|").split("|")]
        keys = {sec: dict(re.findall(r"`(\w+) = ([^`]+)`", cell)) for sec, cell in zip(sections, cells, strict=True)}
        table[name.strip("`")] = {sec: values for sec, values in keys.items() if values}
    assert list(table) == list(bench._PRESETS)
    assert table == bench._PRESETS
