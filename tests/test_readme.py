"""The README's examples hold as written: the "Library use" example runs and prints finite
SREG and CACV, the scenario file validates and names the loader's keys, the preset
table lists the presets' keys, and the kernel's table counts the rounds that check and
that pull."""

import contextlib
import io
import math
import re
from pathlib import Path

import netoco.algorithm as algorithm
from netoco import bench
from netoco.bench import load_config, preset_config, run_suite, validate_scenario

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


def test_the_kernel_table_counts_the_rounds_that_check_and_that_pull(monkeypatch, tmp_path):
    """Each preset of the table run at S = 3 and T = 2048 makes as many _project_rows calls
    (checks) and _clip calls (pulls) as the table says, so a lost skip fails here."""
    text = README.read_text(encoding="utf-8")
    pattern = r"^\| Preset \| Rounds that check \| Rounds that pull \|\n.*?\n(?!\|)"
    _, _, *rows = re.search(pattern, text, re.DOTALL | re.MULTILINE)[0].splitlines()
    table = {}
    for row in rows:
        name, checks, pulls = [cell.strip() for cell in row.strip("|").split("|")]
        table[name.strip("`")] = tuple(int(re.match(r"[\d,]+", cell)[0].replace(",", "")) for cell in (checks, pulls))
    assert len(table) == 8
    counts = {"check": 0, "pull": 0}
    project, clip = algorithm._project_rows, algorithm._clip

    def checking(*args):
        counts["check"] += 1
        return project(*args)

    def pulling(*args):
        counts["pull"] += 1
        return clip(*args)

    monkeypatch.setattr(algorithm, "_project_rows", checking)
    monkeypatch.setattr(algorithm, "_clip", pulling)
    ran = {}
    for name in table:
        counts.update(check=0, pull=0)
        run_suite(preset_config(name, seed_count=3, horizon=2048), out_dir=tmp_path)
        ran[name] = counts["check"], counts["pull"]
    assert ran == table
