"""The README's "Library use" example runs as written and prints finite SREG and CACV."""

import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_code():
    """The one fenced Python block of the README's "Library use" section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert len(blocks) == 1, f"{len(blocks)} python blocks in the Library use section"
    return blocks[0]


def test_the_library_use_example_prints_finite_sreg_and_cacv():
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(library_use_code(), str(README), "exec"), {"__name__": "readme_example"})
    lines = printed.getvalue().splitlines()
    scores = [re.fullmatch(r"T = (\d+): SREG (\S+), CACV (\S+)", line) for line in lines]
    assert lines and all(scores), lines
    assert [int(m[1]) for m in scores] == [256, 512, 1024]
    for match in scores:
        assert math.isfinite(float(match[2])) and math.isfinite(float(match[3])), match[0]
