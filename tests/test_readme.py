"""The README's library quick start runs, and each call returns the
value shown in the comment beneath it."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start():
    """The lines of the python block under ``## Library quick start``."""
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1).splitlines()


def test_quick_start_calls_return_the_values_shown():
    namespace = {}
    checked = []
    lines = [line for line in quick_start() if line.strip()]
    for line, after in zip(lines, lines[1:] + [""]):
        if line.startswith("#"):
            continue
        if after.startswith("# "):
            got = repr(eval(line, namespace))
            assert got == after[2:], line
            checked.append(line)
        else:
            exec(line, namespace)
    assert any("donaldson_phi" in line for line in checked)
    assert len(checked) >= 3
