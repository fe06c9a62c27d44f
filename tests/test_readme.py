"""The README's library example runs as written, so the entry points it
documents stay importable."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1, "expected one python block under 'Library entry points'"
    return blocks[0]


def test_library_example_runs():
    exec(compile(library_example(), str(README), "exec"), {})
