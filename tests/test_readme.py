"""The README's library example runs as written, and the package root
exports exactly the entry points it imports."""

import re
import types
from pathlib import Path

import iqy_dirac

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1, "expected one python block under 'Library entry points'"
    return blocks[0]


def test_library_example_runs():
    exec(compile(library_example(), str(README), "exec"), {})


def test_root_exports_the_documented_names():
    imported = re.search(r"from iqy_dirac import \((.*?)\)", library_example(), flags=re.S).group(1)
    documented = {name.strip() for name in imported.split(",") if name.strip()}
    public = {
        name
        for name, value in vars(iqy_dirac).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == documented
