"""The demos, README's python blocks and pmvl.__all__ import only names that pmvl
defines; checked statically, nothing runs."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import pmvl

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                           re.DOTALL | re.MULTILINE)
# test id: source text
SOURCES = {path.stem: path.read_text() for path in DEMOS}
SOURCES.update((f"README_block_{i}", block) for i, block in enumerate(README_BLOCKS))
# every export must resolve, so a deleted function cannot linger in __all__
SOURCES["pmvl_all"] = f"from pmvl import ({', '.join(pmvl.__all__)})"


def pmvl_imports(source):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pmvl":
            for alias in node.names:
                yield node.module, alias.name


def test_demos_exist():
    assert DEMOS
    assert README_BLOCKS


@pytest.mark.parametrize("demo", sorted(SOURCES))
def test_demo_imports_resolve(demo):
    names = list(pmvl_imports(SOURCES[demo]))
    assert names, f"{demo} imports nothing from pmvl"
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), f"{demo}: {module}.{name}"
