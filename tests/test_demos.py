"""The demos import only names that pmvl defines; checked statically, nothing runs."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def pmvl_imports(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pmvl":
            for alias in node.names:
                yield node.module, alias.name


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_resolve(demo):
    names = list(pmvl_imports(demo))
    assert names, f"{demo.name} imports nothing from pmvl"
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), f"{demo.name}: {module}.{name}"
