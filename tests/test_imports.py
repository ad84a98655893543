"""Import hygiene: every name a module imports is read somewhere in it.

A stdlib ast walk over the package and the tests; it catches the imports a
deletion leaves behind, with no linter to install.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "ddvef").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1]) if name not in read]


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nfrom __future__ import annotations\nprint(np.pi, d)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []
