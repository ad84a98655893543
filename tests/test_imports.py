"""Import and definition hygiene, by stdlib ast walks with no linter to install.

Every name a module of the package or the tests imports is read somewhere
in it, and every top-level function, class and constant of the package is
read by some file of the package, the tests or the benchmark. Both catch
what a deletion leaves behind. A module of the package imports only
modules below it in LAYERS, which keeps shared code, such as the face
layout in grid, from drifting up into the modules that use it.
"""

import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "ddvef").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
READERS = MODULES + sorted((ROOT / "perfbench").glob("*.py"))

#: The package's modules from the bottom up; modules of one layer may not import each other.
LAYERS = (("errors",), ("grid",), ("physics",), ("history",), ("iteration",), ("transport", "diffusion"), ("vef",))
RANK = {name: rank for rank, names in enumerate(LAYERS) for name in names}


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


def top_level_definitions(source: str) -> dict[str, int]:
    """Line of every top-level function, class and assigned name of a module, dunders aside."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                defined.update({n.id: node.lineno for n in ast.walk(target) if isinstance(n, ast.Name)})
    return {name: line for name, line in defined.items() if not (name.startswith("__") and name.endswith("__"))}


def read_names(source: str) -> set[str]:
    """Names a module reads: loaded names, attributes, imported names and
    string constants (the name monkeypatch.setattr(module, "name", ...) takes)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


@functools.cache
def names_read_anywhere() -> frozenset:
    return frozenset().union(*(read_names(path.read_text()) for path in READERS))


def test_dead_definitions_are_found():
    source = "import os\nA = 1\nB, _c = 2, 3\n__all__ = []\ndef f(): return A\nclass K: pass\ndef g(): pass\n"
    defined = top_level_definitions(source)
    assert defined == {"A": 2, "B": 3, "_c": 3, "f": 5, "K": 6, "g": 7}
    read = read_names(source) | read_names("from m import K\nsetattr(m, 'B', 0)\nm.f()\n")
    assert sorted(name for name in defined if name not in read) == ["_c", "g"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_definition_is_read(path):
    defined = top_level_definitions(path.read_text())
    assert [f"line {line}: {name}" for name, line in defined.items() if name not in names_read_anywhere()] == []


def package_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of every package module the source imports, relatively or by the package name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = (["ddvef"] if node.level else []) + (node.module.split(".") if node.module else [])
            paths = [base + [alias.name] for alias in node.names]
        else:
            continue
        found += [(node.lineno, path[1]) for path in paths if path[0] == "ddvef" and len(path) > 1]
    return found


def upward_imports(source: str, module: str) -> list[str]:
    """Package modules the source of module imports that are not below it in LAYERS."""
    rank = RANK.get(module, len(LAYERS))  # the package's __init__ sits above every layer
    return [f"line {line}: {name}" for line, name in package_imports(source) if not RANK.get(name, rank) < rank]


def test_upward_imports_are_found():
    source = "from .diffusion import x\nfrom . import grid\nimport ddvef.vef\nfrom ddvef.errors import E\nimport numpy\n"
    assert upward_imports(source, "history") == ["line 1: diffusion", "line 3: vef"]
    assert upward_imports("from .transport import x\n", "diffusion") == ["line 1: transport"]
    assert upward_imports(source, "vef") == ["line 3: vef"]
    assert upward_imports(source, "__init__") == []


def test_every_package_module_has_a_layer():
    assert sorted(path.stem for path in PACKAGE if path.stem != "__init__") == sorted(RANK)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_module_imports_only_lower_layers(path):
    assert upward_imports(path.read_text(), path.stem) == []
