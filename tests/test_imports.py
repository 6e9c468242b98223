"""Every name a module imports is used in that module.

A stdlib ``ast`` scan over ``src/`` and ``tests/``. Package ``__init__.py``
files are exempt: their imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
                 if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import except ``from __future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = sorted(f"{name} (line {line})" for name, line in imported_names(tree).items()
                    if name not in used)
    assert not unused, f"{path.relative_to(ROOT)} imports unused names: {', '.join(unused)}"


def test_scan_flags_an_unused_import():
    tree = ast.parse("from dataclasses import field, replace\n"
                     "import os.path\n"
                     "import numpy as np\n"
                     "def f(x: np.ndarray):\n"
                     "    return replace(x)\n")
    names = imported_names(tree)
    assert sorted(n for n in names if n not in used_names(tree)) == ["field", "os"]
