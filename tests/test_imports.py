"""Every name a module imports is used in that module, and every re-export is read.

A stdlib ``ast`` scan over ``src/`` and ``tests/``. Package ``__init__.py``
files are exempt from the first check: their imports are the package's
re-exports, and each of those must be read through the package namespace
(``from modalpanoptic import X`` or ``mp.X``) by a demo or a test.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
                 if p.name != "__init__.py")
PACKAGE = "modalpanoptic"
READERS = sorted(p for d in ("demos", "tests") for p in (ROOT / d).rglob("*.py"))


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


def package_reads(tree: ast.Module) -> set[str]:
    """Names read through the package namespace: ``from modalpanoptic import X`` and ``mp.X``."""
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names if alias.name == PACKAGE}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == PACKAGE and not node.level:
            names.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            names.add(node.attr)
    return names


def test_every_reexport_is_read():
    init = ROOT / "src" / PACKAGE / "__init__.py"
    exported = set(imported_names(ast.parse(init.read_text(encoding="utf-8"))))
    read = set().union(*(package_reads(ast.parse(p.read_text(encoding="utf-8")))
                         for p in READERS))
    assert sorted(exported - read) == [], "re-exported but read by no demo or test"


def test_scan_finds_package_reads():
    tree = ast.parse("import modalpanoptic as mp\n"
                     "from modalpanoptic import cli, SceneConfig\n"
                     "from modalpanoptic.voxels import voxelize\n"
                     "mp.GridSpec(); cli.main(); voxelize.x\n")
    assert package_reads(tree) == {"cli", "SceneConfig", "GridSpec"}
