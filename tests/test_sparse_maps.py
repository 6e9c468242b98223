"""No module under ``src/`` densifies a sparse grid.

First-stage maps and BEV feature maps are held as ``SparseGrid`` keys plus
values, and the library reads them with ``SparseGrid.at`` or writes its keys
and values as they are. ``SparseGrid.dense`` is there for tests and oracles,
which compare against dense references. A stdlib ``ast`` scan flags every
call of a ``.dense`` attribute, also one wrapped in a property or helper.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py"))


def dense_calls(tree: ast.Module) -> list[int]:
    """Lines that call an attribute named ``dense``."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "dense")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_dense_calls(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = dense_calls(tree)
    assert not lines, f"{path.relative_to(ROOT)} densifies a sparse grid on lines {lines}"


def test_scan_finds_every_call():
    tree = ast.parse("a = grid.dense()\n"
                     "b = maps.boxes.dense()\n"
                     "c = grid.dense\n"
                     "d = dense()\n"
                     "e = getattr(maps, 'boxes').dense()\n"
                     "def dense(self): pass\n")
    assert dense_calls(tree) == [1, 2, 5]
