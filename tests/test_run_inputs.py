"""No module under ``src/`` reads the process environment.

Flags and ``--config`` are the only inputs of a run, so two runs with the same
arguments produce the same bytes whatever the shell exports. A stdlib ``ast``
scan flags every read of ``os.environ`` or ``os.getenv``, including
``from os import environ`` and an aliased ``import os as o``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py"))
ENV_READERS = {"environ", "getenv", "environb", "getenvb"}


def environment_reads(tree: ast.Module) -> list[int]:
    """Lines that import or read an ``os`` environment accessor."""
    os_names = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names if alias.name == "os"}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            lines += [node.lineno for alias in node.names if alias.name in ENV_READERS]
        elif (isinstance(node, ast.Attribute) and node.attr in ENV_READERS
              and isinstance(node.value, ast.Name) and node.value.id in os_names):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_environment_reads(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = environment_reads(tree)
    assert not lines, f"{path.relative_to(ROOT)} reads the environment on lines {lines}"


def test_scan_finds_every_form():
    tree = ast.parse("import os\n"
                     "import os as system\n"
                     "from os import getenv, path\n"
                     "a = os.environ.get('X')\n"
                     "b = system.getenv('Y')\n"
                     "c = os.path.join('a', 'b')\n"
                     "d = environ = 1\n")
    assert environment_reads(tree) == [3, 4, 5]
