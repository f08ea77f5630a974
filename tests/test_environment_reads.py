"""The game reads no environment: every knob is an argument.  An AST scan
of the package fails on any read of ``os.environ`` or ``os.getenv``, and
on importing either from ``os``, so a hidden setting cannot come back."""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(source: str) -> list[int]:
    """Sorted lines of every environment read or import in ``source``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "os"
              and any(alias.name in ENVIRONMENT for alias in node.names)):
            lines.append(node.lineno)
    return sorted(lines)


def test_no_module_reads_the_environment():
    paths = sorted((SRC / "locdec").rglob("*.py"))
    assert paths
    reads = {path.relative_to(SRC).as_posix():
             _environment_reads(path.read_text(encoding="utf-8"))
             for path in paths}
    assert {where: lines for where, lines in reads.items() if lines} == {}


def test_the_scan_sees_each_form():
    assert _environment_reads("import os\n"
                              "from os import environ, getenv\n"
                              "a = os.environ.get('A')\n"
                              "b = os.getenv('B')\n"
                              "c = os.path.join('a', 'b')\n") == [2, 3, 4]
