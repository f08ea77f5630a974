"""No locdec module imports a private name from another locdec module."""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _private_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "locdec":
            continue  # a module from outside the package
        for alias in node.names:
            name = alias.name
            # Dunder names such as __version__ are public by convention.
            if name.startswith("_") and not name.endswith("__"):
                hits.append(f"{path.relative_to(SRC)}:{node.lineno}: {name}")
    return hits


def test_no_private_cross_module_imports():
    paths = sorted((SRC / "locdec").rglob("*.py"))
    assert paths
    assert [hit for path in paths for hit in _private_imports(path)] == []
