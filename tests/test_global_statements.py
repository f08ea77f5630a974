"""Module state lives in one place: the only ``global`` statement in locdec
is the one in ``graphs.geometry``, which keeps the (graph, identities)
pair every input-free cache hangs off."""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _global_sites(path: Path) -> list[tuple[str, str]]:
    """(module path, enclosing function) of every ``global`` statement."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    sites = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Global):
                sites.append((path.relative_to(SRC).as_posix(), scope))
            inner = (child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                else scope)
            visit(child, inner)

    visit(tree, "<module>")
    return sites


def test_the_only_global_statement_is_the_geometry_memo():
    paths = sorted((SRC / "locdec").rglob("*.py"))
    assert paths
    sites = [site for path in paths for site in _global_sites(path)]
    assert sites == [("locdec/graphs.py", "geometry")]
