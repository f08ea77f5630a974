"""No locdec module imports a private name from another locdec module, and
the layers import one way: protocols never import the game in ``engine``,
the game never imports the certificate kernel in ``schemes``, and the
reference answers in ``oracles`` import none of the machinery they judge."""
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


def _imported_modules(path: Path) -> set[str]:
    """Dotted names of the modules ``path`` imports, relative ones resolved;
    ``from a import b`` counts both ``a`` and ``a.b``."""
    package = list(path.relative_to(SRC).parts[:-1])
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def test_layers_import_one_way():
    locdec = SRC / "locdec"
    rules = [(path, "locdec.engine")
             for path in sorted((locdec / "protocols").glob("*.py"))]
    rules.append((locdec / "engine.py", "locdec.schemes"))
    rules += [(locdec / "oracles.py", f"locdec.{name}")
              for name in ("labels", "runtime", "protocol", "schemes",
                           "transforms", "engine", "protocols")]
    hits = [f"{path.relative_to(SRC)} imports {banned}"
            for path, banned in rules
            if any(m == banned or m.startswith(banned + ".")
                   for m in _imported_modules(path))]
    assert hits == []
