"""``src`` holds only what the program runs: every top-level function and
class in locdec is named by some ``ast.Name``, attribute or import in
``src/locdec`` or ``perfbench/`` outside its own definition, and every
public method or property of its classes by some attribute read there.
Code that only the tests call lives with the tests (``tests/corpus.py``,
``tests/reference.py``).

A name check cannot tell a definition from another of the same name, so
it misses, for instance, a method that shares its name with an attribute
the program reads on another class; it never flags what the program
uses."""
from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "locdec"
# Run without being named in the program: the console script that
# pyproject.toml declares.
ENTRY_POINTS = {"cli.py::main"}


def _names(node: ast.AST) -> tuple[Counter, Counter]:
    """Every name ``node`` reads (each ``ast.Name``, attribute and import),
    and the attributes among them."""
    names, attributes = Counter(), Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names[child.id] += 1
        elif isinstance(child, ast.Attribute):
            names[child.attr] += 1
            attributes[child.attr] += 1
        elif isinstance(child, ast.alias):
            names[child.name.rpartition(".")[2]] += 1
    return names, attributes


def _definitions(path: Path, tree: ast.Module):
    """(label, node) of each top-level function and class in ``tree`` and
    each public method or property of its classes, dunders left out.  A
    method's name in its label is ``Class.method``."""
    where = path.relative_to(SRC).as_posix()
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not (node.name.startswith("__") and node.name.endswith("__")):
            yield f"{where}::{node.name}", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{where}::{node.name}.{item.name}", item


def _scan() -> tuple[dict[str, ast.AST], tuple[Counter, Counter]]:
    """Every definition checked, by label, and every name and attribute
    read."""
    definitions, reads = {}, (Counter(), Counter())
    paths = [*SRC.rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    for path in sorted(paths):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for total, read in zip(reads, _names(tree)):
            total.update(read)
        if SRC in path.parents:
            definitions.update(_definitions(path, tree))
    return definitions, reads


def test_every_definition_in_src_is_named_by_the_program():
    definitions, reads = _scan()
    assert len(definitions) > 100 and ENTRY_POINTS <= set(definitions)
    unused = []
    for label, node in definitions.items():
        # A method or property is read through an attribute only.
        kind = "." in label.rpartition("::")[2]
        if (label not in ENTRY_POINTS
                and reads[kind][node.name] == _names(node)[kind][node.name]):
            unused.append(label)
    assert sorted(unused) == []
