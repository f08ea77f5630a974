"""The mutant catalogue cannot rot: every anchor occurs exactly once in
today's source and every test id names a test.  No mutant is run here;
``python tests/mutants.py`` runs them."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT


def test_the_catalogue_names_each_mutant_once():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names)) >= 8


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_anchor_occurs_once_and_changes_its_file(mutant):
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.anchor) == 1
    assert mutant.replacement != mutant.anchor
    assert mutant.tests and mutant.fault


def _defines(path: Path, names: list[str]) -> bool:
    """Does ``path`` define the class/function chain ``names``?"""
    scope = ast.parse(path.read_text(encoding="utf-8"), str(path)).body
    for name in names:
        found = [node for node in scope
                 if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                 and node.name == name]
        if not found:
            return False
        scope = found[0].body
    return True


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_test_id_names_a_test(mutant):
    for test_id in mutant.tests:
        path, *names = test_id.split("::")
        assert names and "[" not in test_id, test_id
        assert names[-1].startswith("test_"), test_id
        assert _defines(ROOT / path, names), test_id
