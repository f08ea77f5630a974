"""Formula type and parser."""
from __future__ import annotations

import pytest

from locdec.formulas import Formula, FormulaError, parse_formula

from reference import formula_text


def test_parse_single_clause():
    f = parse_formula("∃y:(y)")
    assert len(f.blocks) == 1
    assert f.blocks == (("y",),)
    assert f.clauses == (frozenset({("y", 1)}),)


def test_parse_ascii_and_unicode_agree():
    a = parse_formula("Ey1 Ay2: (y1 | y2) & (y1 | ~y2)")
    b = parse_formula("∃y1∀y2:(y1∨y2)∧(y1∨¬y2)")
    assert a == b
    assert len(a.blocks) == 2
    assert a.level_of("y1") == 1 and a.level_of("y2") == 2


def test_parse_multi_var_block():
    f = parse_formula("∃y1,y2 ∀y3: (¬y1 ∨ y3) ∧ (y2)")
    assert f.blocks == (("y1", "y2"), ("y3",))
    assert f.variables() == ("y1", "y2", "y3")


def test_double_negation():
    f = parse_formula("E y: (~~y)")
    assert f.clauses == (frozenset({("y", 1)}),)


@pytest.mark.parametrize("text", [
    "∃y (y)",                 # no colon
    "∀y:(y)",                 # must start existential
    "∃y1 ∃y2:(y1)",           # no alternation
    "∃:(y)",                  # empty block
    "∃y:(z)",                 # free variable
    "∃y:()",                  # empty clause
    "∃y: y",                  # clause must be parenthesized
    "∃y ∀y:(y)",              # quantified twice
    "∃Y:(Y)",                 # variables start lowercase
])
def test_parse_rejects(text):
    with pytest.raises(FormulaError):
        parse_formula(text)


def test_to_text_roundtrip():
    for text in ["∃y:(y)",
                 "∃y1∀y2:(y1∨y2)∧(y1∨¬y2)",
                 "∃y1,y2∀y3∃y4:(¬y1∨y2∨y4)∧(y3)∧(¬y4∨¬y2)"]:
        f = parse_formula(text)
        assert parse_formula(formula_text(f)) == f


def test_formula_validation_direct():
    with pytest.raises(FormulaError):
        Formula((), (frozenset({("y", 1)}),))
    with pytest.raises(FormulaError):
        Formula((("y",),), ())
    with pytest.raises(FormulaError):
        Formula((("y",),), (frozenset({("y", 2)}),))


def test_clause_may_hold_both_polarities():
    f = parse_formula("∃y:(y ∨ ¬y)")
    assert len(f.clauses[0]) == 2
