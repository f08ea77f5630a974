"""Prenex CNF formulas with alternating quantifier blocks.

Text form: a quantifier prefix, a colon, then conjoined clauses, e.g.

    ∃y1 ∀y2: (y1 ∨ y2) ∧ (y1 ∨ ¬y2)

ASCII spellings are accepted: E/A for the quantifiers, | & ~ for the
connectives.  Blocks must alternate starting existential; variable
names start with a lowercase letter or underscore (so E and A stay
unambiguous).  Clauses are sets of literals; a clause may contain a
variable in both polarities.
"""
from __future__ import annotations

import re
from dataclasses import dataclass


class FormulaError(ValueError):
    pass


Literal = tuple[str, int]  # (variable, +1 or -1)


@dataclass(frozen=True)
class Formula:
    blocks: tuple[tuple[str, ...], ...]
    clauses: tuple[frozenset[Literal], ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for block in self.blocks:
            if not block:
                raise FormulaError("empty quantifier block")
            for v in block:
                if v in seen:
                    raise FormulaError(f"variable {v} quantified twice")
                seen.add(v)
        if not self.clauses:
            raise FormulaError("formula needs at least one clause")
        for cl in self.clauses:
            if not cl:
                raise FormulaError("empty clause")
            for (v, s) in cl:
                if v not in seen:
                    raise FormulaError(f"free variable {v}")
                if s not in (1, -1):
                    raise FormulaError(f"bad literal sign {s}")

    def variables(self) -> tuple[str, ...]:
        return tuple(v for block in self.blocks for v in block)

    def level_of(self, var: str) -> int:
        for i, block in enumerate(self.blocks):
            if var in block:
                return i + 1
        raise FormulaError(f"unknown variable {var}")


_QUANT = {"∃": 0, "E": 0, "∀": 1, "A": 1}
_IDENT = re.compile(r"[a-z_][A-Za-z0-9_]*")


def parse_formula(text: str) -> Formula:
    if ":" not in text:
        raise FormulaError("missing `:` between prefix and matrix")
    prefix, matrix = text.split(":", 1)

    blocks: list[tuple[str, ...]] = []
    pos = 0
    prefix = prefix.strip()
    while pos < len(prefix):
        ch = prefix[pos]
        if ch.isspace() or ch == ",":
            pos += 1
            continue
        if ch not in _QUANT:
            raise FormulaError(f"expected a quantifier at ...{prefix[pos:]!r}")
        parity = _QUANT[ch]
        if parity != len(blocks) % 2:
            raise FormulaError("quantifiers must alternate starting existential")
        pos += 1
        names: list[str] = []
        while pos < len(prefix):
            if prefix[pos].isspace() or prefix[pos] == ",":
                pos += 1
                continue
            if prefix[pos] in _QUANT:
                break
            m = _IDENT.match(prefix, pos)
            if not m:
                raise FormulaError(f"bad variable name at ...{prefix[pos:]!r}")
            names.append(m.group())
            pos = m.end()
        if not names:
            raise FormulaError("quantifier with no variables")
        blocks.append(tuple(names))
    if not blocks:
        raise FormulaError("empty quantifier prefix")

    clauses: list[frozenset[Literal]] = []
    for part in re.split(r"[∧&]", matrix):
        part = part.strip()
        if not part:
            raise FormulaError("empty conjunct")
        if not (part.startswith("(") and part.endswith(")")):
            raise FormulaError(f"clause {part!r} must be parenthesized")
        lits: set[Literal] = set()
        for raw in re.split(r"[∨|]", part[1:-1]):
            raw = raw.strip()
            sign = 1
            while raw[:1] in ("¬", "~", "!"):
                sign = -sign
                raw = raw[1:].strip()
            if not _IDENT.fullmatch(raw):
                raise FormulaError(f"bad literal {raw!r}")
            lits.add((raw, sign))
        clauses.append(frozenset(lits))

    return Formula(tuple(blocks), tuple(clauses))
