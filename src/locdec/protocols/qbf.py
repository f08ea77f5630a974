"""Alternating truth games on clause/literal graphs.

A prenex CNF formula becomes a graph with one node per literal and one
per clause: the two literals of a variable are joined, and every clause
is joined to the literals it contains.  Literal nodes carry their
quantifier level and sign as inputs, clause nodes a clause marker.

``protocol_qbf_k(k)`` plays k labelling rounds.  Round i assigns one
boolean to each literal node of level i, existential levels by the
prover and universal ones by the disprover.  The verifier is radius 1:
a literal node at an odd level checks its negation partner carries the
opposite value, and a clause node checks it touches at least one true
literal.  Universal rounds are kept meaningful by reading, not by
rejection: a damaged or one-sided value at an even level counts as
true, so straying from a real assignment only helps the prover, and
the round covers range over exactly the real assignments.  The prover
in the paper is unbounded, so its levels carry no strategy: its honest
move is the first cover move that wins the rest of the game, which the
engine's search finds in constructive play as in exhaustive play.

On a plain graph, one whose nodes carry no literal or clause, the covers
yield no move, so every level is forced to the canonical labelling.  The
verifier rejects at any node that is neither a literal nor a clause, so
the game ends False, as the oracle does.  A graph that carries literals
or clauses but encodes no formula is refused with ``FormulaError``: a
radius-1 verifier cannot check global conditions of the encoding, such
as contiguous quantifier levels, so playing it could accept what the
oracle rejects.  A formula deeper than k alternations is refused with
``ProtocolError``.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, NamedTuple, Optional

from ..formulas import Formula, FormulaError
from ..graphs import (BallView, Cls, Graph, IdAssignment, InputAssignment,
                      Instance, Lit)
from ..labels import LabelDomain, Labelling, optional_range_field
from ..oracles import oracle_qbf
from ..protocol import (PROVER, LanguageSpec, Level, Protocol, ProtocolError,
                        keep_last)
from ..runtime import LocalVerifier


class TruthLabel(NamedTuple):
    bit: Optional[int]


def truth_domain(n: int, N: int) -> LabelDomain:
    return LabelDomain("truth", 1, n, N,
                       (optional_range_field("bit", 0, 1),), TruthLabel, 1)


# ---------------------------------------------------------------------------
# encoding


def encode_qbf(formula: Formula) -> Instance:
    names = formula.variables()
    pos = {var: 2 * i for i, var in enumerate(names)}
    base = 2 * len(names)
    n = base + len(formula.clauses)
    edges = set()
    inputs: list = []
    for var in names:
        level = formula.level_of(var)
        edges.add((pos[var], pos[var] + 1))
        inputs.append(Lit(level, 1))
        inputs.append(Lit(level, -1))
    for j, clause in enumerate(formula.clauses):
        for var, sign in clause:
            lit = pos[var] + (0 if sign > 0 else 1)
            edges.add((min(lit, base + j), max(lit, base + j)))
        inputs.append(Cls())
    return Instance(Graph(n, frozenset(edges)),
                    IdAssignment(tuple(range(1, n + 1)), n),
                    InputAssignment(tuple(inputs)))


class _FormulaView(NamedTuple):
    pairs: tuple[tuple[int, int, int], ...]   # (positive, negative, level)
    clause_nodes: tuple[int, ...]
    depth: int


def _formula_view(instance: Instance) -> _FormulaView:
    lits, clause_nodes = {}, []
    for v in range(instance.n):
        x = instance.input_of(v)
        if isinstance(x, Lit):
            lits[v] = x
        elif isinstance(x, Cls):
            clause_nodes.append(v)
        else:
            raise FormulaError(f"node {v} is neither a literal nor a clause")
    partner: dict[int, int] = {}
    for u, v in sorted(instance.graph.edges):
        if u in lits and v in lits:
            a, b = lits[u], lits[v]
            if a.level != b.level or a.sign != -b.sign:
                raise FormulaError(f"edge ({u}, {v}) joins unrelated literals")
            if u in partner or v in partner:
                raise FormulaError(f"literal node {u} has two partners")
            partner[u], partner[v] = v, u
        elif u not in lits and v not in lits:
            raise FormulaError(f"edge ({u}, {v}) joins two clauses")
    pairs = []
    for v in sorted(lits):
        if v not in partner:
            raise FormulaError(f"literal node {v} has no negation partner")
        if lits[v].sign > 0:
            pairs.append((v, partner[v], lits[v].level))
    levels = {level for _, _, level in pairs}
    depth = max(levels, default=0)
    if levels != set(range(1, depth + 1)):
        raise FormulaError("quantifier levels are not contiguous from 1")
    return _FormulaView(tuple(pairs), tuple(clause_nodes), depth)


def decode_qbf(instance: Instance) -> Formula:
    view = _formula_view(instance)
    name = {}
    for j, (p, q, _) in enumerate(view.pairs):
        name[p] = (f"x{j + 1}", 1)
        name[q] = (f"x{j + 1}", -1)
    blocks = tuple(
        tuple(f"x{j + 1}" for j, pair in enumerate(view.pairs)
              if pair[2] == level)
        for level in range(1, view.depth + 1))
    clauses = tuple(
        frozenset(name[w] for w in sorted(instance.graph.neighbours(c)))
        for c in view.clause_nodes)
    return Formula(blocks, clauses)


# ---------------------------------------------------------------------------
# the k-round game


def _effective_readings(b: BallView, centre_lits: dict) -> dict[int, bool]:
    """Truth of each literal neighbour of a clause node, read prover-safe."""

    def raw_bit(w: int, level: int) -> Optional[int]:
        lbl = b.label(level - 1, w)
        if isinstance(lbl, TruthLabel) and lbl.bit in (0, 1):
            return lbl.bit
        return None

    out = {}
    for w, lit in centre_lits.items():
        bit = raw_bit(w, lit.level)
        if lit.level % 2 == 1:
            out[w] = bit == 1
        else:
            out[w] = bit != 0
    # a universal variable with both polarities in the clause reads true
    # unless the two values form a real assignment
    for w, lit in centre_lits.items():
        if lit.level % 2 == 1:
            continue
        for w2, lit2 in centre_lits.items():
            if w2 <= w or not b.has_edge(w, w2):
                continue
            bits = (raw_bit(w, lit.level), raw_bit(w2, lit2.level))
            if None in bits or bits[0] == bits[1]:
                out[w] = out[w2] = True
    return out


def _decide(b: BallView) -> bool:
    x = b.own_input
    if isinstance(x, Cls):
        lits = {w: b.input_of(w) for w in b.neighbours(b.centre)
                if isinstance(b.input_of(w), Lit)}
        if len(lits) != len(b.neighbours(b.centre)):
            return False
        return any(_effective_readings(b, lits).values())
    if isinstance(x, Lit):
        if x.level % 2 == 0:
            return True
        own = b.own_label(x.level - 1)
        if not isinstance(own, TruthLabel) or own.bit not in (0, 1):
            return False
        partners = [w for w in b.neighbours(b.centre)
                    if isinstance(b.input_of(w), Lit)
                    and b.input_of(w).level == x.level
                    and b.input_of(w).sign == -x.sign]
        if len(partners) != 1:
            return False
        other = b.label(x.level - 1, partners[0])
        return isinstance(other, TruthLabel) and other.bit == 1 - own.bit
    return False


def _assignments(view: _FormulaView, level: int,
                 n: int) -> Iterable[Labelling]:
    """Real assignments to the level's variables, blank elsewhere."""
    here = [pair for pair in view.pairs if pair[2] == level]
    blank = [TruthLabel(None)] * n
    for bits in product((1, 0), repeat=len(here)):
        values = list(blank)
        for (p, q, _), bit in zip(here, bits):
            values[p] = TruthLabel(bit)
            values[q] = TruthLabel(1 - bit)
        yield Labelling(values)


def protocol_qbf_k(k: int) -> Protocol:
    if k < 1:
        raise ProtocolError("the truth game needs at least one level")

    @keep_last
    def checked_view(instance: Instance) -> Optional[_FormulaView]:
        """The encoded formula, or None on a graph whose nodes carry no
        literal or clause.  A malformed encoding raises ``FormulaError``.
        Every cover call of one game reads the same instance, so it is
        decoded once per game."""
        try:
            view = _formula_view(instance)
        except FormulaError:
            if any(isinstance(instance.input_of(v), (Lit, Cls))
                   for v in range(instance.n)):
                raise
            return None
        if view.depth > k:
            raise ProtocolError(
                f"formula alternation depth {view.depth} exceeds"
                f" the {k}-level game")
        return view

    def cover_at(level: int):
        def cover(instance: Instance, earlier) -> Iterable[Labelling]:
            view = checked_view(instance)
            if view is not None:
                yield from _assignments(view, level, instance.n)
        return cover

    def oracle(instance: Instance) -> bool:
        try:
            return oracle_qbf(decode_qbf(instance))
        except FormulaError:
            return False

    levels = tuple(Level(truth_domain, cover_at(i)) for i in range(1, k + 1))
    name = "qbf" if k == 2 else f"qbf-{k}"
    return Protocol(name, PROVER, levels, LocalVerifier(1, k, _decide),
                    LanguageSpec(oracle))
