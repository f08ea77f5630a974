"""Reference answers that only the tests read.

Optimisation oracles over every subset, spanning tree or Hamiltonian
cycle of a test-scale graph, a formula's text form, and an input value's
JSON form.  The program decides none of these values itself: its
protocols check a labelling against a rival locally, so these exhaustive
answers are what the tests measure the protocols' verdicts against, and
`graphs.emit_instance` writes instance files from string templates, so
the JSON form is what the tests measure its bytes against.  `embed`
builds the view `transforms.sub_decide` hands a sub-verifier, for the
references that check a field's certificate on a view of its own.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterator, Optional

from locdec.formulas import Formula
from locdec.graphs import (BallView, Cls, Graph, InputValue, InstanceError,
                           Lit, Marks, Ptr)
from locdec.oracles import hamiltonian_cycles, is_matching, spanning_trees
from locdec.transforms import shrink_ball


def oracle_mst_weight(graph: Graph) -> int:
    if graph.weights is None:
        raise ValueError("mst needs edge weights")
    return min(sum(graph.weight(u, v) for (u, v) in t) for t in spanning_trees(graph))


def oracle_tsp_weight(graph: Graph) -> Optional[int]:
    if graph.weights is None:
        raise ValueError("tsp needs edge weights")
    best: Optional[int] = None
    for cyc in hamiltonian_cycles(graph):
        w = sum(graph.weight(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc)))
        if best is None or w < best:
            best = w
    return best


def subsets(n: int) -> Iterator[frozenset[int]]:
    for mask in range(1 << n):
        yield frozenset(v for v in range(n) if mask >> v & 1)


def is_independent(graph: Graph, s: frozenset[int]) -> bool:
    return not any(u in s and v in s for (u, v) in graph.edges)

def is_dominating(graph: Graph, s: frozenset[int]) -> bool:
    return all(v in s or any(w in s for w in graph.neighbours(v)) for v in range(graph.n))

def cut_size(graph: Graph, side: frozenset[int]) -> int:
    return sum(1 for (u, v) in graph.edges if (u in side) != (v in side))


def oracle_max_independent(graph: Graph) -> int:
    return max(len(s) for s in subsets(graph.n) if is_independent(graph, s))

def oracle_min_dominating(graph: Graph) -> int:
    return min(len(s) for s in subsets(graph.n) if is_dominating(graph, s))

def oracle_max_matching(graph: Graph) -> int:
    best = 0
    for r in range(len(graph.edges), 0, -1):
        if r <= best:
            break
        for combo in combinations(sorted(graph.edges), r):
            if is_matching(frozenset(combo)):
                best = r
                break
    return best

def oracle_max_cut(graph: Graph) -> int:
    return max(cut_size(graph, s) for s in subsets(graph.n))

def oracle_min_cut(graph: Graph) -> int:
    return min(cut_size(graph, s) for s in subsets(graph.n))


def formula_text(formula: Formula) -> str:
    """The formula in the text form ``formulas.parse_formula`` reads."""
    prefix = " ".join(
        ("∃" if i % 2 == 0 else "∀") + " ".join(block)
        for i, block in enumerate(formula.blocks))
    order = {v: j for j, v in enumerate(formula.variables())}
    body = " ∧ ".join(
        "(" + " ∨ ".join(("" if s > 0 else "¬") + v
                         for (v, s) in sorted(cl, key=lambda l: (order[l[0]], -l[1])))
        + ")"
        for cl in formula.clauses)
    return f"{prefix}: {body}"


def input_to_json(x: InputValue):
    """JSON form of an input value, as stored in instance files."""
    if x is None:
        return None
    if isinstance(x, bool):
        raise InstanceError("boolean is not an input value")
    if isinstance(x, int):
        return {"kind": "int", "value": x}
    if isinstance(x, Ptr):
        return {"kind": "ptr", "to": x.to}
    if isinstance(x, Marks):
        return {"kind": "marks", "ids": sorted(x.ids)}
    if isinstance(x, Lit):
        return {"kind": "lit", "level": x.level,
                "sign": "+" if x.sign > 0 else "-"}
    if isinstance(x, Cls):
        return {"kind": "clause"}
    raise InstanceError(f"unserializable input {x!r}")


def embed(view: BallView, layers, radius: int, inputs=None) -> BallView:
    """``view`` with ``layers`` (and ``inputs``, when given) in place of its
    own, shrunk to ``radius`` when that is smaller: the view
    ``transforms.sub_decide`` hands a radius-``radius`` verifier."""
    sub = view.with_layers(layers, inputs)
    if radius < view.radius:
        sub = shrink_ball(sub, radius)
    return sub
