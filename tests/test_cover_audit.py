"""Cover audit: a hand-written cover loses no verdict against the product.

A level's move space is the full product over its domain, and
``Level(domain_of)`` binds exactly that product as the cover.  A cover
must hold a winning move for the level's owner whenever the product does,
so swapping any one level's cover for the product must leave every game
verdict as it was.  The audit does that swap on every registered level
whose product stays small enough to play out (at most ``PRODUCT_LIMIT``
moves), on small instances.  ``3col`` has no levels, so only ``lift:3col``
stands for it here.
"""

from __future__ import annotations

import dataclasses

import pytest

from locdec import gen
from locdec.engine import EvalMode, game_evaluate
from locdec.formulas import parse_formula
from locdec.graphs import Graph, IdAssignment, InputAssignment, Instance, Ptr
from locdec.protocol import Protocol
from locdec.protocols import resolve
from locdec.protocols.qbf import encode_qbf

PRODUCT_LIMIT = 60_000
WIDE = EvalMode(node_cap=32)


def product_size(protocol: Protocol, idx: int, instance: Instance) -> int:
    domain = protocol.levels[idx].domain_of(instance.n, instance.N)
    return (domain.size + domain.has_invalid) ** instance.n


def with_product(protocol: Protocol, idx: int) -> Protocol:
    """``protocol`` with level ``idx`` (0-based) searched over the product."""
    levels = list(protocol.levels)
    levels[idx] = dataclasses.replace(levels[idx], cover=None)
    return dataclasses.replace(protocol, levels=tuple(levels))


def inst(graph: Graph, ids, N: int, inputs) -> Instance:
    return Instance(graph, IdAssignment(tuple(ids), N),
                    InputAssignment(tuple(inputs)))


P2 = gen.path_graph(2)
P3 = gen.path_graph(3)
K3 = gen.clique_graph(3)


def _graph_cases():
    # Tree-certificate domains fit the limit only on two nodes; the size
    # certificate also on three nodes under N = 3.
    for ids, N in (((1, 2), 3), ((2, 1), 3), ((4, 1), 4)):
        for inputs in ((2, 2), (1, 1), (2, 1), (3, 3)):
            yield "size", inst(P2, ids, N, inputs)
        for targets in ((None, ids[0]), (ids[1], None), (None, None),
                        (ids[1], ids[0])):
            yield "spanning-tree", inst(P2, ids, N, map(Ptr, targets))
        for colours in ((1, 2), (3, 1), (2, 2), (0, 1)):
            yield "lift:3col", inst(P2, ids, N, colours)
        yield "nta", inst(P2, ids, N, (None, None))
    for graph in (P3, K3):
        for inputs in ((3, 3, 3), (2, 2, 2), (3, 2, 3)):
            yield "size", inst(graph, (2, 3, 1), 3, inputs)
        for ids, N in (((1, 2, 3), 5), ((3, 1, 2), 5), ((6, 2, 4), 6)):
            yield "nta", inst(graph, ids, N, (None,) * 3)
    for graph in (P2, P3, K3):
        for k in range(graph.n + 1):
            for ids, N in ((range(1, graph.n + 1), 3), ((4, 2, 3)[:graph.n], 4)):
                yield "cycle-vc", inst(graph, ids, N, (k,) * graph.n)


FORMULAS = ("∃y:(y)", "∃y:(y)∧(¬y)", "∃y:(y∨¬y)", "∃a∀b:(a∨b)",
            "∃a∀b:(a∨b)∧(a∨¬b)", "∃a∀b:(¬a∨b)", "∃a∀b:(a∨b)∧(¬a∨¬b)",
            "∃a b:(a∨b)∧(¬a∨¬b)")


def audit_cases():
    cases = list(_graph_cases())
    cases += [("qbf", encode_qbf(parse_formula(f))) for f in FORMULAS]
    for name, instance in cases:
        protocol = resolve(name)
        for idx in range(protocol.level_count):
            if product_size(protocol, idx, instance) <= PRODUCT_LIMIT:
                yield name, idx, instance


CASES = list(audit_cases())


@pytest.mark.parametrize(
    "name, idx, instance", CASES,
    ids=[f"{name}-L{idx + 1}-{i}" for i, (name, idx, _) in enumerate(CASES)])
def test_cover_holds_a_winning_move_whenever_the_product_does(name, idx,
                                                              instance):
    protocol = resolve(name)
    want = game_evaluate(with_product(protocol, idx), instance, WIDE).verdict
    assert game_evaluate(protocol, instance, WIDE).verdict == want


def test_audit_reaches_every_protocol_and_level_it_names():
    reached = {(name, idx) for name, idx, _ in CASES}
    assert reached >= {("size", 0), ("spanning-tree", 0), ("lift:3col", 0),
                       ("nta", 0), ("nta", 2), ("cycle-vc", 1),
                       ("qbf", 0), ("qbf", 1)}
    assert len(CASES) >= 60


def test_level_without_cover_is_the_product_after_replace():
    level = resolve("size").levels[0]
    bare = dataclasses.replace(level, cover=None)
    instance = inst(P2, (1, 2), 3, (2, 2))
    moves = list(bare.cover(instance, ()))
    assert len(moves) == product_size(resolve("size"), 0, instance)
    assert len(set(moves)) == len(moves)
