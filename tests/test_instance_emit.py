"""The instance emitter writes the bytes of the indented `json.dumps` layout.

`instance_digest` hashes those bytes, and saved reports and the
benchmark's pinned job keys name instances by the digest, so the layout
may not drift by a byte.
"""
from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from locdec.formulas import parse_formula
from locdec.gen import path_graph
from locdec.graphs import (Cls, Graph, IdAssignment, InputAssignment, Instance,
                           Lit, Marks, Ptr, emit_instance, input_to_json,
                           instance_digest, parse_instance)
from locdec.protocols.qbf import encode_qbf


def reference_emit(instance: Instance) -> str:
    """The instance file text as `json`'s indenting encoder writes it."""
    doc = {
        "nodes": [{"id": instance.id_of(v),
                   "input": input_to_json(instance.input_of(v))}
                  for v in range(instance.n)],
        "edges": [
            {"u": instance.id_of(u), "v": instance.id_of(v),
             **({"w": instance.graph.weights[(u, v)]}
                if instance.graph.weights is not None else {})}
            for (u, v) in sorted(instance.graph.edges)
        ],
        "N": instance.N,
    }
    return json.dumps(doc, indent=2) + "\n"


@st.composite
def instances(draw):
    n = draw(st.integers(1, 8))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=n)) if pairs else [])
    N = draw(st.integers(n, n * n + 2))
    weights = None
    if edges and draw(st.booleans()):  # a file cannot weight an empty edge set
        weights = {e: draw(st.integers(0, N)) for e in sorted(edges)}
    graph = Graph(n, frozenset(edges), weights)
    ids = draw(st.lists(st.integers(1, N), min_size=n, max_size=n, unique=True))
    inputs = []
    for v in range(n):
        nbr_ids = sorted(ids[u] for u in graph.neighbours(v))
        kinds = [st.none(), st.integers(0, N * N),
                 st.builds(Lit, st.integers(-3, 9), st.sampled_from((1, -1))),
                 st.builds(Cls),
                 st.builds(Ptr, st.sampled_from([None, *nbr_ids])),
                 st.builds(Marks, st.lists(st.sampled_from(nbr_ids), max_size=2)
                           if nbr_ids else st.just(()))]
        inputs.append(draw(st.one_of(kinds)))
    return Instance(graph, IdAssignment(tuple(ids), N), InputAssignment(tuple(inputs)))


@settings(deadline=None)
@given(instances())
def test_emit_instance_is_byte_identical_to_indented_json(inst):
    text = emit_instance(inst)
    assert text == reference_emit(inst)
    assert parse_instance(text) == inst


def test_single_node_instance_has_empty_edge_list():
    inst = Instance(Graph(1, frozenset()), IdAssignment((1,), 1),
                    InputAssignment((Marks(()),)))
    text = emit_instance(inst)
    assert '"edges": []' in text and '"ids": []' in text
    assert text == reference_emit(inst)


# Digests taken from the indented `json.dumps` emitter this one replaced.
GOLDEN = [
    (lambda: Instance(path_graph(4), IdAssignment.default(4),
                      InputAssignment((None,) * 4)),
     "7672bc0ae28b4bb1"),
    (lambda: Instance(Graph(3, frozenset({(0, 1), (0, 2), (1, 2)}),
                            {(0, 1): 1, (0, 2): 2, (1, 2): 3}),
                      IdAssignment((1, 2, 3), 5),
                      InputAssignment((Ptr(None), Ptr(1), Marks({1, 2})))),
     "9649cf7e19a3664b"),
    (lambda: encode_qbf(parse_formula("Ey1 Ay2: (y1 | y2) & (y1 | ~y2)")),
     "b045821dafdeab10"),
]


def test_golden_digests():
    assert [instance_digest(build()) for build, _ in GOLDEN] == \
        [digest for _, digest in GOLDEN]
