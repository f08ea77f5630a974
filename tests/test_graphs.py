"""Graph core: parsing, validation, ball extraction, serialization."""
from __future__ import annotations

import json

import pytest

from corpus import c4, id_variants, p3, plain_instance
from locdec.graphs import (
    Cls, Graph, IdAssignment, InputAssignment, Instance, InstanceError, Lit,
    Marks, Ptr, ball, emit_instance, instance_digest, parse_instance,
)
from locdec.oracles import iso_representatives


P3_TEXT = json.dumps({
    "nodes": [{"id": 1, "input": None},
              {"id": 2, "input": None},
              {"id": 3, "input": None}],
    "edges": [{"u": 1, "v": 2}, {"u": 2, "v": 3}],
})


def test_parse_p3():
    inst = parse_instance(P3_TEXT)
    assert inst.n == 3
    assert inst.N == 9
    assert inst.graph.edges == frozenset({(0, 1), (1, 2)})
    assert [inst.id_of(v) for v in range(3)] == [1, 2, 3]
    assert inst.node_of(3) == 2
    assert inst.input_of(0) is None


def test_parse_respects_file_order():
    text = json.dumps({
        "nodes": [{"id": 9, "input": None}, {"id": 4, "input": None}],
        "edges": [{"u": 9, "v": 4}],
        "N": 10,
    })
    inst = parse_instance(text)
    assert inst.id_of(0) == 9 and inst.id_of(1) == 4
    assert inst.N == 10


@pytest.mark.parametrize("mangle,needle", [
    (lambda d: d["nodes"].append({"id": 1, "input": None}), "duplicate identity"),
    (lambda d: d["edges"].append({"u": 1, "v": 7}), "unknown identity"),
    (lambda d: d["edges"].append({"u": 1, "v": 1}), "self-loop"),
    (lambda d: d["edges"].append({"u": 2, "v": 1}), "duplicate edge"),
    (lambda d: d["edges"].pop(), "not connected"),
    (lambda d: d["edges"][0].update(w=3), "all edges carry weights"),
    (lambda d: d.update(N=2), "cannot host"),
    (lambda d: d["nodes"].__setitem__(0, {"id": "a", "input": None}), "not an integer"),
    (lambda d: d.update(nodes=[]), "non-empty"),
    (lambda d: d.update(edges=5), "must be a list, not 5"),
    (lambda d: d.update(edges=None), "must be a list, not None"),
])
def test_parse_rejects(mangle, needle):
    doc = json.loads(P3_TEXT)
    mangle(doc)
    with pytest.raises(InstanceError, match=needle):
        parse_instance(json.dumps(doc))


def test_parse_rejects_malformed_text():
    with pytest.raises(InstanceError, match="malformed"):
        parse_instance("{not json")
    with pytest.raises(InstanceError, match="nodes"):
        parse_instance("{}")


def test_identity_out_of_range():
    with pytest.raises(InstanceError, match="outside"):
        IdAssignment((0, 1), 4)
    with pytest.raises(InstanceError, match="outside"):
        IdAssignment((1, 5), 4)


def test_pointer_must_name_neighbour():
    inst = parse_instance(P3_TEXT)
    with pytest.raises(InstanceError, match="not a neighbour"):
        inst.with_inputs([Ptr(3), Ptr(None), Ptr(2)])  # 3 is not adjacent to 1
    ok = inst.with_inputs([Ptr(2), Ptr(None), Ptr(2)])
    assert ok.input_of(0) == Ptr(2)


def test_marks_validation():
    inst = plain_instance(c4())
    with pytest.raises(InstanceError, match="non-neighbour"):
        inst.with_inputs([Marks({3}), None, None, None])  # id 3 not adjacent to id 1
    with pytest.raises(InstanceError, match="marks"):
        Marks_too_many = Marks({2, 4, 3})
        inst.with_inputs([Marks_too_many, None, None, None])
    ok = inst.with_inputs([Marks({2, 4}), Marks({1}), None, Marks({1})])
    assert ok.input_of(0).ids == frozenset({2, 4})


def test_int_input_range():
    inst = parse_instance(P3_TEXT)
    assert inst.with_inputs([81, None, None]).input_of(0) == 81
    with pytest.raises(InstanceError, match="out of range"):
        inst.with_inputs([82, None, None])


@pytest.mark.parametrize("bad", ["1", 1.0])
def test_unknown_input_kind_is_refused(bad):
    inst = parse_instance(P3_TEXT)
    with pytest.raises(InstanceError, match="unknown input value"):
        inst.with_inputs([None, bad, None])


def test_weights_capped_by_N():
    g = Graph(2, frozenset({(0, 1)}), {(0, 1): 5})
    Instance(g, IdAssignment((1, 2), 5), InputAssignment((None, None)))
    with pytest.raises(InstanceError, match="exceeds N"):
        Instance(g, IdAssignment((1, 2), 4), InputAssignment((None, None)))


@pytest.mark.parametrize("value", [2.9, "7", True, None])
def test_int_input_must_be_a_json_integer(value):
    doc = json.loads(P3_TEXT)
    doc["nodes"][0]["input"] = {"kind": "int", "value": value}
    with pytest.raises(InstanceError, match="not an integer|malformed int"):
        parse_instance(json.dumps(doc))


@pytest.mark.parametrize("node_input", [
    {"kind": "ptr", "to": True},
    {"kind": "ptr", "to": 2.0},
    {"kind": "ptr", "to": "2"},
    {"kind": "marks", "ids": [True]},
    {"kind": "marks", "ids": ["2"]},
    {"kind": "marks", "ids": "2"},
    {"kind": "lit", "level": True, "sign": "+"},
    {"kind": "lit", "level": 1.5, "sign": "-"},
])
def test_input_fields_must_be_json_integers(node_input):
    doc = json.loads(P3_TEXT)
    doc["nodes"][0]["input"] = node_input
    with pytest.raises(InstanceError, match="not an integer"):
        parse_instance(json.dumps(doc))


@pytest.mark.parametrize("mangle,needle", [
    (lambda d: d["nodes"][0].update(id=True), "not an integer"),
    (lambda d: d["nodes"][0].update(id=1.0), "not an integer"),
    (lambda d: d.update(N=True), "bad N"),
    (lambda d: d.update(N=9.0), "bad N"),
    (lambda d: d["edges"][0].update(u=True), "unknown identity"),
    (lambda d: d["edges"][0].update(u=1.0), "unknown identity"),
    (lambda d: [e.update(w=True) for e in d["edges"]], "not an integer"),
    (lambda d: [e.update(w=1.0) for e in d["edges"]], "not an integer"),
])
def test_parse_refuses_non_integer_numbers(mangle, needle):
    doc = json.loads(P3_TEXT)
    mangle(doc)
    with pytest.raises(InstanceError, match=needle):
        parse_instance(json.dumps(doc))


def test_instances_refuse_booleans():
    g = Graph(2, frozenset({(0, 1)}), {(0, 1): True})
    with pytest.raises(InstanceError, match="weight True"):
        Instance(g, IdAssignment((1, 2), 4), InputAssignment((None, None)))
    with pytest.raises(InstanceError, match="identity True"):
        IdAssignment((True, 2), 4)
    with pytest.raises(InstanceError, match="not an integer"):
        IdAssignment((1, 2), True)
    inst = plain_instance(c4())  # node 0 has identity 1, next to 2 and 4
    for bad in (True, Ptr(True), Ptr(2.0), Marks({True}), Lit(True, 1),
                Lit(1, 5), Lit(1, 0), Lit(1, True)):
        with pytest.raises(InstanceError):
            inst.with_inputs([bad, None, None, None])
        with pytest.raises(InstanceError):
            inst.with_inputs([None, bad, None, None])


def test_ball_p3_radius1():
    inst = parse_instance(P3_TEXT)
    view = ball(inst, [], 1, 1)
    assert view.members == (0, 1, 2)
    assert view.centre_dist[0] == view.centre_dist[2] == view.radius
    assert view.centre_dist[1] != view.radius
    assert view.edges == frozenset({(0, 1), (1, 2)})


def test_ball_zero_radius():
    inst = parse_instance(P3_TEXT)
    for v in range(3):
        view = ball(inst, [], v, 0)
        assert view.members == (v,)
        assert view.edges == frozenset()
        assert view.own_id == inst.id_of(v)


def test_ball_c4_radius2():
    inst = plain_instance(c4())
    view = ball(inst, [], 0, 2)
    assert view.members == (0, 1, 2, 3)
    assert view.centre_dist[2] == view.radius   # the antipodal node
    assert not any(view.centre_dist[v] == view.radius for v in (0, 1, 3))


def test_ball_matches_independent_distances():
    for n in range(1, 6):
        for g in iso_representatives(n):
            dist = _floyd(g)
            inst = plain_instance(g)
            for v in range(n):
                for t in range(0, n + 1):
                    view = ball(inst, [], v, t)
                    assert set(view.members) == {u for u in range(n)
                                                 if dist[v][u] <= t}
                    for u in view.members:
                        assert (view.centre_dist[u] == view.radius) \
                            == (dist[v][u] == t)


def _floyd(g: Graph) -> list[list[int]]:
    big = g.n + 1
    d = [[0 if i == j else (1 if g.has_edge(i, j) else big)
          for j in range(g.n)] for i in range(g.n)]
    for k in range(g.n):
        for i in range(g.n):
            for j in range(g.n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


def test_ball_nesting():
    for g in iso_representatives(4):
        inst = plain_instance(g)
        for v in range(g.n):
            for t in range(0, 4):
                small = ball(inst, [], v, t)
                big = ball(inst, [], v, t + 1)
                inner = {u for u in big.members if big.centre_dist[u] <= t}
                assert inner == set(small.members)
                assert {e for e in big.edges
                        if e[0] in set(small.members) and e[1] in set(small.members)} \
                    >= set(small.edges)


def test_ball_carries_layers_and_weights():
    g = Graph(3, frozenset({(0, 1), (1, 2)}), {(0, 1): 4, (1, 2): 7})
    inst = plain_instance(g)
    view = ball(inst, [["a", "b", "c"], [10, 20, 30]], 0, 1)
    assert len(view.layers) == 2
    assert view.label(0, 1) == "b"
    assert view.own_label(1) == 10
    assert view.weight(0, 1) == 4
    with pytest.raises(KeyError):
        view.label(0, 2)  # node 2 is outside the radius-1 ball


def test_ball_errors():
    inst = parse_instance(P3_TEXT)
    with pytest.raises(InstanceError):
        ball(inst, [], 5, 1)
    with pytest.raises(InstanceError):
        ball(inst, [], 0, -1)


def test_roundtrip_all_input_kinds():
    g = c4()
    inst = Instance(g, IdAssignment((2, 4, 6, 8), 16), InputAssignment((
        Ptr(4), Marks({2, 6}), 13, Lit(2, -1),
    )))
    again = parse_instance(emit_instance(inst))
    assert again == inst
    assert instance_digest(again) == instance_digest(inst)


def test_roundtrip_weighted_and_tagged():
    g = Graph(2, frozenset({(0, 1)}), {(0, 1): 3})
    inst = Instance(g, IdAssignment((1, 2), 4), InputAssignment((Cls(), None)))
    again = parse_instance(emit_instance(inst))
    assert again == inst


def test_empty_weight_map_on_an_edgeless_graph_round_trips():
    g = Graph(1, frozenset(), {})
    assert g.weights is None and g == Graph(1, frozenset())
    inst = Instance(g, IdAssignment((1,), 1), InputAssignment((None,)))
    assert parse_instance(emit_instance(inst)) == inst
    with pytest.raises(InstanceError, match="cover exactly the edge set"):
        Graph(2, frozenset({(0, 1)}), {})


def test_digest_depends_on_identities():
    inst = plain_instance(p3())
    other = Instance(inst.graph, IdAssignment((3, 2, 1), 9), inst.inputs)
    assert instance_digest(inst) != instance_digest(other)


def test_id_variants_are_distinct():
    for n in (1, 3, 5):
        variants = id_variants(n)
        assert len({a.ids for a in variants}) == 3
        for a in variants:
            assert len(a.ids) == n


def test_disconnected_graph_rejected():
    with pytest.raises(InstanceError, match="not connected"):
        Graph(4, frozenset({(0, 1), (2, 3)}))
