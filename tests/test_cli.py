"""CLI run reports: emit and parse round trips."""

import json
import json.encoder

import pytest

import locdec.cli
import locdec.protocols
from locdec.cli import ReportError, build_report, emit_report, main, parse_report
from locdec.engine import EvalMode, game_evaluate, identity_variants
from locdec.formulas import parse_formula
from locdec.gen import grid_graph, path_graph
from locdec.graphs import (Cls, Graph, IdAssignment, InputAssignment, Instance,
                           Lit, Marks, Ptr, emit_instance, instance_digest,
                           parse_instance)
from locdec.labels import INVALID
from locdec.oracles import oracle_qbf
from locdec.protocol import PROVER, Protocol
from locdec.protocols import resolve
from locdec.runtime import LocalVerifier

from corpus import small_instances


def _decoded(report):
    """The report's rows decoded by its protocol's level domains."""
    n = len(report.decisions)
    levels = resolve(report.protocol).levels
    assert len(levels) == len(report.witness)
    return tuple(
        tuple(INVALID if bits is None
              else level.domain_of(n, report.N).decode(bits) for bits in row)
        for level, row in zip(levels, report.witness))


def _mst_report():
    # x = {ab, bc} is beaten by {ab, ac}; the certificate's substitute
    # tree xprime holds Ptr input values.
    graph = Graph(3, frozenset({(0, 1), (0, 2), (1, 2)}),
                  {(0, 1): 1, (0, 2): 2, (1, 2): 3})
    inst = Instance(graph, IdAssignment((1, 2, 3), 5),
                    InputAssignment((Ptr(None), Ptr(1), Ptr(2))))
    protocol = resolve("mst")
    outcome = game_evaluate(protocol, inst)
    assert any(isinstance(lbl.xprime, Ptr) for lbl in outcome.line[0])
    return build_report(protocol, inst, outcome), outcome


def test_mst_report_round_trips_input_valued_labels():
    report, outcome = _mst_report()
    parsed = parse_report(emit_report(report))
    assert parsed == report and parsed.N == 5
    assert all(type(bits) is int for bits in parsed.witness[0])
    assert _decoded(parsed) == tuple(tuple(layer) for layer in outcome.line)


@pytest.mark.parametrize("name, n", [
    ("nta", 2),  # the disprover forfeits level 2: top-level INVALID
    ("unanimous:spanning-tree+non-spanning-tree", 3),  # nested INVALID
])
def test_invalid_labels_round_trip(name, n):
    graph = path_graph(n)
    inst = Instance(graph, IdAssignment.default(n), InputAssignment((None,) * n))
    protocol = resolve(name)
    outcome = game_evaluate(protocol, inst)
    report = parse_report(emit_report(build_report(protocol, inst, outcome)))
    line = tuple(tuple(layer) for layer in outcome.line)
    assert _decoded(report) == line
    if name == "nta":
        assert report.witness[1] == (None,) * n
    else:
        assert all(lbl.no is INVALID for lbl in line[0])


def test_report_stats_round_trip_keeps_views_reused():
    report, _ = _mst_report()
    assert set(report.stats) == {"leaf_evaluations", "node_evaluations",
                                 "decisions_reused", "views_reused",
                                 "first_refutations"}
    assert parse_report(emit_report(report)).stats == report.stats


MALFORMED_FIELDS = {
    "protocol-number": ("protocol", 5),
    "version-null": ("version", None),
    "instance-list": ("instance", [1]),
    "stats-pairs": ("stats", [[1, 2]]),
    "stats-string": ("stats", "xy"),
}


@pytest.mark.parametrize("change", ["too-wide", "negative", "short-row",
                                    "extra-layer", "no-bits", "bits-boolean",
                                    *MALFORMED_FIELDS])
def test_malformed_rows_are_rejected(change):
    doc = json.loads(emit_report(_mst_report()[0]))
    width = doc["bits"][0]["width"]
    if change == "too-wide":
        doc["witness"][0][0] = 2 ** width
    elif change == "negative":
        doc["witness"][0][0] = -1
    elif change == "short-row":
        doc["witness"][0].pop()
    elif change == "extra-layer":
        doc["witness"].append(doc["witness"][0])
    elif change == "no-bits":
        del doc["bits"]
    elif change in MALFORMED_FIELDS:
        key, value = MALFORMED_FIELDS[change]
        doc[key] = value
    else:
        doc["bits"][0]["width"] = True
    with pytest.raises(ReportError):
        parse_report(json.dumps(doc))


def test_largest_pattern_of_the_width_parses():
    doc = json.loads(emit_report(_mst_report()[0]))
    doc["witness"][0][0] = 2 ** doc["bits"][0]["width"] - 1
    assert parse_report(json.dumps(doc)).witness[0][0] == doc["witness"][0][0]


def test_report_layout_is_one_key_and_one_label_per_line():
    text = emit_report(_mst_report()[0])
    lines, doc = text.splitlines(), json.loads(text)
    assert [line.split(":")[0].strip() for line in lines
            if line.startswith('  "')] == [json.dumps(key) for key in doc]
    labels = [line.strip().rstrip(",") for line in lines
              if line.startswith("      ")]
    assert [json.loads(label) for label in labels] == doc["witness"][0]


@pytest.mark.parametrize("field, value", [
    ("verdict", "false"), ("verdict", 0), ("verdict", None),
    ("decisions", ["false", 0, "no"]), ("decisions", [True, 1, True]),
    ("decisions", "ttt"),
])
def test_non_boolean_verdicts_are_rejected(field, value):
    doc = json.loads(emit_report(_mst_report()[0]))
    doc[field] = value
    with pytest.raises(ReportError, match=field.rstrip("s")):
        parse_report(json.dumps(doc))


@pytest.mark.parametrize("verdict, decisions", [
    (True, [True, False, True]), (False, [True, True, True]),
])
def test_a_verdict_that_contradicts_the_decisions_is_rejected(verdict,
                                                              decisions):
    # `export --report` colours nodes from the decisions, so they must
    # agree with the verdict they explain.
    doc = json.loads(emit_report(_mst_report()[0]))
    doc["verdict"], doc["decisions"] = verdict, decisions
    with pytest.raises(ReportError, match="contradicts decisions"):
        parse_report(json.dumps(doc))


@pytest.mark.parametrize("path", [(0, 0), (0, 1), (0, 2)])
def test_boolean_label_values_are_rejected(path):
    # `true` is a Python int, but no bit pattern.
    doc = json.loads(emit_report(_mst_report()[0]))
    layer, node = path
    doc["witness"][layer][node] = True
    with pytest.raises(ReportError, match="label True is not"):
        parse_report(json.dumps(doc))


def test_parse_report_resolves_no_protocol(monkeypatch):
    report, _ = _mst_report()
    text = emit_report(report)

    def refuse(name):
        raise AssertionError(f"parse_report resolved {name}")

    monkeypatch.setattr(locdec.protocols, "resolve", refuse)
    monkeypatch.setattr(locdec.cli, "resolve", refuse)
    assert parse_report(text) == report


def test_check_reports_the_certificate_size(tmp_path, capsys):
    instance = tmp_path / "grid.json"
    assert main(["gen", "grid", "3", "3", "-o", str(instance)]) == 0
    capsys.readouterr()
    assert main(["check", "size", str(instance)]) in (0, 1)
    doc = json.loads(capsys.readouterr().out)
    domain = resolve("size").levels[0].domain_of(9, doc["N"])
    assert doc["N"] == 81
    assert doc["bits"] == [{"width": domain.width, "budget": domain.budget}]
    assert domain.width <= domain.budget
    assert len(doc["witness"]) == 1 and len(doc["witness"][0]) == 9


def test_export_refuses_a_report_with_missing_decisions(tmp_path, capsys):
    instance, report = tmp_path / "p3.json", tmp_path / "report.json"
    assert main(["gen", "path", "3", "-o", str(instance)]) == 0
    assert main(["check", "spanning-tree", str(instance)]) in (0, 1)
    doc = json.loads(capsys.readouterr().out)
    # A report that is whole for one node, so that parsing passes and
    # export's own node count check refuses it.
    doc["decisions"] = doc["decisions"][:1]
    doc["witness"] = [row[:1] for row in doc["witness"]]
    report.write_text(json.dumps(doc))
    assert main(["export", str(instance), "--report", str(report)]) == 2
    assert "1 decisions for 3 nodes" in capsys.readouterr().err


def test_check_refuses_edges_that_are_not_a_list(tmp_path, capsys):
    instance = tmp_path / "p3.json"
    assert main(["gen", "path", "3", "-o", str(instance)]) == 0
    doc = json.loads(instance.read_text())
    doc["edges"] = 5
    instance.write_text(json.dumps(doc))
    assert main(["check", "3col", str(instance)]) == 2
    assert "`edges` must be a list" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize("command", ["check", "game"])
def test_run_refuses_a_non_positive_node_cap(tmp_path, capsys, command, cap):
    instance = tmp_path / "p3.json"
    assert main(["gen", "path", "3", "-o", str(instance)]) == 0
    assert main([command, "3col", str(instance), "--node-cap", cap]) == 2
    err = capsys.readouterr().err
    assert "--node-cap must be a positive integer" in err
    assert "instance has" not in err


@pytest.mark.parametrize("rounds", ["0", "-2"])
def test_game_refuses_fewer_than_one_identity_round(tmp_path, capsys, rounds):
    instance = tmp_path / "p3.json"
    assert main(["gen", "path", "3", "-o", str(instance)]) == 0
    capsys.readouterr()
    assert main(["game", "3col", str(instance), "--ids", rounds]) == 2
    captured = capsys.readouterr()
    assert "identity rounds must be a positive integer" in captured.err
    assert captured.out == ""


def test_reports_never_use_the_pure_python_encoder(monkeypatch):
    # `json.dumps(..., indent=...)` encodes through `_make_iterencode`;
    # the C encoder never does.
    graph = grid_graph(6, 6)
    inst = Instance(graph, IdAssignment.default(graph.n),
                    InputAssignment((graph.n,) * graph.n))
    protocol = resolve("size")
    outcome = game_evaluate(protocol, inst,
                            EvalMode(constructive=True, node_cap=graph.n))
    assert outcome.verdict

    def refuse(*args, **kwargs):
        raise AssertionError("pure-Python JSON encoder on the report path")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    assert len(instance_digest(inst)) == 16
    report = build_report(protocol, inst, outcome)
    assert parse_report(emit_report(report)) == report


@pytest.mark.parametrize("formula, status", [
    ("Ey1 Ay2: (y1 | y2) & (y1 | ~y2)", 0),
    ("Ey1 Ay2: (y1 | y2) & (~y1 | y2)", 1),
])
def test_check_collapsed_qbf_exits_with_the_verdict(tmp_path, capsys, formula,
                                                    status):
    path = tmp_path / "formula.json"
    assert main(["gen", "qbf", formula, "-o", str(path)]) == 0
    assert main(["check", "collapse:qbf", str(path)]) == status
    assert '"verdict"' in capsys.readouterr().out


@pytest.mark.parametrize("formula", [
    "Ea Ab Ec: (a | b) & (~b | c)",
    "Ea Ab Ec: (b | c) & (~c | a) & (~a | ~c)",
])
def test_check_three_level_qbf_exits_with_the_oracle_verdict(tmp_path, capsys,
                                                             formula):
    path = tmp_path / "formula.json"
    assert main(["gen", "qbf", formula, "-o", str(path)]) == 0
    status = 0 if oracle_qbf(parse_formula(formula)) else 1
    assert main(["check", "qbf-3", str(path)]) == status
    assert json.loads(capsys.readouterr().out)["protocol"] == "qbf-3"


def test_gen_writes_to_stdout_without_an_output_file(tmp_path, capsys):
    path = tmp_path / "c4.json"
    assert main(["gen", "cycle", "4", "-o", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["gen", "cycle", "4"]) == 0
    assert capsys.readouterr().out == path.read_text()


def _gen(capsys, *argv) -> Instance:
    assert main(["gen", *argv]) == 0
    return parse_instance(capsys.readouterr().out)


def test_gen_random_is_seeded_connected_and_identified_below_n_squared(capsys):
    inst = _gen(capsys, "random", "7", "--seed", "3")
    assert inst == _gen(capsys, "random", "7", "--seed", "3")
    assert inst != _gen(capsys, "random", "7", "--seed", "4")
    assert inst.N == 49 and len(set(inst.ids.ids)) == 7
    assert all(1 <= i <= 49 for i in inst.ids.ids)
    assert len(inst.graph.distances_from(0)) == 7


def test_gen_path_seed_draws_the_identities(capsys):
    plain = _gen(capsys, "path", "5")
    seeded = _gen(capsys, "path", "5", "--seed", "2")
    assert seeded == _gen(capsys, "path", "5", "--seed", "2")
    assert seeded.graph == plain.graph == path_graph(5)
    assert plain.ids.ids == (1, 2, 3, 4, 5)
    assert seeded.ids.ids != plain.ids.ids
    assert seeded.ids != _gen(capsys, "path", "5", "--seed", "3").ids
    assert all(1 <= i <= 25 for i in seeded.ids.ids)


def test_game_refuses_a_verdict_that_depends_on_identities(tmp_path, capsys,
                                                            monkeypatch):
    # Each node accepts iff its identity is its index plus one, which holds
    # under the file's identities and under no sampled variant.
    reads_ids = Protocol("reads-ids", PROVER, (),
                         LocalVerifier(0, 0, lambda b: b.own_id == b.centre + 1))
    monkeypatch.setattr(locdec.cli, "resolve", lambda name: reads_ids)
    path = tmp_path / "p3.json"
    assert main(["gen", "path", "3", "-o", str(path)]) == 0
    assert main(["game", "reads-ids", str(path), "--ids", "3"]) == 2
    captured = capsys.readouterr()
    assert "depends on the identity assignment" in captured.err
    assert "-> True" in captured.err and "-> False" in captured.err
    assert captured.out == ""


def _write(tmp_path, name, instance):
    path = tmp_path / name
    path.write_text(emit_instance(instance))
    return path


@pytest.mark.parametrize("name", ["lift:cycle-vc", "lift:nta"])
def test_check_plays_a_lift_constructively(tmp_path, capsys, name):
    # The base's disprover level passes to the prover with no strategy,
    # and constructive play searches it.
    protocol = resolve(name)
    verdicts = []
    for i, instance in enumerate(small_instances(name.partition(":")[2])):
        path = _write(tmp_path, f"{i}.json", instance)
        want = protocol.language.oracle(instance)
        status = main(["check", name, str(path), "--mode", "constructive"])
        assert status == (0 if want else 1)
        report = parse_report(capsys.readouterr().out)
        assert (report.protocol, report.verdict) == (name, want)
        verdicts.append(want)
    assert verdicts == {"lift:cycle-vc": [True, True, True, False],
                        "lift:nta": [False, False]}[name]


def _pointer_path():
    # P3 whose pointers encode the spanning tree rooted at identity 1.
    return Instance(path_graph(3), IdAssignment((1, 2, 3), 9),
                    InputAssignment((Ptr(None), Ptr(1), Ptr(2))))


@pytest.mark.parametrize("name, status", [("spanning-tree", 0), ("3col", 1)])
def test_game_reports_rounds_and_total_leaves(tmp_path, capsys, name, status):
    instance = _pointer_path()
    path = _write(tmp_path, "p3.json", instance)
    assert main(["game", name, str(path), "--ids", "3", "--seed", "5"]) == status
    stats = json.loads(capsys.readouterr().out)["stats"]
    variants = identity_variants(instance, count=3, seed=5)
    assert stats["id_rounds"] == len(variants) == 3
    each = [game_evaluate(resolve(name), v).stats for v in variants]
    assert stats["total_leaf_evaluations"] == sum(
        s.leaf_evaluations for s in each)
    assert stats["total_node_evaluations"] == sum(
        s.node_evaluations for s in each)


@pytest.mark.parametrize("argv, doc", [
    (["lift", "3col"], {"registered": "lift:3col", "levels": 1,
                        "pattern": "existential-1"}),
    (["collapse", "qbf"], {"registered": "collapse:qbf", "levels": 1,
                           "pattern": "existential-1"}),
    (["unanimous", "spanning-tree", "non-spanning-tree"],
     {"registered": "unanimous:spanning-tree+non-spanning-tree", "levels": 1,
      "pattern": "existential-1"}),
])
def test_transform_names_the_derived_protocol(capsys, argv, doc):
    assert main(["transform", *argv]) == 0
    assert json.loads(capsys.readouterr().out) == doc


@pytest.mark.parametrize("argv, message", [
    (["lift", "3col", "size"], "lift takes one protocol name"),
    (["collapse", "qbf", "nta"], "collapse takes one protocol name"),
    (["unanimous", "spanning-tree"], "unanimous takes two protocol names"),
    (["collapse", "3col"], "final universal level"),
])
def test_transform_refusals_exit_2(capsys, argv, message):
    assert main(["transform", *argv]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_export_writes_node_and_edge_lines(tmp_path, capsys):
    path = _write(tmp_path, "p3.json", _pointer_path())
    assert main(["export", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "graph locdec {",
        '  v0 [label="id=1\\nptr=root"];',
        '  v1 [label="id=2\\nptr=1"];',
        '  v2 [label="id=3\\nptr=2"];',
        "  v0 -- v1;",
        "  v1 -- v2;",
        "}"]


def test_export_colours_decisions_and_labels_weights(tmp_path, capsys):
    # Colours (1, 1, 2): the two ends of the first edge reject, node 2
    # accepts.
    graph = Graph(3, frozenset({(0, 1), (1, 2)}), {(0, 1): 2, (1, 2): 3})
    instance = Instance(graph, IdAssignment((1, 2, 3), 9),
                        InputAssignment((1, 1, 2)))
    path = _write(tmp_path, "p3.json", instance)
    report = tmp_path / "report.json"
    assert main(["check", "3col", str(path)]) == 1
    report.write_text(capsys.readouterr().out)
    assert main(["export", str(path), "--report", str(report)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "graph locdec {",
        '  v0 [label="id=1\\nx=1\\nreject", color=red];',
        '  v1 [label="id=2\\nx=1\\nreject", color=red];',
        '  v2 [label="id=3\\nx=2\\naccept", color=green];',
        '  v0 -- v1 [label="2"];',
        '  v1 -- v2 [label="3"];',
        "}"]


@pytest.mark.parametrize("inputs, texts", [
    ((Marks({2}), Marks({1, 3}), None), ["marks={2}", "marks={1,3}", None]),
    ((Marks(()), Ptr(None), 0), ["marks={}", "ptr=root", "x=0"]),
    ((Lit(1, 1), Lit(1, -1), Cls()), ["lit=+1", "lit=-1", "clause"]),
])
def test_export_names_each_input_kind(tmp_path, capsys, inputs, texts):
    instance = Instance(path_graph(3), IdAssignment((1, 2, 3), 9),
                        InputAssignment(inputs))
    assert main(["export", str(_write(tmp_path, "p3.json", instance))]) == 0
    lines = capsys.readouterr().out.splitlines()
    for v, text in enumerate(texts):
        tail = "" if text is None else "\\n" + text
        assert lines[1 + v] == f'  v{v} [label="id={v + 1}{tail}"];'


def test_export_refuses_a_report_for_another_instance(tmp_path, capsys):
    path = _write(tmp_path, "p3.json", _pointer_path())
    other = _write(tmp_path, "other.json", Instance(
        path_graph(3), IdAssignment((3, 2, 1), 9), InputAssignment((None,) * 3)))
    report = tmp_path / "report.json"
    assert main(["check", "3col", str(other)]) == 1
    report.write_text(capsys.readouterr().out)
    assert main(["export", str(path), "--report", str(report)]) == 2
    captured = capsys.readouterr()
    assert "different instance" in captured.err and captured.out == ""
