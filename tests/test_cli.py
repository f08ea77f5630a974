"""CLI run reports: emit and parse round trips."""

import json
import json.encoder

import pytest

import locdec.cli
import locdec.protocols
from locdec.cli import ReportError, build_report, emit_report, main, parse_report
from locdec.engine import EvalMode, game_evaluate
from locdec.gen import grid_graph, path_graph
from locdec.graphs import (Graph, IdAssignment, InputAssignment, Instance, Ptr,
                           instance_digest)
from locdec.labels import INVALID
from locdec.protocols import resolve


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
                                 "views_reused", "first_refutations"}
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


def test_check_refuses_a_bad_eval_cap(tmp_path, capsys, monkeypatch):
    instance = tmp_path / "p3.json"
    assert main(["gen", "path", "3", "-o", str(instance)]) == 0
    monkeypatch.setenv("LOCDEC_MAX_EVALS", "abc")
    assert main(["check", "3col", str(instance)]) == 2
    assert "LOCDEC_MAX_EVALS" in capsys.readouterr().err


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
