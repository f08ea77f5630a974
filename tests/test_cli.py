"""CLI run reports: emit and parse round trips."""

import json
import json.encoder

import pytest

from locdec.cli import (LABEL_RECORDS, _RECORDS, ReportError, build_report,
                        emit_report, main, parse_report)
from locdec.engine import EvalMode, game_evaluate
from locdec.formulas import parse_formula
from locdec.gen import grid_graph
from locdec.graphs import (Graph, IdAssignment, InputAssignment, Instance, Ptr,
                           instance_digest)
from locdec.protocols import names, resolve
from locdec.protocols.qbf import encode_qbf


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
    return build_report(protocol, inst, outcome)


def test_mst_report_round_trips_input_valued_labels():
    report = _mst_report()
    text = emit_report(report)
    assert '"k": "input"' in text
    assert parse_report(text) == report


def test_report_stats_round_trip_keeps_views_reused():
    report = _mst_report()
    assert set(report.stats) == {"leaf_evaluations", "node_evaluations",
                                 "views_reused"}
    assert parse_report(emit_report(report)).stats == report.stats


def test_malformed_input_value_in_report_is_rejected():
    text = emit_report(_mst_report()).replace('"kind": "ptr"', '"kind": "bogus"', 1)
    with pytest.raises(ReportError, match="malformed input record"):
        parse_report(text)


def test_report_layout_is_one_key_and_one_label_per_line():
    text = emit_report(_mst_report())
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
    doc = json.loads(emit_report(_mst_report()))
    doc[field] = value
    with pytest.raises(ReportError, match=field.rstrip("s")):
        parse_report(json.dumps(doc))


@pytest.mark.parametrize("path", [(0,), (1, "f", 0), (2, "f", 1)])
def test_boolean_label_values_are_rejected(path):
    # A top-level field of the first witness label, then fields of its
    # nested NSTCert and TreeCert records.
    doc = json.loads(emit_report(_mst_report()))
    fields = doc["witness"][0][0]["f"]
    for key in path[:-1]:
        fields = fields[key]
    fields[path[-1]] = True
    with pytest.raises(ReportError, match="JSON boolean"):
        parse_report(json.dumps(doc))


def test_export_refuses_a_report_with_missing_decisions(tmp_path, capsys):
    instance, report = tmp_path / "p3.json", tmp_path / "report.json"
    assert main(["gen", "path", "3", "-o", str(instance)]) == 0
    assert main(["check", "spanning-tree", str(instance)]) in (0, 1)
    doc = json.loads(capsys.readouterr().out)
    doc["decisions"] = doc["decisions"][:1]
    report.write_text(json.dumps(doc))
    assert main(["export", str(instance), "--report", str(report)]) == 2
    assert "1 decisions for 3 nodes" in capsys.readouterr().err


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


def _records_in(value, found: set) -> None:
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        found.add(type(value))
        for part in value:
            _records_in(part, found)


def test_record_registry_is_what_protocol_domains_decode():
    # Walk the all-zero label of every level of every protocol, through
    # nested record fields; the report registry must name exactly those.
    plain = Instance(Graph(3, frozenset({(0, 1), (1, 2)})),
                     IdAssignment((1, 2, 3), 9), InputAssignment((None,) * 3))
    formula = encode_qbf(parse_formula("Ey1 Ay2: (y1 | y2) & (y1 | ~y2)"))
    found: set = set()
    for name in (*names(), "lift:3col",
                 "unanimous:spanning-tree+non-spanning-tree", "collapse:qbf"):
        instance = formula if name.endswith("qbf") else plain
        for level in resolve(name).levels:
            domain = level.domain_of(instance.n, instance.N)
            _records_in(domain.decode(0), found)
    assert _RECORDS == {cls.__name__: cls for cls in found}
    assert len(LABEL_RECORDS) == len(_RECORDS) == 16


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
