"""CLI run reports: emit and parse round trips."""

import pytest

from locdec.cli import (LABEL_RECORDS, _RECORDS, ReportError, build_report,
                        emit_report, main, parse_report)
from locdec.engine import game_evaluate
from locdec.formulas import parse_formula
from locdec.graphs import Graph, IdAssignment, InputAssignment, Instance, Ptr
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
            _records_in(level.domain_of(instance).decode(0), found)
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
