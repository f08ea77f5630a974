"""CLI run reports: emit and parse round trips."""

import pytest

from locdec.cli import ReportError, build_report, emit_report, parse_report
from locdec.engine import game_evaluate
from locdec.graphs import Graph, IdAssignment, InputAssignment, Instance, Ptr
from locdec.protocols import resolve


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


def test_malformed_input_value_in_report_is_rejected():
    text = emit_report(_mst_report()).replace('"kind": "ptr"', '"kind": "bogus"', 1)
    with pytest.raises(ReportError, match="malformed input record"):
        parse_report(text)
