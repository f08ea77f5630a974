"""A traced protocol plays the untraced game.

``perfbench/tracing.py`` times a protocol by wrapping every callable it
carries, a level's strategy among them.  A prover level with no strategy
stays without one, so constructive play still searches it.  The module
imports only the standard library and evicts no module, so it is loaded
here by file path.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

from locdec.engine import CONSTRUCTIVE, game_evaluate
from locdec.formulas import parse_formula
from locdec.protocols import resolve
from locdec.protocols.qbf import encode_qbf

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_traced_searched_level_plays_the_untraced_game():
    tracing = _tracing()
    protocol = resolve("qbf")
    traced = tracing.wrap_protocol(tracing.Tracer(), protocol)
    assert traced.levels[0].strategy is None
    inst = encode_qbf(parse_formula("Ey1 Ay2: (y1 | y2) & (y1 | y2)"))
    outcome = game_evaluate(traced, inst, CONSTRUCTIVE)
    assert outcome == game_evaluate(protocol, inst, CONSTRUCTIVE)
    assert outcome.verdict is True
