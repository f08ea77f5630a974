"""``protocol.keep_last``: a fact derived from the game's instance object
is derived once per game.

qbf's covers and strategies read the decoded formula through it, and
nta's refute and rebut levels read the mapped instance of an image move
through it.
"""
from __future__ import annotations

import pytest

from locdec import gen
from locdec.engine import CONSTRUCTIVE, EXHAUSTIVE, EvalMode, game_evaluate
from locdec.graphs import InstanceError
from locdec.protocol import keep_last
from locdec.protocols import qbf, resolve


def test_the_last_result_is_kept_by_argument_identity():
    calls = []

    @keep_last
    def pair(a, b):
        calls.append((a, b))
        return [a, b]

    x, y = [1], [2]
    first = pair(x, y)
    assert pair(x, y) is first
    # Equal but distinct arguments are a new call.
    assert pair([1], y) == first
    assert len(calls) == 2
    # Only the last call is kept.
    assert pair(x, y) is not first
    assert len(calls) == 3


def test_a_call_that_raises_keeps_nothing():
    calls = []

    @keep_last
    def fails(a):
        calls.append(a)
        raise ValueError(a)

    arg = object()
    for _ in range(2):
        with pytest.raises(ValueError):
            fails(arg)
    assert calls == [arg, arg]


def _formula_instances(count: int):
    out, seed = [], 0
    while len(out) < count:
        try:
            out.append(qbf.encode_qbf(gen.random_formula(
                seed, max_vars=6, max_clauses=6, k=2)))
        except InstanceError:
            pass  # a disconnected formula graph
        seed += 1
    return out


@pytest.mark.parametrize("mode", [EXHAUSTIVE, CONSTRUCTIVE],
                         ids=["exhaustive", "constructive"])
def test_qbf_decodes_its_formula_once_per_game(monkeypatch, mode):
    decoded = []
    decode = qbf._formula_view

    def counted(instance):
        decoded.append(instance)
        return decode(instance)

    monkeypatch.setattr(qbf, "_formula_view", counted)
    protocol = resolve("qbf")
    mode = EvalMode(constructive=mode.constructive, node_cap=32)
    for inst in _formula_instances(6):
        decoded.clear()
        game_evaluate(protocol, inst, mode)
        assert decoded == [inst]
