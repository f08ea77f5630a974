"""Forced lines: a game that searches no level decides its one line once.

A protocol with no levels, or constructive play of one prover level, has
one line.  ``game_evaluate`` decides it in one ``evaluate`` call that is
both the leaf and the replay: each ball is built once, each view decided
twice, and the counts are those of a hint-free search of its one leaf.
"""
from __future__ import annotations

import pytest

from locdec import runtime
from locdec.engine import (CONSTRUCTIVE, EXHAUSTIVE, EvalMode, game_evaluate,
                           identity_variants)
from locdec.gen import grid_graph, path_graph
from locdec.graphs import IdAssignment, InputAssignment, Instance
from locdec.protocol import PROVER, Protocol, ProtocolError
from locdec.protocols import names, resolve
from locdec.runtime import LocalVerifier, ViewStore, first_rejection

from corpus import TRANSFORMS, plain_instance, small_instances

PARITY = ("3col", "size", "spanning-tree", "non-spanning-tree")


@pytest.mark.parametrize("name", PARITY)
def test_a_forced_line_plays_what_the_search_plays(name):
    # On a one-level protocol the exhaustive game searches the cover, so
    # this compares the forced line with the search path, stats included.
    protocol = resolve(name)
    for base in small_instances(name):
        for inst in identity_variants(base, 3):
            assert game_evaluate(protocol, inst, CONSTRUCTIVE) \
                == game_evaluate(protocol, inst, EXHAUSTIVE)


def _one_prover_level(name: str) -> bool:
    protocol = resolve(name)
    return protocol.level_count == 1 and protocol.first == PROVER


ONE_PROVER_LEVEL = tuple(filter(_one_prover_level, (*names(), *TRANSFORMS)))


def test_every_one_prover_level_name_is_swept():
    assert {"size", "lift:3col", "collapse:qbf",
            "unanimous:spanning-tree+non-spanning-tree"} <= set(ONE_PROVER_LEVEL)


@pytest.mark.parametrize("name", ONE_PROVER_LEVEL)
def test_a_forced_line_is_its_own_replay(name):
    protocol = resolve(name)
    for inst in small_instances(name):
        outcome = game_evaluate(protocol, inst, CONSTRUCTIVE)
        assert outcome.leaf == runtime.evaluate(protocol.verifier, inst,
                                                outcome.line)
        views = ViewStore(inst, protocol.verifier.radius)
        first_rejection(protocol.verifier, inst, outcome.line, views=views)
        assert outcome.stats.node_evaluations == views.served
        assert outcome.stats.leaf_evaluations == 1
        assert outcome.stats.views_reused == outcome.stats.first_refutations == 0


def _grid(side: int, inputs) -> Instance:
    n = side * side
    return Instance(grid_graph(side, side), IdAssignment.default(n),
                    InputAssignment(tuple(inputs(v) for v in range(n))))


@pytest.mark.parametrize("name,inst", [
    ("size", _grid(4, lambda v: 16)),
    ("3col", _grid(4, lambda v: 1 + (v // 4 + v % 4) % 2)),
])
def test_a_forced_line_builds_each_ball_once(monkeypatch, name, inst):
    built = []
    build = runtime.ball

    def counted_ball(*args):
        built.append(args[2])
        return build(*args)

    monkeypatch.setattr(runtime, "ball", counted_ball)
    outcome = game_evaluate(resolve(name), inst,
                            EvalMode(constructive=True, node_cap=inst.n))
    assert outcome.verdict
    assert sorted(built) == list(range(inst.n))


def test_a_forced_line_refuses_a_verifier_that_answers_twice_apart():
    decided = {v: 0 for v in range(3)}

    def second_call_at_node_2_rejects(view) -> bool:
        decided[view.centre] += 1
        return not (view.centre == 2 and decided[2] == 2)

    impure = Protocol("impure", PROVER, (),
                      LocalVerifier(1, 0, second_call_at_node_2_rejects))
    with pytest.raises(ProtocolError, match="not a pure function"):
        game_evaluate(impure, plain_instance(path_graph(3)))
    assert decided == {0: 2, 1: 2, 2: 2}
