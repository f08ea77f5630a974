"""Forced lines: a game that searches no level decides its one line once.

A protocol with no levels, or constructive play of one prover level that
has a strategy, has one line.  ``game_evaluate`` decides it in one
``evaluate`` call that is both the leaf and the replay: each ball is
built once, each view up to the first rejecting one decided twice and
every later one once, and the counts are those of a hint-free search of
its one leaf.  A prover level with no strategy is searched in
constructive play too.
"""
from __future__ import annotations

import pytest

from locdec import runtime
from locdec.engine import (CONSTRUCTIVE, EXHAUSTIVE, EvalMode, game_evaluate,
                           identity_variants)
from locdec.gen import grid_graph, path_graph
from locdec.graphs import InputAssignment, Instance
from locdec.protocol import PROVER, Protocol, ProtocolError
from locdec.protocols import names, resolve
from locdec.runtime import LocalVerifier, ViewStore

from corpus import TRANSFORMS, default_ids, plain_instance, small_instances

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


def _one_prover_level(name: str, searched: bool) -> bool:
    protocol = resolve(name)
    return (protocol.level_count == 1 and protocol.first == PROVER
            and (protocol.levels[0].strategy is None) == searched)


ONE_PROVER_LEVEL = tuple(name for name in (*names(), *TRANSFORMS)
                         if _one_prover_level(name, searched=False))
# One prover level with no strategy, which the engine searches, so no forced
# line.
ONE_SEARCHED_LEVEL = tuple(name for name in (*names(), *TRANSFORMS)
                           if _one_prover_level(name, searched=True))


def test_every_one_prover_level_name_is_swept():
    assert {"size", "lift:3col",
            "unanimous:spanning-tree+non-spanning-tree"} <= set(ONE_PROVER_LEVEL)
    assert ONE_SEARCHED_LEVEL == ("collapse:qbf",)


@pytest.mark.parametrize("name", ONE_SEARCHED_LEVEL)
def test_a_searched_level_plays_what_exhaustive_play_plays(name):
    # Constructive play searches a strategy-less level's cover, leaves,
    # hints and replay included, so the whole outcome is exhaustive play's.
    protocol = resolve(name)
    leaves = []
    for base in small_instances(name):
        for inst in identity_variants(base, 3):
            outcome = game_evaluate(protocol, inst, CONSTRUCTIVE)
            assert outcome == game_evaluate(protocol, inst, EXHAUSTIVE)
            leaves.append(outcome.stats.leaf_evaluations)
    # A forced line has one leaf; a search that loses its first move tries
    # another.
    assert max(leaves) > 1


@pytest.mark.parametrize("name", ONE_PROVER_LEVEL)
def test_a_forced_line_is_its_own_replay(name):
    protocol = resolve(name)
    for inst in small_instances(name):
        outcome = game_evaluate(protocol, inst, CONSTRUCTIVE)
        assert outcome.leaf == runtime.evaluate(protocol.verifier, inst,
                                                outcome.line)
        views = ViewStore(inst, protocol.verifier.radius)
        views.first_rejection(protocol.verifier.decide, outcome.line)
        assert outcome.stats.node_evaluations == views.served
        assert outcome.stats.leaf_evaluations == 1
        assert outcome.stats.views_reused == outcome.stats.first_refutations == 0


def _grid(side: int, inputs) -> Instance:
    n = side * side
    return Instance(grid_graph(side, side), default_ids(n),
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


@pytest.mark.parametrize("r", range(4))
def test_a_rejected_forced_line_decides_twice_only_up_to_its_rejection(r):
    # Node r is the first to reject, and every later node rejects too: the
    # nodes up to r are decided twice, the n - r - 1 after it once.
    decided = []

    def rejects_from_r(view) -> bool:
        decided.append(view.centre)
        return view.centre < r

    n = 4
    outcome = game_evaluate(
        Protocol("from-r", PROVER, (), LocalVerifier(1, 0, rejects_from_r)),
        plain_instance(path_graph(n)))
    assert len(decided) == n + r + 1
    assert outcome.leaf.rejecting_nodes == tuple(range(r, n))
    assert outcome.stats.node_evaluations == r + 1


@pytest.mark.parametrize("apart", [0, 1, 2])
def test_a_rejected_forced_line_refuses_an_impure_node_up_to_its_rejection(
        apart):
    # Node 2 is the first to reject; node ``apart`` answers its second
    # decision the other way.
    decided = {v: 0 for v in range(4)}

    def second_call_at_apart_flips(view) -> bool:
        decided[view.centre] += 1
        accepts = view.centre != 2
        return accepts != (view.centre == apart and decided[apart] == 2)

    impure = Protocol("impure", PROVER, (),
                      LocalVerifier(1, 0, second_call_at_apart_flips))
    with pytest.raises(ProtocolError, match="not a pure function"):
        game_evaluate(impure, plain_instance(path_graph(4)))
    assert decided[apart] == 2
