"""Refuter-first leaves: the hinted node is decided first, then the
store's recent rejecters, and nothing changes but the number of decisions.

``ViewStore.first_rejection`` asks an optional hinted node, then every
other node in the store's order, each once; a node found rejecting in
that scan moves to the front of the order.  A fresh store's order is node
order.  ``ViewStore.leaf`` hints, at each leaf, the node that last
rejected a leaf at the same final-level cover position.  Verdicts, lines,
leaf decisions and leaf counts must equal those of a game whose hints are
dropped, and those of a reference leaf loop in plain node order that
decides every node it asks.
"""
from __future__ import annotations

from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locdec.engine import CONSTRUCTIVE, EXHAUSTIVE, game_evaluate, relabel_identities
from locdec.gen import path_graph
from locdec.graphs import ball
from locdec.labels import LabelDomain, Labelling, range_field
from locdec.protocol import PROVER, Level, Protocol
from locdec.protocols import names, resolve
from locdec.runtime import LocalVerifier, ViewStore

from corpus import TRANSFORMS, plain_instance, small_instances


def _recording(rejects: frozenset[int]):
    decided = []

    def decide(view) -> bool:
        decided.append(view.centre)
        return view.centre not in rejects

    return LocalVerifier(0, 0, decide), decided


# ---------------------------------------------------------------------------
# the order rule


@pytest.mark.parametrize("first,order", [
    (None, [0, 1, 2, 3]), (0, [0, 1, 2, 3]), (2, [2, 0, 1, 3]),
    (3, [3, 0, 1, 2])])
def test_every_node_is_decided_once_hinted_node_first(first, order):
    verifier, decided = _recording(frozenset())
    inst = plain_instance(path_graph(4))
    views = ViewStore(inst, verifier.radius)
    assert views.first_rejection(verifier.decide, (), first) is None
    assert decided == order


def test_an_accepting_hint_leaves_the_rest_to_node_order():
    verifier, decided = _recording(frozenset({0, 3}))
    inst = plain_instance(path_graph(4))
    views = ViewStore(inst, verifier.radius)
    assert views.first_rejection(verifier.decide, (), 2) == 0
    assert decided == [2, 0]


def test_a_rejecter_found_in_the_scan_moves_to_the_front():
    # A node rejects where its label is 1.  A node whose label is the one
    # of its last decision is not decided again: the store answers with
    # that decision's verdict.
    decided = []

    def decide(view) -> bool:
        decided.append(view.centre)
        return view.own_label(0) == 0

    def rejecting(*nodes):
        return (tuple(int(v in nodes) for v in range(4)),)

    views = ViewStore(plain_instance(path_graph(4)), 0)
    assert views.first_rejection(decide, rejecting(2)) == 2
    assert views.order == [2, 0, 1, 3]
    assert views.first_rejection(decide, rejecting(3)) == 3
    assert views.order == [3, 2, 0, 1]
    # A rejecting hint ends the leaf before the scan, so it stays in place.
    assert views.first_rejection(decide, rejecting(1), 1) == 1
    assert views.order == [3, 2, 0, 1]
    assert views.first_rejection(decide, rejecting(1), 0) == 1
    assert views.order == [1, 3, 2, 0]
    assert decided == [0, 1, 2, 2, 3, 1, 3]
    assert views.served + views.reused == 12


def test_a_rejecting_hint_settles_the_leaf_at_one_decision():
    verifier, decided = _recording(frozenset({0, 3}))
    inst = plain_instance(path_graph(4))
    views = ViewStore(inst, verifier.radius)
    assert views.first_rejection(verifier.decide, (), 3) == 3
    assert decided == [3]
    assert views.served == views.first_refutations == 1


# ---------------------------------------------------------------------------
# the game's hints


_LEAF_LOOP = ViewStore.first_rejection


def _hint_free(store, decide, rows, first=None):
    return _LEAF_LOOP(store, decide, rows)


def _in_node_order(store, decide, rows, first=None):
    """The reference leaf loop: no hint, every node in node order, each
    decided on a fresh view from `ball` and counted in the store's
    ``served``, no verdict reused and nothing moved to the front."""
    for v in range(store.instance.n):
        store.served += 1
        if not decide(ball(store.instance, rows, v, store.radius)):
            return v
    return None


def _play_with(leaf_loop):
    def play(protocol, inst, mode):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ViewStore, "first_rejection", leaf_loop)
            return game_evaluate(protocol, inst, mode)
    return play


# The game with every leaf's hint dropped: the store's leaf loop, patched
# to ignore ``first``, still moves each rejecter to the front.
_play_hint_free = _play_with(_hint_free)
_play_in_node_order = _play_with(_in_node_order)


class Val(NamedTuple):
    val: int


def _val_level(m: int, moves) -> Level:
    """A level over values 0..max(m, 2) - 1 whose cover is ``moves``, each
    labelling every node alike."""

    def domain_of(n: int, N: int) -> LabelDomain:
        return LabelDomain("val", 4, n, N,
                           (range_field("val", 0, max(m, 2) - 1),), Val)

    def cover(instance, earlier):
        for j in moves:
            yield Labelling((Val(j),) * instance.n)

    return Level(domain_of, cover)


def _last_node_rejects(n: int, m: int, levels: int = 2) -> Protocol:
    """A prover level whose cover has m moves, then, when ``levels`` is 2,
    a disprover level with one; the verifier rejects at node n - 1 alone,
    so every leaf loses.  With two levels every leaf sits at final-level
    position 0; with one, each position is met once, so the table never
    hints."""
    return Protocol("last-rejects", PROVER,
                    (_val_level(m, range(m)), _val_level(m, (0,)))[:levels],
                    LocalVerifier(0, levels, lambda view: view.centre != n - 1))


def _rejecter_alternates(n: int, m: int) -> Protocol:
    """A prover level with m moves, a disprover level with one, and a
    prover level with two: every leaf loses, node n - 1 rejects the leaves
    at final-level position 0 and node n - 2 those at position 1."""

    def decide(view) -> bool:
        return view.centre != n - 1 - view.own_label(2).val

    return Protocol("alternating-rejecter", PROVER,
                    (_val_level(m, range(m)), _val_level(m, (0,)),
                     _val_level(m, (0, 1))),
                    LocalVerifier(0, 3, decide))


@pytest.mark.parametrize("n,m", [(1, 1), (1, 5), (3, 1), (3, 4), (5, 7)])
def test_one_rejecter_is_found_once_per_game(n, m):
    protocol = _last_node_rejects(n, m)
    inst = plain_instance(path_graph(n))
    stats = game_evaluate(protocol, inst, EXHAUSTIVE).stats
    assert stats.leaf_evaluations == m
    assert stats.node_evaluations == n + (m - 1)
    assert stats.first_refutations == m - 1
    # Without hints, the rejecter found at the first leaf is at the front
    # for the others.
    assert _play_hint_free(protocol, inst, EXHAUSTIVE).stats \
        .node_evaluations == n + (m - 1)
    assert _play_in_node_order(protocol, inst, EXHAUSTIVE).stats \
        .node_evaluations == n * m


@pytest.mark.parametrize("n,m", [(2, 1), (3, 4), (5, 7)])
def test_one_level_game_finds_its_rejecter_at_the_front(n, m):
    # Each leaf has its own position, so none is hinted: the first leaf
    # scans up to node n - 1, which then refutes every later leaf first.
    protocol = _last_node_rejects(n, m, levels=1)
    inst = plain_instance(path_graph(n))
    stats = game_evaluate(protocol, inst, EXHAUSTIVE).stats
    assert stats.leaf_evaluations == m
    assert stats.node_evaluations == n + (m - 1)
    assert stats.first_refutations == 0
    assert _play_in_node_order(protocol, inst, EXHAUSTIVE).stats \
        .node_evaluations == n * m


@pytest.mark.parametrize("n,m", [(2, 1), (3, 4), (5, 7)])
def test_a_rejecter_alternating_with_position_is_hinted_by_the_table(n, m):
    # The first leaf at each position scans in full (node n - 2 is last
    # in the order after node n - 1 moved to the front), and the table
    # hints every later leaf with its rejecter.  Without hints, each later
    # leaf's rejecter is second in the order.
    protocol = _rejecter_alternates(n, m)
    inst = plain_instance(path_graph(n))
    stats = game_evaluate(protocol, inst, EXHAUSTIVE).stats
    assert stats.leaf_evaluations == 2 * m
    assert stats.node_evaluations == 2 * n + (2 * m - 2)
    assert stats.first_refutations == 2 * m - 2
    assert _play_hint_free(protocol, inst, EXHAUSTIVE).stats \
        .node_evaluations == 2 * n + 2 * (2 * m - 2)
    assert _play_in_node_order(protocol, inst, EXHAUSTIVE).stats \
        .node_evaluations == m * (2 * n - 1)


def _outcome(protocol, inst, mode, play):
    try:
        return play(protocol, inst, mode)
    except Exception as exc:  # both runs must fail alike
        return type(exc), str(exc)


def _drawn_game(name, constructive, data):
    base = data.draw(st.sampled_from(small_instances(name)))
    ids = data.draw(st.permutations(range(1, base.N + 1)))[:base.n]
    mode = CONSTRUCTIVE if constructive else EXHAUSTIVE
    return resolve(name), relabel_identities(base, ids), mode


def _same_game(got, want) -> None:
    """Both runs failed alike, or played the same game leaf for leaf."""
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.verdict == want.verdict
    assert got.line == want.line
    assert got.leaf == want.leaf
    assert got.stats.leaf_evaluations == want.stats.leaf_evaluations


@pytest.mark.parametrize("constructive", [False, True],
                         ids=["exhaustive", "constructive"])
@pytest.mark.parametrize("name", (*names(), *TRANSFORMS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_hints_change_only_the_decision_count(name, constructive, data):
    protocol, inst, mode = _drawn_game(name, constructive, data)
    hinted = _outcome(protocol, inst, mode, game_evaluate)
    plain = _outcome(protocol, inst, mode, _play_hint_free)
    _same_game(hinted, plain)
    if isinstance(plain, tuple):
        return
    assert hinted.stats.node_evaluations <= (plain.stats.node_evaluations
                                             + plain.stats.leaf_evaluations)
    assert hinted.stats.first_refutations <= hinted.stats.leaf_evaluations


@pytest.mark.parametrize("constructive", [False, True],
                         ids=["exhaustive", "constructive"])
@pytest.mark.parametrize("name", (*names(), *TRANSFORMS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_games_equal_a_node_order_reference(name, constructive, data):
    protocol, inst, mode = _drawn_game(name, constructive, data)
    _same_game(_outcome(protocol, inst, mode, game_evaluate),
               _outcome(protocol, inst, mode, _play_in_node_order))
