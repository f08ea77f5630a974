"""Refuter-first leaves: the hinted node is decided first, nothing changes
but the number of decisions.

``ViewStore.first_rejection`` decides an optional hinted node, then every
other node in node order, each once.  ``game_evaluate`` hints, at each
leaf, the node that last rejected a leaf at the same final-level cover
position.  Verdicts, lines, leaf decisions and leaf counts must equal
those of a game whose hints are dropped.
"""
from __future__ import annotations

from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locdec.engine import CONSTRUCTIVE, EXHAUSTIVE, game_evaluate, relabel_identities
from locdec.gen import path_graph
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


def test_a_rejecting_hint_settles_the_leaf_at_one_decision():
    verifier, decided = _recording(frozenset({0, 3}))
    inst = plain_instance(path_graph(4))
    views = ViewStore(inst, verifier.radius)
    assert views.first_rejection(verifier.decide, (), 3) == 3
    assert decided == [3]
    assert views.served == 1


# ---------------------------------------------------------------------------
# the game's hints


_LEAF_LOOP = ViewStore.first_rejection


def _hint_free(store, decide, rows, first=None):
    return _LEAF_LOOP(store, decide, rows)


def _play_hint_free(protocol, inst, mode):
    """The game with every leaf's hint dropped: the leaf loop the game's
    store runs is patched to ignore ``first``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ViewStore, "first_rejection", _hint_free)
        return game_evaluate(protocol, inst, mode)


class Val(NamedTuple):
    val: int


def _last_node_rejects(n: int, m: int) -> Protocol:
    """A prover level whose cover has m moves, then a disprover level
    with one; the verifier rejects at node n - 1 alone, so every leaf loses
    and every leaf sits at final-level position 0.  (In a one-level game
    each position is met once, so the table never hints.)"""

    def domain_of(n: int, N: int) -> LabelDomain:
        return LabelDomain("val", 4, n, N, (range_field("val", 0, m - 1),), Val)

    def cover(instance, earlier):
        for j in range(m):
            yield Labelling((Val(j),) * instance.n)

    def one_move(instance, earlier):
        yield Labelling((Val(0),) * instance.n)

    return Protocol("last-rejects", PROVER,
                    (Level(domain_of, cover), Level(domain_of, one_move)),
                    LocalVerifier(0, 2, lambda view: view.centre != n - 1))


@pytest.mark.parametrize("n,m", [(1, 1), (1, 5), (3, 1), (3, 4), (5, 7)])
def test_one_rejecter_is_found_once_per_game(n, m):
    protocol = _last_node_rejects(n, m)
    inst = plain_instance(path_graph(n))
    stats = game_evaluate(protocol, inst, EXHAUSTIVE).stats
    assert stats.leaf_evaluations == m
    assert stats.node_evaluations == n + (m - 1)
    assert stats.first_refutations == m - 1
    assert _play_hint_free(protocol, inst, EXHAUSTIVE).stats \
        .node_evaluations == n * m


def _outcome(protocol, inst, mode, play):
    try:
        return play(protocol, inst, mode)
    except Exception as exc:  # both runs must fail alike
        return type(exc), str(exc)


@pytest.mark.parametrize("constructive", [False, True],
                         ids=["exhaustive", "constructive"])
@pytest.mark.parametrize("name", (*names(), *TRANSFORMS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_hints_change_only_the_decision_count(name, constructive, data):
    base = data.draw(st.sampled_from(small_instances(name)))
    ids = data.draw(st.permutations(range(1, base.N + 1)))[:base.n]
    inst = relabel_identities(base, ids)
    protocol = resolve(name)
    mode = CONSTRUCTIVE if constructive else EXHAUSTIVE
    hinted = _outcome(protocol, inst, mode, game_evaluate)
    plain = _outcome(protocol, inst, mode, _play_hint_free)
    if isinstance(plain, tuple):
        assert hinted == plain
        return
    assert hinted.verdict == plain.verdict
    assert hinted.line == plain.line
    assert hinted.leaf == plain.leaf
    assert hinted.stats.leaf_evaluations == plain.stats.leaf_evaluations
    assert hinted.stats.node_evaluations <= (plain.stats.node_evaluations
                                             + plain.stats.leaf_evaluations)
    assert hinted.stats.first_refutations <= hinted.stats.leaf_evaluations
