from __future__ import annotations

import pytest

from locdec import runtime
from locdec.engine import CONSTRUCTIVE, EvalMode, game_evaluate
from locdec.gen import grid_graph
from locdec.graphs import Graph, IdAssignment
from locdec.protocols import resolve
from locdec.runtime import (Decision, LocalVerifier, VerifierError, ViewStore,
                            evaluate)

from corpus import c4, p3, plain_instance


def colour_verifier(palette: int = 3) -> LocalVerifier:
    def decide(ball):
        c = ball.own_input
        if not isinstance(c, int) or not 1 <= c <= palette:
            return False
        return all(ball.input_of(u) != c for u in ball.neighbours(ball.centre))
    return LocalVerifier(radius=1, layer_count=0, decide=decide)


def triangle_with_colours(colours):
    g = Graph(3, frozenset({(0, 1), (1, 2), (0, 2)}))
    return plain_instance(g).with_inputs(colours)


def test_proper_colouring_accepts():
    d = evaluate(colour_verifier(), triangle_with_colours((1, 2, 3)))
    assert d.accepts == (True, True, True)
    assert d.verdict is True
    assert d.rejecting_nodes == ()


def test_monochromatic_edge_rejects_both_endpoints():
    d = evaluate(colour_verifier(), triangle_with_colours((1, 1, 2)))
    assert d.accepts == (False, False, True)
    assert d.verdict is False
    assert d.rejecting_nodes == (0, 1)


def test_out_of_palette_rejects_at_that_node():
    g = Graph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}))
    good = plain_instance(g).with_inputs((1, 2, 1, 2, 3))
    assert evaluate(colour_verifier(), good).verdict is True
    bad = plain_instance(g).with_inputs((1, 2, 1, 2, 4))
    d = evaluate(colour_verifier(), bad)
    assert d.rejecting_nodes == (4,)


def test_layer_count_mismatch():
    inst = plain_instance(p3())
    v = LocalVerifier(radius=1, layer_count=1, decide=lambda b: True)
    with pytest.raises(VerifierError, match="reads 1 labelling"):
        evaluate(v, inst, ())
    with pytest.raises(VerifierError, match="reads 1 labelling"):
        evaluate(v, inst, ((0, 0, 0), (0, 0, 0)))


def test_partial_labelling_rejected():
    inst = plain_instance(p3())
    v = LocalVerifier(radius=1, layer_count=1, decide=lambda b: True)
    with pytest.raises(VerifierError, match="covers 2 nodes"):
        evaluate(v, inst, ((0, 0),))


def test_label_reading_verifier():
    # Layer holds id parity; radius 0 suffices to check it.
    inst = plain_instance(p3())
    v = LocalVerifier(radius=0, layer_count=1,
                      decide=lambda b: b.own_label(0) == b.own_id % 2)
    assert evaluate(v, inst, ((1, 0, 1),)).verdict is True
    d = evaluate(v, inst, ((1, 1, 1),))
    assert d.rejecting_nodes == (1,)


def test_bad_verifier_parameters():
    with pytest.raises(VerifierError):
        LocalVerifier(radius=-1, layer_count=0, decide=lambda b: True)
    with pytest.raises(VerifierError):
        LocalVerifier(radius=0, layer_count=-2, decide=lambda b: True)


def test_verdict_is_conjunction():
    assert Decision((True, True, True)).verdict is True
    for flip in range(3):
        accepts = tuple(i != flip for i in range(3))
        assert Decision(accepts).verdict is False


def test_decision_accepts_by_node():
    d = Decision((True, False))
    assert d.accepts[0] is True and d.accepts[1] is False


def test_decisions_ignore_ids_outside_ball():
    # Radius-1 decision at a node is blind to the antipodal identity on C4.
    def decide(ball):
        return (ball.own_id + sum(ball.id_of(u) for u in ball.neighbours(ball.centre))) % 2 == 0
    v = LocalVerifier(radius=1, layer_count=0, decide=decide)
    a = plain_instance(c4(), IdAssignment((1, 2, 3, 4), 16))
    b = plain_instance(c4(), IdAssignment((1, 2, 9, 4), 16))
    assert evaluate(v, a).accepts[0] == evaluate(v, b).accepts[0]


def test_evaluate_is_deterministic():
    inst = triangle_with_colours((1, 1, 2))
    assert evaluate(colour_verifier(), inst) == evaluate(colour_verifier(), inst)


def test_verdict_early_exit_and_served_count():
    inst = plain_instance(p3())
    views = ViewStore(inst, 0)
    assert views.first_rejection(lambda b: False, ()) == 0
    assert views.served == 1
    views = ViewStore(inst, 0)
    assert views.first_rejection(lambda b: True, ()) is None
    assert views.served == 3


# ---------------------------------------------------------------------------
# one-shot evaluations build plain fresh views, through `runtime.ball`


@pytest.fixture
def counted(monkeypatch):
    """The centres `runtime.ball` builds views of, and the number of
    `ViewStore`s constructed, under any name."""
    built: list[int] = []
    stores = [0]
    build, init = runtime.ball, ViewStore.__init__

    def counted_ball(instance, labellings, v, t):
        built.append(v)
        return build(instance, labellings, v, t)

    def counted_init(self, *args):
        stores[0] += 1
        init(self, *args)

    monkeypatch.setattr(runtime, "ball", counted_ball)
    monkeypatch.setattr(ViewStore, "__init__", counted_init)
    return built, stores


def _grid_size_instance():
    return plain_instance(grid_graph(3, 3)).with_inputs((9,) * 9)


def test_evaluate_builds_one_view_per_node_and_no_store(counted):
    built, stores = counted
    d = evaluate(colour_verifier(), triangle_with_colours((1, 1, 2)))
    assert d.accepts == (False, False, True)
    assert built == [0, 1, 2]
    assert stores == [0]


def test_a_forced_line_makes_no_store(counted):
    built, stores = counted
    outcome = game_evaluate(resolve("size"), _grid_size_instance(),
                            EvalMode(constructive=True, node_cap=9))
    assert outcome.verdict
    assert sorted(built) == list(range(9))
    assert stores == [0]


def test_the_lift_final_strategy_makes_no_store(counted):
    built, stores = counted
    inst = triangle_with_colours((1, 1, 2))
    lift = resolve("lift:3col")
    move = lift.levels[0].strategy(inst, ())
    # The tree is rooted at the lowest-identity rejecting node, node 0.
    assert move[0].parent is None
    assert built == [0, 1, 2]
    assert stores == [0]
    assert game_evaluate(lift, inst, CONSTRUCTIVE).verdict
    assert stores == [0]


def test_a_searched_game_makes_one_store(counted):
    built, stores = counted
    outcome = game_evaluate(resolve("size"), _grid_size_instance(),
                            EvalMode(node_cap=9))
    assert outcome.verdict and outcome.stats.node_evaluations == 9
    assert stores == [1]
    # One view per node for the searched leaf, through the store, and one
    # for the replay.
    assert sorted(built) == sorted(list(range(9)) * 2)
