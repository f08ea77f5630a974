from __future__ import annotations

from itertools import permutations, product
from typing import NamedTuple

import pytest

from locdec.engine import (CONSTRUCTIVE, EXHAUSTIVE, CapExceeded, CheckReport,
                           EvalMode, StrategyError, check_protocol,
                           game_evaluate, identity_variants,
                           relabel_identities)
from locdec.gen import (clique_graph, cycle_graph, grid_graph, path_graph,
                        star_graph)
from locdec.graphs import (IdAssignment, InputAssignment, Instance, Ptr, ball)
from locdec.labels import (INVALID, LabelDomain, Labelling, TreeCert,
                           build_bfs_tree, flag_field, tree_cert_domain)
from locdec.protocol import (DISPROVER, PROVER, LanguageSpec, Level,
                             Protocol, ProtocolError, all_invalid_labelling,
                             canonical_labelling, pattern_tag, product_cover)
from locdec.protocols.basic import (protocol_non_spanning_tree,
                                    protocol_proper_3colouring,
                                    protocol_size, protocol_spanning_tree,
                                    spanning_tree_inputs)
from locdec.protocols import names, resolve
from locdec.runtime import LocalVerifier, VerifierError, evaluate
from locdec.schemes import (build_non_spanning_tree_cert,
                            build_spanning_tree_cert, honest_tree)
from locdec.transforms import (CollapsedLabel, CombinedLabel,
                               collapse_last_universal, complement_lift,
                               shrink_ball, unanimous_combine)

from corpus import default_ids, plain_instance, with_label


# ---------------------------------------------------------------------------
# toy label domains and protocols


class Bit(NamedTuple):
    bit: int


class Tri(NamedTuple):
    val: int


def bit_domain(n: int, N: int) -> LabelDomain:
    return LabelDomain("bit", 1, n, N, (flag_field("bit", 2),), Bit)


def tri_domain(n: int, N: int) -> LabelDomain:
    return LabelDomain("tri", 2, n, N, (flag_field("val", 3),), Tri)


def _degree_at_most_two(ball_view) -> bool:
    return len(ball_view.neighbours(ball_view.centre)) <= 2


DEG2 = Protocol(
    "deg2", PROVER, (), LocalVerifier(1, 0, _degree_at_most_two),
    LanguageSpec(lambda inst: all(len(inst.graph.neighbours(v)) <= 2
                                  for v in range(inst.n))))


def _two_col_check(ball_view, layer: int) -> bool:
    own = ball_view.own_label(layer)
    if not isinstance(own, Bit):
        return False
    for w in ball_view.neighbours(ball_view.centre):
        other = ball_view.label(layer, w)
        if not isinstance(other, Bit) or other.bit == own.bit:
            return False
    return True


def _bipartite(instance: Instance) -> bool:
    colour = {0: 0}
    queue = [0]
    while queue:
        v = queue.pop()
        for w in instance.graph.neighbours(v):
            if w not in colour:
                colour[w] = 1 - colour[v]
                queue.append(w)
    return all(colour[u] != colour[v] for u, v in instance.graph.edges)


def _two_col_strategy(instance: Instance, earlier) -> Labelling:
    root = min(range(instance.n), key=instance.id_of)
    t = build_bfs_tree(instance, root)
    return Labelling(Bit(t.dist[v] % 2) for v in range(instance.n))


TWOCOL = Protocol(
    "2col", PROVER, (Level(bit_domain, None, _two_col_strategy),),
    LocalVerifier(1, 1, lambda b: _two_col_check(b, 0)),
    LanguageSpec(_bipartite))

# Verifier reads only the first layer; the universal round is dead weight.
IGNORE2 = Protocol(
    "ignore2", PROVER,
    (Level(bit_domain, None, _two_col_strategy), Level(bit_domain)),
    LocalVerifier(1, 2, lambda b: _two_col_check(b, 0)),
    LanguageSpec(_bipartite))

# Accepts wherever the own first-layer bit is one, whatever layer two says.
PARITY2 = Protocol(
    "parity2", PROVER,
    (Level(bit_domain, None,
           lambda inst, earlier: Labelling((Bit(1),) * inst.n)),
     Level(bit_domain)),
    LocalVerifier(1, 2,
                  lambda b: isinstance(b.own_label(0), Bit)
                  and b.own_label(0).bit == 1),
    LanguageSpec(lambda inst: True))

# The universal player can always kill this one with a nonzero value.
KILL2 = Protocol(
    "kill2", PROVER,
    (Level(bit_domain, None,
           lambda inst, earlier: Labelling((Bit(0),) * inst.n)),
     Level(tri_domain)),
    LocalVerifier(1, 2,
                  lambda b: isinstance(b.own_label(1), Tri)
                  and b.own_label(1).val == 0),
    LanguageSpec(lambda inst: False))

# Universal-first wrapper around the two-colouring level.
PI3 = Protocol(
    "pi3", DISPROVER,
    (Level(bit_domain),
     Level(bit_domain, None, _two_col_strategy),
     Level(bit_domain)),
    LocalVerifier(1, 3, lambda b: _two_col_check(b, 1)),
    LanguageSpec(_bipartite))

# One universal level and nothing before it.
PI1 = Protocol("pi1", DISPROVER, (Level(bit_domain),),
               LocalVerifier(1, 1, lambda b: True), None)


def p3_pointer_instance() -> Instance:
    return plain_instance(path_graph(3)).with_inputs(
        (Ptr(None), Ptr(1), Ptr(2)))


def k3_pointer_cycle() -> Instance:
    return plain_instance(clique_graph(3)).with_inputs(
        (Ptr(2), Ptr(3), Ptr(1)))


def p4_two_roots() -> Instance:
    return plain_instance(path_graph(4)).with_inputs(
        (Ptr(None), Ptr(1), Ptr(None), Ptr(3)))


def coloured(graph, colours) -> Instance:
    return plain_instance(graph).with_inputs(tuple(colours))


# ---------------------------------------------------------------------------
# game semantics


def test_level_zero_game():
    good = game_evaluate(DEG2, plain_instance(path_graph(3)))
    assert good.verdict is True and good.line == ()
    bad = game_evaluate(DEG2, plain_instance(star_graph(4)))
    assert bad.verdict is False
    assert bad.leaf.rejecting_nodes == (0,)


def test_two_col_game_witness_is_lex_least():
    out = game_evaluate(TWOCOL, plain_instance(path_graph(3)))
    assert out.verdict is True
    assert out.line == (Labelling((Bit(0), Bit(1), Bit(0))),)
    assert out.stats.leaf_evaluations == 3


def test_two_col_game_on_cycles():
    assert game_evaluate(TWOCOL, plain_instance(cycle_graph(4))).verdict is True
    out = game_evaluate(TWOCOL, plain_instance(cycle_graph(3)))
    assert out.verdict is False
    # The losing side records its first cover move.
    assert out.line == (Labelling((Bit(0), Bit(0), Bit(0))),)
    assert out.stats.leaf_evaluations == 8


def test_two_col_single_node():
    assert game_evaluate(TWOCOL, plain_instance(path_graph(1))).verdict is True


def test_constructive_matches_exhaustive():
    for graph in (path_graph(3), cycle_graph(3), cycle_graph(4), cycle_graph(5)):
        inst = plain_instance(graph)
        fast = game_evaluate(TWOCOL, inst, CONSTRUCTIVE)
        full = game_evaluate(TWOCOL, inst, EXHAUSTIVE)
        assert fast.verdict == full.verdict


def test_game_outcome_deterministic():
    inst = plain_instance(cycle_graph(4))
    assert game_evaluate(TWOCOL, inst) == game_evaluate(TWOCOL, inst)


def test_replay_matches_leaf():
    inst = plain_instance(cycle_graph(4))
    out = game_evaluate(TWOCOL, inst)
    assert out.leaf == evaluate(TWOCOL.verifier, inst, out.line)
    assert out.leaf.verdict == out.verdict


def test_spanning_tree_game_accepts_honest():
    inst = p3_pointer_instance()
    out = game_evaluate(protocol_spanning_tree(), inst)
    assert out.verdict is True
    honest = build_spanning_tree_cert(inst, frozenset({(0, 1), (1, 2)}), 0)
    assert out.line == (honest,)
    assert out.stats.leaf_evaluations == 1


def test_spanning_tree_game_rejects_cycle_and_two_roots():
    st = protocol_spanning_tree()
    assert game_evaluate(st, k3_pointer_cycle()).verdict is False
    assert game_evaluate(st, p4_two_roots()).verdict is False
    assert game_evaluate(st, k3_pointer_cycle(), CONSTRUCTIVE).verdict is False


def test_size_game():
    size = protocol_size()
    g = path_graph(3)
    yes = plain_instance(g).with_inputs((3, 3, 3))
    assert game_evaluate(size, yes).verdict is True
    for wrong in (2, 4):
        no = plain_instance(g).with_inputs((wrong,) * 3)
        assert game_evaluate(size, no).verdict is False
        assert game_evaluate(size, no, CONSTRUCTIVE).verdict is False


def test_non_spanning_tree_game():
    nst = protocol_non_spanning_tree()
    cyc = k3_pointer_cycle()
    out = game_evaluate(nst, cyc)
    assert out.verdict is True
    assert out.line == (build_non_spanning_tree_cert(cyc),)
    assert game_evaluate(nst, p3_pointer_instance()).verdict is False


# ---------------------------------------------------------------------------
# covers, caps, forfeits and error paths


def test_product_cover_identity_order():
    inst = Instance(path_graph(2), IdAssignment((2, 1), 4),
                    InputAssignment((None, None)))
    got = list(product_cover(inst, bit_domain(inst.n, inst.N)))
    # Node 1 holds the smaller identity, so it is the slow axis.
    assert got == [Labelling((Bit(0), Bit(0))), Labelling((Bit(1), Bit(0))),
                   Labelling((Bit(0), Bit(1))), Labelling((Bit(1), Bit(1)))]


def test_product_cover_appends_invalid():
    inst = plain_instance(path_graph(2))
    got = list(product_cover(inst, tri_domain(inst.n, inst.N)))
    # Three values, then INVALID for the spare pattern, at each node.
    assert len(got) == 16
    assert got[:4] == [Labelling((Tri(0), x))
                       for x in (Tri(0), Tri(1), Tri(2), INVALID)]
    assert got[-1] == Labelling((INVALID, INVALID))
    # A gap-free encoding has no INVALID to add.
    assert len(list(product_cover(inst, bit_domain(inst.n, inst.N)))) == 4


def test_level_without_cover_gets_the_product():
    level = Level(tree_cert_domain)
    assert level.cover is not None
    inst = plain_instance(path_graph(2))
    moves = list(level.cover(inst, ()))
    axis = tree_cert_domain(inst.n, inst.N).size + 1
    assert len(moves) == axis ** 2
    assert moves[-1] == Labelling((INVALID, INVALID))
    assert any(INVALID in move for move in moves)


def test_canonical_and_invalid_labellings():
    inst = plain_instance(path_graph(3))
    assert canonical_labelling(tree_cert_domain(inst.n, inst.N)) == Labelling(
        (TreeCert(1, None, 0),) * 3)
    assert all_invalid_labelling(2) == Labelling((INVALID, INVALID))


def test_a_labelling_is_the_tuple_of_its_labels():
    labels = (Bit(0), INVALID, Bit(1))
    lab = Labelling(label for label in labels)
    assert isinstance(lab, tuple)
    assert lab == labels and hash(lab) == hash(labels)
    assert lab.values is lab
    swapped = with_label(lab, 1, Bit(0))
    assert type(swapped) is Labelling
    assert swapped == (Bit(0), Bit(0), Bit(1)) and lab == labels
    assert not hasattr(lab, "__dict__")


@pytest.mark.parametrize("accepts", [
    # The prover wins: every disprover move is tried, the forfeit too.
    lambda b: isinstance(b.own_label(0), Bit) and b.own_label(0).bit == 1,
    # The disprover wins with a nonzero value.
    lambda b: isinstance(b.own_label(1), Tri) and b.own_label(1).val == 0,
], ids=["prover-wins", "disprover-wins"])
def test_a_cover_of_plain_tuples_plays_the_labelling_game(accepts):
    def cover(domain_of, wrap):
        return lambda inst, earlier: (
            wrap(move) for move in product_cover(inst, domain_of(inst.n, inst.N)))

    def game(wrap):
        # Level 2's product over ``tri`` holds the all-INVALID forfeit.
        protocol = Protocol(
            "cover-" + wrap.__name__, PROVER,
            (Level(bit_domain, cover(bit_domain, wrap)),
             Level(tri_domain, cover(tri_domain, wrap))),
            LocalVerifier(1, 2, accepts))
        return game_evaluate(protocol, plain_instance(path_graph(2)), EXHAUSTIVE)

    plain = game(tuple)
    assert all(type(move) is tuple for move in plain.line)
    assert plain == game(Labelling)


def test_universal_forfeit_only_with_spare_patterns():
    def structured(ball_view) -> bool:
        return isinstance(ball_view.own_label(0), (Bit, Tri))

    single = lambda maker: (
        lambda inst, earlier: [Labelling((maker,) * inst.n)])
    over_tri = Protocol("pi1-tri", DISPROVER,
                        (Level(tri_domain, single(Tri(0))),),
                        LocalVerifier(1, 1, structured))
    over_bit = Protocol("pi1-bit", DISPROVER,
                        (Level(bit_domain, single(Bit(0))),),
                        LocalVerifier(1, 1, structured))
    inst = plain_instance(path_graph(2))
    # Spare bit patterns let the disprover refuse to label; a gap-free
    # encoding gives it no such move.
    assert game_evaluate(over_tri, inst).verdict is False
    assert game_evaluate(over_bit, inst).verdict is True


def test_empty_existential_cover_forces_canonical():
    all_zero = Protocol(
        "zero", PROVER,
        (Level(bit_domain, lambda inst, earlier: ()),),
        LocalVerifier(1, 1,
                      lambda b: isinstance(b.own_label(0), Bit)
                      and b.own_label(0).bit == 0))
    out = game_evaluate(all_zero, plain_instance(path_graph(2)))
    assert out.verdict is True
    assert out.line == (Labelling((Bit(0), Bit(0))),)


def test_node_cap():
    with pytest.raises(CapExceeded, match="5 nodes"):
        game_evaluate(TWOCOL, plain_instance(cycle_graph(5)),
                      EvalMode(node_cap=4))


def test_move_cap_refuses_large_default_cover():
    # C4 is two-coloured by the sixth product move, inside the cap.
    out = game_evaluate(TWOCOL, plain_instance(cycle_graph(4)),
                        EvalMode(move_cap=10))
    assert out.verdict is True
    # C5 has no winning move, so all 32 would be drawn.
    with pytest.raises(CapExceeded, match="exceeds the move cap"):
        game_evaluate(TWOCOL, plain_instance(cycle_graph(5)),
                      EvalMode(move_cap=10))


class Wide:
    """Stand-in domain with 10,000 values; counts the values read."""

    has_invalid = False

    def __init__(self, n: int, N: int) -> None:
        self.reads = 0

    def values(self):
        for i in range(10_000):
            self.reads += 1
            yield Bit(i)

    axis = LabelDomain.axis


def test_move_cap_bounds_the_product_axis_read():
    level = Level(Wide)
    never = Protocol("never", PROVER, (level,),
                     LocalVerifier(1, 1, lambda b: False))
    inst = plain_instance(path_graph(2))
    with pytest.raises(CapExceeded, match="exceeds the move cap 50"):
        game_evaluate(never, inst, EvalMode(move_cap=50))
    # One label per drawn move at most: the axis is never listed whole.
    assert level.domain_of(inst.n, inst.N).reads <= 51


def test_move_cap_counts_custom_cover():
    wide = Protocol(
        "wide", PROVER,
        (Level(bit_domain,
               lambda inst, earlier: (Labelling((Bit(1),) * inst.n)
                                      for _ in range(5))),),
        LocalVerifier(1, 1, lambda b: False))
    with pytest.raises(CapExceeded, match="exceeds the move cap"):
        game_evaluate(wide, plain_instance(path_graph(2)),
                      EvalMode(move_cap=3))


@pytest.mark.parametrize("first", [PROVER, DISPROVER])
def test_a_short_cover_move_is_refused_when_drawn(first):
    # Level 1 belongs to ``first``; its one move labels n - 1 nodes.  The
    # move is length-checked when drawn, so neither the next level's cover
    # nor any node decision is reached.
    asked = []

    def short(inst, earlier):
        yield Labelling((Bit(0),) * (inst.n - 1))

    def full(inst, earlier):
        asked.append(earlier)
        yield Labelling((Bit(0),) * inst.n)

    def decide(ball_view) -> bool:
        asked.append(ball_view.centre)
        return True

    protocol = Protocol("short-" + first, first,
                        (Level(bit_domain, short), Level(bit_domain, full)),
                        LocalVerifier(0, 2, decide))
    with pytest.raises(VerifierError,
                       match="labelling 0 covers 2 nodes, instance has 3"):
        game_evaluate(protocol, plain_instance(path_graph(3)), EXHAUSTIVE)
    assert asked == []


def test_eval_cap_counts_leaves():
    with pytest.raises(CapExceeded, match="leaf evaluations"):
        game_evaluate(TWOCOL, plain_instance(cycle_graph(5)),
                      EvalMode(eval_cap=10))


@pytest.mark.parametrize("cap", ["node_cap", "move_cap", "eval_cap"])
@pytest.mark.parametrize("bad", [0, -1, True, 2.0, "3", None])
def test_caps_must_be_positive_integers(cap, bad):
    with pytest.raises(ValueError, match=f"{cap} must be a positive integer"):
        EvalMode(**{cap: bad})


@pytest.mark.parametrize("bad", [frozenset({1}), 1, None, "yes"])
def test_constructive_must_be_a_bool(bad):
    with pytest.raises(ValueError, match="constructive must be a bool"):
        EvalMode(constructive=bad)


def test_caps_accept_one():
    assert EvalMode(node_cap=1, move_cap=1, eval_cap=1).eval_cap == 1


def test_a_prover_level_without_a_strategy_is_searched():
    # Constructive play searches the level's cover, as exhaustive play
    # does, so the whole outcome is exhaustive play's, stats included.
    bare = Protocol("bare", PROVER, (Level(bit_domain),),
                    LocalVerifier(1, 1, lambda b: _two_col_check(b, 0)))
    verdicts = []
    for graph in (path_graph(3), cycle_graph(3)):
        inst = plain_instance(graph)
        outcome = game_evaluate(bare, inst, CONSTRUCTIVE)
        assert outcome == game_evaluate(bare, inst, EXHAUSTIVE)
        assert outcome.stats.leaf_evaluations > 1
        verdicts.append(outcome.verdict)
    assert verdicts == [True, False]


def test_strategy_outside_domain_is_an_error():
    broken = Protocol(
        "broken-strategy", PROVER,
        (Level(bit_domain, None,
               lambda inst, earlier: Labelling((Bit(7),) * inst.n)),),
        LocalVerifier(1, 1, lambda b: True))
    with pytest.raises(StrategyError, match="level 1 strategy"):
        game_evaluate(broken, plain_instance(path_graph(2)), CONSTRUCTIVE)


def test_a_strategy_of_plain_tuples_is_an_error():
    # The honest tree as plain tuples: no verifier reads a tuple as a
    # TreeCert, so the move is outside the level's domain.
    tuples = Protocol(
        "tuple-strategy", PROVER,
        (Level(tree_cert_domain, None,
               lambda inst, earlier: Labelling(
                   tuple(c) for c in honest_tree(inst, 0))),),
        LocalVerifier(1, 1, lambda b: True))
    with pytest.raises(StrategyError, match="not in domain tree-cert"):
        game_evaluate(tuples, plain_instance(path_graph(3)), CONSTRUCTIVE)


def test_a_refused_strategy_move_names_the_encoders_reason():
    # The domain's refusal keeps the encoder's reason: a plain tuple is no
    # TreeCert.
    tuples = Protocol(
        "tuple-strategy", PROVER,
        (Level(tree_cert_domain, None,
               lambda inst, earlier: Labelling([(1, None, 0)] * inst.n)),),
        LocalVerifier(1, 1, lambda b: True))
    with pytest.raises(StrategyError,
                       match=r"node 0: \(1, None, 0\) not in domain"
                             r" tree-cert: .* is not a TreeCert"):
        game_evaluate(tuples, plain_instance(path_graph(4)), CONSTRUCTIVE)


def test_impure_verifier_detected_at_replay():
    calls = {"n": 0}

    def flaky(ball_view) -> bool:
        calls["n"] += 1
        return calls["n"] > 1

    impure = Protocol("impure", PROVER, (),
                      LocalVerifier(1, 0, flaky))
    with pytest.raises(ProtocolError, match="not a pure function"):
        game_evaluate(impure, plain_instance(path_graph(2)))


def test_searched_game_refuses_an_impure_verifier_at_replay():
    # One searched level with one move: the leaf's first decision rejects,
    # so the game reads False, and the replay's decisions all accept.
    calls = {"n": 0}

    def first_call_rejects(ball_view) -> bool:
        calls["n"] += 1
        return calls["n"] > 1

    def one_move(instance, earlier):
        yield Labelling(Bit(0) for _ in range(instance.n))

    impure = Protocol("impure", PROVER, (Level(bit_domain, one_move),),
                      LocalVerifier(1, 1, first_call_rejects))
    with pytest.raises(ProtocolError, match="replaying the principal line"
                       " gives True but the game gave False"):
        game_evaluate(impure, plain_instance(path_graph(2)))


def test_protocol_structure_validation():
    with pytest.raises(ProtocolError, match="verifier reads 0 layers"):
        Protocol("bad", PROVER, (Level(bit_domain),),
                 LocalVerifier(1, 0, lambda b: True))
    with pytest.raises(ProtocolError, match="unknown first mover"):
        Protocol("bad", "referee", (), LocalVerifier(1, 0, lambda b: True))
    assert PI3.owner(1) == DISPROVER
    assert PI3.owner(2) == PROVER
    assert PI3.owner(3) == DISPROVER
    with pytest.raises(ProtocolError, match="no level 4"):
        PI3.owner(4)
    assert pattern_tag(PROVER, 0) == "decision-0"
    assert pattern_tag(PROVER, 2) == "existential-2"
    assert pattern_tag(DISPROVER, 1) == "universal-1"


def test_shrink_ball():
    inst = plain_instance(path_graph(4))
    wide = ball(inst, ((Bit(0), Bit(1), Bit(0), Bit(1)),), 0, 2)
    assert wide.members == (0, 1, 2)
    small = shrink_ball(wide, 1)
    assert small.members == (0, 1)
    assert small.centre_dist[1] == small.radius != small.centre_dist[0]
    assert small.label(0, 1) == Bit(1)
    with pytest.raises(ProtocolError, match="cannot grow"):
        shrink_ball(small, 2)


# ---------------------------------------------------------------------------
# complementation


def test_lift_accepts_where_base_rejects():
    lifted = complement_lift(protocol_proper_3colouring())
    mono = coloured(clique_graph(3), (1, 1, 1))
    out = game_evaluate(lifted, mono)
    assert out.verdict is True
    assert out.line == (Labelling((TreeCert(1, None, 0), TreeCert(1, 1, 1),
                                   TreeCert(1, 1, 1))),)
    assert out.stats.leaf_evaluations == 1
    assert lifted.name == "lift:3col"
    assert lifted.language.oracle(mono) is True


def test_lift_rejects_where_base_accepts():
    lifted = complement_lift(protocol_proper_3colouring())
    proper = coloured(clique_graph(3), (1, 2, 3))
    out = game_evaluate(lifted, proper)
    assert out.verdict is False
    assert out.stats.leaf_evaluations == 3


def test_lift_constructive_picks_min_id_rejecting_root():
    lifted = complement_lift(protocol_proper_3colouring())
    bad_edge = coloured(path_graph(3), (2, 1, 1))
    out = game_evaluate(lifted, bad_edge, CONSTRUCTIVE)
    assert out.verdict is True
    # Nodes 1 and 2 share a colour; the strategy roots the tree at node 1.
    assert out.line[0][1] == TreeCert(2, None, 0)


def test_lift_negates_verdict_on_corpus():
    base = TWOCOL
    lifted = complement_lift(base)
    for graph in (path_graph(2), path_graph(3), cycle_graph(3),
                  cycle_graph(4), clique_graph(4)):
        inst = plain_instance(graph)
        assert (game_evaluate(lifted, inst).verdict
                != game_evaluate(base, inst).verdict)


def _alone_with_input_one(view) -> bool:
    return view.own_input == 1 and view.members == (view.centre,)


LONER = Protocol("loner", PROVER, (), LocalVerifier(0, 0, _alone_with_input_one),
                 LanguageSpec(lambda inst: all(inst.input_of(v) == 1
                                               for v in range(inst.n))))


@pytest.mark.parametrize("mode", [EXHAUSTIVE, CONSTRUCTIVE],
                         ids=["exhaustive", "constructive"])
def test_lift_shrinks_the_root_view_to_the_base_radius(mode):
    # The lift's verifier has radius 1, so its root hands the radius-0 base
    # verifier a shrunk view; an unshrunk one holds the root's neighbours
    # and the base would reject every node of a graph with an edge.
    lifted = complement_lift(LONER)
    assert lifted.verifier.radius == 1
    for graph in (path_graph(2), path_graph(3), path_graph(4), cycle_graph(3),
                  cycle_graph(4), star_graph(3), star_graph(4)):
        for bits in product((0, 1), repeat=graph.n):
            inst = coloured(graph, bits)
            assert game_evaluate(lifted, inst, mode).verdict \
                is (not LONER.language.oracle(inst)), (graph, bits)


def test_double_lift_is_identity():
    base = protocol_proper_3colouring()
    double = complement_lift(complement_lift(base))
    cases = (coloured(clique_graph(3), (1, 1, 1)),
             coloured(clique_graph(3), (1, 2, 3)),
             coloured(path_graph(3), (0, 1, 2)),
             coloured(cycle_graph(5), (1, 2, 1, 2, 3)),
             coloured(cycle_graph(5), (1, 2, 1, 2, 1)))
    for inst in cases:
        assert (game_evaluate(double, inst).verdict
                == game_evaluate(base, inst).verdict)


def test_lift_refuses_a_protocol_whose_added_level_is_the_disprovers():
    # qbf is existential-2: its third level would fall to the disprover,
    # who would forfeit the tree certificate the lift adds.
    with pytest.raises(ProtocolError, match="disprover's"):
        resolve("lift:qbf")
    with pytest.raises(ProtocolError, match="disprover's"):
        complement_lift(Protocol("pi1", DISPROVER, (Level(bit_domain),),
                                 LocalVerifier(1, 1, lambda b: True)))


@pytest.mark.parametrize("name", names())
def test_lift_builds_with_a_prover_owned_last_level_or_refuses(name):
    try:
        lifted = resolve("lift:" + name)
    except ProtocolError as exc:
        assert "disprover's" in str(exc)
        return
    assert lifted.owner(lifted.level_count) == PROVER


@pytest.mark.parametrize("name", ["lift:3col", "lift:nta",
                                  "lift:lift:spanning-tree"])
def test_lift_builds_on_protocols_that_leave_the_prover_the_last_level(name):
    lifted = resolve(name)
    assert lifted.owner(lifted.level_count) == PROVER


# ---------------------------------------------------------------------------
# collapsing the final universal level


def test_collapse_requires_final_universal():
    with pytest.raises(ProtocolError, match="final universal level"):
        collapse_last_universal(protocol_proper_3colouring())
    with pytest.raises(ProtocolError, match="final universal level"):
        collapse_last_universal(TWOCOL)
    # A lone universal level leaves no prover level for the size proof.
    with pytest.raises(ProtocolError, match="ride a prover level"):
        collapse_last_universal(PI1)


def test_collapse_agrees_with_ignored_universal():
    folded = collapse_last_universal(IGNORE2)
    assert folded.name == "collapse:ignore2"
    assert folded.level_count == 1
    assert pattern_tag(folded.first, folded.level_count) == "existential-1"
    for graph in (path_graph(2), path_graph(3), path_graph(4),
                  cycle_graph(3), cycle_graph(4), clique_graph(4)):
        inst = plain_instance(graph)
        assert (game_evaluate(folded, inst).verdict
                == game_evaluate(IGNORE2, inst).verdict)


def test_collapse_preserves_robust_acceptance():
    folded = collapse_last_universal(PARITY2)
    for graph in (path_graph(2), cycle_graph(4)):
        inst = plain_instance(graph)
        assert game_evaluate(PARITY2, inst).verdict is True
        assert game_evaluate(folded, inst).verdict is True


def test_collapse_finds_killing_assignment_in_ball():
    folded = collapse_last_universal(KILL2)
    for graph in (path_graph(2), cycle_graph(4)):
        inst = plain_instance(graph)
        assert game_evaluate(KILL2, inst).verdict is False
        assert game_evaluate(folded, inst).verdict is False


def test_collapse_universal_first_side():
    folded = collapse_last_universal(PI3)
    assert folded.level_count == 2
    for graph in (path_graph(3), cycle_graph(3)):
        inst = plain_instance(graph)
        assert (game_evaluate(folded, inst).verdict
                == game_evaluate(PI3, inst).verdict
                == _bipartite(inst))


def test_collapse_constructive_strategy():
    folded = collapse_last_universal(IGNORE2)
    yes = plain_instance(path_graph(3))
    out = game_evaluate(folded, yes, CONSTRUCTIVE)
    assert out.verdict is True
    lbl = out.line[0][0]
    assert isinstance(lbl, CollapsedLabel)
    assert lbl.base == Bit(0) and lbl.nhat == 3 and lbl.ssize == 3
    no = plain_instance(cycle_graph(3))
    assert game_evaluate(folded, no, CONSTRUCTIVE).verdict is False


# ---------------------------------------------------------------------------
# unanimous combination


def combined_spanning_tree() -> Protocol:
    return unanimous_combine(protocol_spanning_tree(),
                             protocol_non_spanning_tree())


def test_unanimous_needs_single_level():
    with pytest.raises(ProtocolError, match="single-level prover-first"):
        unanimous_combine(IGNORE2, protocol_non_spanning_tree())


@pytest.mark.parametrize("name", ["unanimous:qbf-1+size",
                                  "unanimous:size+qbf-1"])
def test_unanimous_of_a_searched_part_builds_without_a_strategy(name):
    # The combined strategy calls each part's strategy; qbf-1's level has
    # none, so the combined level has none either and is searched.
    assert resolve(name).levels[0].strategy is None


def test_collapse_keeps_a_searched_level_searched():
    assert resolve("qbf").levels[0].strategy is None
    assert resolve("collapse:qbf").levels[0].strategy is None
    assert resolve("collapse:qbf-4").levels[0].strategy is None


def test_unanimous_honest_yes_is_all_accept():
    out = game_evaluate(combined_spanning_tree(), p3_pointer_instance(),
                        CONSTRUCTIVE)
    assert out.verdict is True
    assert out.leaf.accepts == (True, True, True)
    assert all(lbl.branch == 1 for lbl in out.line[0])


def test_unanimous_honest_no_is_all_reject():
    out = game_evaluate(combined_spanning_tree(), k3_pointer_cycle(),
                        CONSTRUCTIVE)
    assert out.verdict is False
    assert out.leaf.accepts == (False, False, False)
    assert all(lbl.branch == 0 for lbl in out.line[0])


def test_unanimous_mixed_flags_disagree():
    combined = combined_spanning_tree()
    inst = plain_instance(path_graph(2)).with_inputs((Ptr(None), Ptr(1)))
    mixed = Labelling((CombinedLabel(1, TreeCert(1, None, 0), INVALID),
                       CombinedLabel(0, TreeCert(1, 1, 1), INVALID)))
    decision = evaluate(combined.verifier, inst, (mixed,))
    assert decision.accepts == (True, False)
    assert decision.verdict is False


def test_unanimous_game_value_is_degenerate():
    # The all-no-flag move blinds the complement verifier everywhere, so the
    # plain conjunction game is won on every instance; the content of the
    # combination lives in the honest runs and the per-node claims.
    combined = combined_spanning_tree()
    for inst in (p3_pointer_instance(), k3_pointer_cycle()):
        out = game_evaluate(combined, inst)
        assert out.verdict is True
        assert all(lbl.branch == 0 for lbl in out.line[0])


# ---------------------------------------------------------------------------
# corpus checking and identity handling


def test_relabel_identities_rewrites_pointers():
    inst = p3_pointer_instance()
    moved = relabel_identities(inst, (9, 4, 7))
    assert moved.id_of(0) == 9
    assert moved.input_of(1) == Ptr(9)
    assert moved.input_of(2) == Ptr(4)
    assert spanning_tree_inputs(moved) is True


def test_identity_variants_distinct_and_deterministic():
    inst = p3_pointer_instance()
    first = identity_variants(inst, count=3)
    again = identity_variants(inst, count=3)
    assert len(first) == 3
    assert first[0] is inst
    assert len({v.ids.ids for v in first}) == 3
    assert [v.ids.ids for v in first] == [v.ids.ids for v in again]


def test_identity_variants_exhaust_small_spaces():
    lone = Instance(path_graph(1), IdAssignment((1,), 1),
                    InputAssignment((None,)))
    assert identity_variants(lone, count=3) == (lone,)


def test_identity_variants_stop_counting_at_the_count():
    # N!/(N-n)! is a 1,600-factor product on this grid; one round needs
    # none of it.
    n = 40 * 40
    grid = Instance(grid_graph(40, 40), default_ids(n),
                    InputAssignment((None,) * n))
    assert identity_variants(grid, count=1) == (grid,)
    # Three nodes under N = 3 have 3! = 6 assignments, fewer than asked.
    inst = plain_instance(path_graph(3), IdAssignment((1, 2, 3), 3))
    variants = identity_variants(inst, count=10)
    assert variants[0] is inst
    assert sorted(v.ids.ids for v in variants) == sorted(permutations((1, 2, 3)))


@pytest.mark.parametrize("count", [0, -2])
def test_identity_variants_refuse_fewer_than_one_round(count):
    inst = p3_pointer_instance()
    with pytest.raises(ValueError, match="identity rounds"):
        identity_variants(inst, count=count)
    with pytest.raises(ValueError, match="identity rounds"):
        check_protocol(protocol_spanning_tree(), [inst], id_rounds=count)


def test_verdicts_identity_invariant():
    for inst, proto in ((plain_instance(cycle_graph(4)), TWOCOL),
                        (plain_instance(cycle_graph(5)), TWOCOL),
                        (p3_pointer_instance(), protocol_spanning_tree()),
                        (k3_pointer_cycle(), protocol_non_spanning_tree())):
        verdicts = {game_evaluate(proto, v).verdict
                    for v in identity_variants(inst, count=3)}
        assert len(verdicts) == 1


def test_check_protocol_clean_sweep():
    report = check_protocol(
        protocol_spanning_tree(),
        [p3_pointer_instance(), k3_pointer_cycle(), p4_two_roots()])
    assert report.disagreements == ()
    assert report.total_runs == 9


def test_check_protocol_empty_corpus():
    report = check_protocol(protocol_spanning_tree(), [])
    assert report == CheckReport("spanning-tree", 0, ())


def test_check_protocol_needs_an_oracle():
    anon = Protocol("anon", PROVER, (), LocalVerifier(1, 0, lambda b: True))
    with pytest.raises(ProtocolError, match="declares no language"):
        check_protocol(anon, [])


def _forgetful_tree_check(ball_view) -> bool:
    # The spanning-tree check minus the parent-distance comparison.
    own = ball_view.own_label(0)
    if not isinstance(own, TreeCert):
        return False
    for w in ball_view.neighbours(ball_view.centre):
        other = ball_view.label(0, w)
        if not isinstance(other, TreeCert) or other.root != own.root:
            return False
    x = ball_view.own_input
    if not isinstance(x, Ptr):
        return False
    if x.to is None:
        return own.dist == 0 and ball_view.own_id == own.root
    if own.dist == 0:
        return False
    return ball_view.node_of(x.to) is not None


def test_check_protocol_catches_forgetful_verifier():
    mutant = Protocol(
        "forgetful", PROVER, (Level(tree_cert_domain),),
        LocalVerifier(1, 1, _forgetful_tree_check),
        LanguageSpec(spanning_tree_inputs))
    tight = Instance(clique_graph(3), IdAssignment((1, 2, 3), 5),
                     InputAssignment((Ptr(2), Ptr(3), Ptr(1))))
    report = check_protocol(mutant, [tight])
    assert report.disagreements
    assert all(e.expected is False and e.got is True
               for e in report.disagreements)
    # The honest verifier survives the same sweep.
    honest = check_protocol(protocol_spanning_tree(), [tight])
    assert honest.disagreements == ()
