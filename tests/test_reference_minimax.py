"""The engine against a plain minimax over each level's full product.

``minimax`` below has no hints, stores or replay: at every level it tries
each move of the level's cover in cover order, a cover left to the
default being the product in the order the engine's product cover draws
it.  It applies the engine's two rules itself: the all-``INVALID``
forfeit comes last on a disprover level whose domain has spare patterns
unless the cover held it, and a level with no move at all is forced to
the canonical labelling.  It takes the first move that wins the owner's
sub-game, else the first move.  ``hypothesis`` draws toy protocols of 0-4
levels, either side first, over small flag domains, with a pure radius-1
verifier given by a seeded hash of the view's content, on instances of at
most 3 nodes and identity bound at most 5.  A level's cover is the
default product, whose axis holds ``INVALID`` when the domain has spare
patterns, or the product of the structured values alone, so the engine
must add the forfeit itself, or a seeded sub-sequence of the product
that depends on the earlier moves and is sometimes empty.
"""
from __future__ import annotations

import hashlib
from itertools import product
from math import prod
from typing import Iterator, NamedTuple

from hypothesis import given, settings
from hypothesis import strategies as st

from locdec.engine import CONSTRUCTIVE, EXHAUSTIVE, GameStats, game_evaluate
from locdec.graphs import Graph, IdAssignment, InputAssignment, Instance, ball
from locdec.labels import INVALID, LabelDomain, Labelling, flag_field
from locdec.protocol import DISPROVER, PROVER, Level, Protocol
from locdec.runtime import LocalVerifier, evaluate

from test_refuter_first import _play_hint_free

# Bound on the leaves of one toy game, so that the slowest toy stays
# well under a second for either solver.
MAX_LEAVES = 4096


class Flag(NamedTuple):
    val: int


def minimax(protocol: Protocol,
            inst: Instance) -> tuple[bool, tuple[Labelling, ...]]:
    """The verdict and the principal line, first winning move taken."""
    n = inst.n

    def level_moves(i: int, line: tuple[Labelling, ...]) -> list[Labelling]:
        level = protocol.levels[i]
        domain = level.domain_of(n, inst.N)
        if level.cover is None:
            moves = list(labellings(inst, product_axis(domain)))
        else:
            moves = list(level.cover(inst, line))
        forfeit = Labelling((INVALID,) * n)
        if (protocol.owner(i + 1) == DISPROVER and domain.has_invalid
                and forfeit not in moves):
            moves.append(forfeit)
        elif not moves:
            moves = [Labelling((domain.first(),) * n)]
        return moves

    def accepts(line) -> bool:
        return all(protocol.verifier.decide(ball(inst, line, v, 1))
                   for v in range(n))

    def solve(line: tuple[Labelling, ...]):
        i = len(line)
        if i == protocol.level_count:
            return accepts(line), ()
        wants = protocol.owner(i + 1) == PROVER
        fallback = None
        for move in level_moves(i, line):
            value, rest = solve(line + (move,))
            if value == wants:
                return value, (move,) + rest
            if fallback is None:
                fallback = (move,) + rest
        return not wants, fallback

    return solve(())


def product_axis(domain: LabelDomain) -> list:
    """One node's labels in the default product: the structured values,
    then ``INVALID`` when the domain has spare patterns."""
    return list(domain.values()) + [INVALID] * domain.has_invalid


def labellings(inst: Instance, axis: list) -> Iterator[Labelling]:
    """Every labelling over ``axis``, lexicographic in identity order."""
    order = sorted(range(inst.n), key=inst.id_of)
    for combo in product(axis, repeat=inst.n):
        slot = [None] * inst.n
        for v, label in zip(order, combo):
            slot[v] = label
        yield Labelling(tuple(slot))


def hashed_verifier(seed: int, threshold: int, layers: int) -> LocalVerifier:
    """Accepts a view when a seeded hash of its content falls below
    ``threshold`` (out of 256): centre identity, then each member's
    identity, input and labels in identity order."""

    def decide(view) -> bool:
        ids = view.ids_in
        members = sorted(view.members, key=ids.__getitem__)
        key = (seed, ids[view.centre],
               tuple((ids[u], view.inputs_in[u],
                      tuple(layer[u] for layer in view.layers))
                     for u in members))
        digest = hashlib.blake2b(repr(key).encode(), digest_size=1).digest()
        return digest[0] < threshold

    return LocalVerifier(1, layers, decide)


@st.composite
def games(draw, max_levels: int = 4, first=st.sampled_from((PROVER, DISPROVER))):
    """A toy protocol and an instance small enough for its full products."""
    k = draw(st.integers(0, max_levels))
    counts = draw(st.lists(st.integers(2, 3), min_size=k, max_size=k))
    covers = tuple(draw(st.lists(st.sampled_from(COVERS), min_size=k,
                                 max_size=k)))
    levels = tuple(_level(count, cover, draw(st.integers(0, 1 << 16)),
                          draw(st.sampled_from((0, 64, 128, 192))))
                   for count, cover in zip(counts, covers))
    verifier = hashed_verifier(draw(st.integers(0, 1 << 16)),
                               draw(st.sampled_from((128, 192, 240))), k)
    protocol = Protocol("toy", draw(first), levels, verifier)
    # A 3-value flag takes 2 bits, so its domain has one spare pattern,
    # which the product plays; the forfeit may add one move more.
    axes = [count + (cover != "values" and count == 3)
            for count, cover in zip(counts, covers)]
    n = 3
    while n > 1 and prod(a ** n + 1 for a in axes) > MAX_LEAVES:
        n -= 1
    n = draw(st.integers(1, n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    if n == 3 and draw(st.booleans()):
        edges = {(0, 1), (0, 2), (1, 2)}
    N = draw(st.integers(max(n, 3), 5))
    ids = draw(st.lists(st.integers(1, N), min_size=n, max_size=n,
                        unique=True))
    inputs = draw(st.lists(st.sampled_from((None, 0, 1)), min_size=n,
                           max_size=n))
    return protocol, Instance(Graph(n, frozenset(edges)),
                         IdAssignment(tuple(ids), N),
                         InputAssignment(tuple(inputs)))


COVERS = ("product", "values", "subset")


def _level(count: int, cover: str, seed: int, keep: int) -> Level:
    def domain_of(n: int, N: int) -> LabelDomain:
        return LabelDomain("flag", 2, n, N, (flag_field("val", count),), Flag)

    def values_only(instance: Instance, earlier):
        # The product of the structured values: no INVALID label.
        return labellings(instance,
                          list(domain_of(instance.n, instance.N).values()))

    def subset(instance: Instance, earlier):
        # Each product move is kept when a hash of (seed, earlier moves,
        # its index) falls below ``keep`` (out of 256); 0 keeps none.
        full = labellings(instance,
                          product_axis(domain_of(instance.n, instance.N)))
        for j, move in enumerate(full):
            key = repr((seed, earlier, j)).encode()
            if hashlib.blake2b(key, digest_size=1).digest()[0] < keep:
                yield move

    return Level(domain_of, {"product": None, "values": values_only,
                             "subset": subset}[cover])


@settings(max_examples=500, deadline=None)
@given(games())
def test_exhaustive_play_is_the_reference_minimax(game):
    protocol, inst = game
    outcome = game_evaluate(protocol, inst, EXHAUSTIVE)
    assert (outcome.verdict, outcome.line) == minimax(protocol, inst)
    replay = evaluate(protocol.verifier, inst, outcome.line)
    assert replay == outcome.leaf
    assert replay.verdict == outcome.verdict
    # A leaf's hint costs at most the one decision it adds.
    plain = _play_hint_free(protocol, inst, EXHAUSTIVE)
    assert (plain.verdict, plain.line, plain.leaf) \
        == (outcome.verdict, outcome.line, outcome.leaf)
    assert outcome.stats.leaf_evaluations == plain.stats.leaf_evaluations
    assert outcome.stats.node_evaluations <= (
        plain.stats.node_evaluations + plain.stats.leaf_evaluations)


@settings(max_examples=100, deadline=None)
@given(games(max_levels=1, first=st.just(PROVER)))
def test_a_forced_line_plays_the_strategy_move(game):
    protocol, inst = game
    verdict, line = minimax(protocol, inst)
    if line:
        # The strategy plays the reference's move.
        level = protocol.levels[0]
        protocol = Protocol("toy", PROVER, (Level(
            level.domain_of, level.cover, lambda instance, earlier: line[0]),),
            protocol.verifier)
    exhaustive = game_evaluate(protocol, inst, EXHAUSTIVE)
    constructive = game_evaluate(protocol, inst, CONSTRUCTIVE)
    assert (constructive.verdict, constructive.line) == (verdict, line) \
        == (exhaustive.verdict, exhaustive.line)
    assert constructive.leaf == exhaustive.leaf
    rejecting = constructive.leaf.rejecting_nodes
    assert constructive.stats == GameStats(
        1, rejecting[0] + 1 if rejecting else inst.n, 0, 0, 0)
    if not line:
        assert constructive == exhaustive
