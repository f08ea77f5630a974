"""The engine against a plain minimax over each level's full product.

``minimax`` below has no covers, hints, stores or replay: at every level
it tries each labelling of the product in the order the engine's product
cover draws them, the all-``INVALID`` forfeit last on a disprover level
whose domain has spare patterns, and takes the first move that wins the
owner's sub-game, else the first move.  ``hypothesis`` draws toy
protocols of 0-3 levels, either side first, over small flag domains, with
a pure radius-1 verifier given by a seeded hash of the view's content,
on instances of at most 3 nodes and identity bound at most 5.  A level's
cover is either the default product, whose axis holds ``INVALID`` when
the domain has spare patterns, or the product of the structured values
alone, so the engine must add the forfeit itself.
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

# Bound on the leaves of one toy game, so that the slowest toy stays
# well under a second for either solver.
MAX_LEAVES = 4096


class Flag(NamedTuple):
    val: int


class Toy(NamedTuple):
    protocol: Protocol
    spares: tuple[bool, ...]  # per level: does its cover play INVALID?


def minimax(toy: Toy, inst: Instance) -> tuple[bool, tuple[Labelling, ...]]:
    """The verdict and the principal line, first winning move taken."""
    protocol, n = toy.protocol, inst.n

    def level_moves(i: int) -> list[Labelling]:
        domain = protocol.levels[i].domain_of(n, inst.N)
        axis = list(domain.values())
        if toy.spares[i] and domain.has_invalid:
            axis.append(INVALID)
        moves = list(labellings(inst, axis))
        forfeit = Labelling((INVALID,) * n)
        if (protocol.owner(i + 1) == DISPROVER and domain.has_invalid
                and forfeit not in moves):
            moves.append(forfeit)
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
        for move in level_moves(i):
            value, rest = solve(line + (move,))
            if value == wants:
                return value, (move,) + rest
            if fallback is None:
                fallback = (move,) + rest
        return not wants, fallback

    return solve(())


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
def games(draw, max_levels: int = 3, first=st.sampled_from((PROVER, DISPROVER))):
    """A toy protocol and an instance small enough for its full products."""
    k = draw(st.integers(0, max_levels))
    counts = draw(st.lists(st.integers(2, 3), min_size=k, max_size=k))
    spares = tuple(draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    verifier = hashed_verifier(draw(st.integers(0, 1 << 16)),
                               draw(st.sampled_from((128, 192, 240))), k)
    toy = Toy(Protocol("toy", draw(first),
                       tuple(map(_level, counts, spares)), verifier), spares)
    # A 3-value flag takes 2 bits, so its domain has one spare pattern;
    # the forfeit may add one move more.
    axes = [count + (spare and count == 3)
            for count, spare in zip(counts, spares)]
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
    return toy, Instance(Graph(n, frozenset(edges)),
                         IdAssignment(tuple(ids), N),
                         InputAssignment(tuple(inputs)))


def _level(count: int, spare: bool) -> Level:
    def domain_of(n: int, N: int) -> LabelDomain:
        return LabelDomain("flag", 2, n, N, (flag_field("val", count),), Flag)

    def values_only(instance: Instance, earlier):
        # The product of the structured values: no INVALID label.
        return labellings(instance,
                          list(domain_of(instance.n, instance.N).values()))

    return Level(domain_of, None if spare else values_only)


@settings(max_examples=500, deadline=None)
@given(games())
def test_exhaustive_play_is_the_reference_minimax(game):
    toy, inst = game
    outcome = game_evaluate(toy.protocol, inst, EXHAUSTIVE)
    assert (outcome.verdict, outcome.line) == minimax(toy, inst)
    replay = evaluate(toy.protocol.verifier, inst, outcome.line)
    assert replay == outcome.leaf
    assert replay.verdict == outcome.verdict


@settings(max_examples=100, deadline=None)
@given(games(max_levels=1, first=st.just(PROVER)))
def test_a_forced_line_plays_the_strategy_move(game):
    toy, inst = game
    verdict, line = minimax(toy, inst)
    protocol = toy.protocol
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
        1, rejecting[0] + 1 if rejecting else inst.n, 0, 0)
    if not line:
        assert constructive == exhaustive
