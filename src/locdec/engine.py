"""Game evaluation for labelling protocols, and the corpus check.

``game_evaluate`` plays the alternating labelling game to optimal completion,
either exhaustively over each level's cover or constructively from supplied
strategies, and returns the verdict together with the principal line of play.
``check_protocol`` sweeps a corpus against a reference oracle under several
identity assignments.  The transforms that build protocols from protocols
live in ``transforms``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, Sequence

from .graphs import IdAssignment, InputAssignment, Instance, Marks, Ptr
from .labels import DomainError, Labelling
from .protocol import (PROVER, Protocol, ProtocolError, all_invalid_labelling,
                       canonical_labelling)
from .runtime import Decision, LocalVerifier, ViewStore, evaluate, layer_row

class CapExceeded(RuntimeError):
    """Raised when an evaluation outgrows the configured resource caps."""


class StrategyError(RuntimeError):
    """Raised when a strategy emits a move outside its level's domain."""


@dataclass(frozen=True)
class EvalMode:
    """Resource caps and the constructive/exhaustive switch.

    ``constructive`` False searches every prover level over its cover;
    True takes the strategy move on every prover level that has a
    strategy, and searches one that has none.  Disprover levels are
    always searched over their covers.  ``move_cap`` bounds the moves
    drawn from one level's cover at one position: covers, the default
    full product among them, are drawn lazily and refused once they yield
    more.  ``eval_cap`` bounds leaf evaluations (complete label
    assignments tested); its default is 2**24, and nothing outside the
    mode changes it.
    """

    constructive: bool = False
    node_cap: int = 12
    move_cap: int = 1 << 20
    eval_cap: int = 1 << 24

    def __post_init__(self) -> None:
        if type(self.constructive) is not bool:
            raise ValueError(
                f"constructive must be a bool, got {self.constructive!r}")
        for name in ("node_cap", "move_cap", "eval_cap"):
            cap = getattr(self, name)
            if type(cap) is not int or cap < 1:
                raise ValueError(f"{name} must be a positive integer, got {cap!r}")


EXHAUSTIVE = EvalMode()
CONSTRUCTIVE = EvalMode(constructive=True)


@dataclass(frozen=True)
class GameStats:
    """Work done by one game.  ``node_evaluations`` counts the node
    decisions actually made at the leaves, which stop at the first
    rejection found: each draws one view, so it is the ``served`` count
    of the game's view store.  ``decisions_reused`` counts the node
    verdicts a leaf took from the store instead, because the node's
    labels were those of its last decision (the store's ``reused``), so
    the two add up to the verdicts the leaves asked for.
    ``views_reused`` counts the decisions whose view was a copy of a view
    the store kept, not a new one from ``graphs.ball``: the store's
    ``served`` count less the centres it kept.
    ``first_refutations`` counts the leaves rejected by their hinted node
    (see ``game_evaluate``) at its first decision.

    A forced line (see ``game_evaluate``) has one leaf, no store and no
    hint: it counts the decisions up to and including the first rejecting
    node, or all n when every node accepts, as a hint-free search of its
    one leaf would, and reuses and refutes nothing."""

    leaf_evaluations: int
    node_evaluations: int
    decisions_reused: int
    views_reused: int
    first_refutations: int


@dataclass(frozen=True)
class GameOutcome:
    """Verdict plus the principal line that realizes it.

    ``line`` holds one labelling per level; replaying it through the
    verifier reproduces the verdict, and ``leaf`` is that replay's full
    per-node decision.  For a forced line the one decision of its one
    leaf is that replay.  On a win the winner's moves are the first winning
    choices in cover order, so exhaustive outcomes are deterministic.
    """

    verdict: bool
    line: tuple[Labelling, ...]
    leaf: Decision
    stats: GameStats


def game_evaluate(protocol: Protocol, instance: Instance,
                  mode: EvalMode = EXHAUSTIVE) -> GameOutcome:
    """Play the game to optimal completion and replay its principal line.

    One rule gives every level's moves (``moves``).  On a prover level in
    constructive play that has a strategy, the one move is the
    strategy's, checked against the level's domain.  Otherwise, on a
    prover level with no strategy too, the moves are the level's cover,
    drawn lazily under ``move_cap``, followed on a disprover level whose
    domain has spare bit patterns by the all-``INVALID`` forfeit unless
    the cover held it; when that leaves no move at all, the canonical
    labelling is forced.  The level's owner takes the first move that
    wins its sub-game, and otherwise loses with the first move.  Each
    level's owner and forfeit are fixed once per game.

    Every move is checked once, when ``moves`` draws it: a cover move
    that does not label every node is refused there with
    ``VerifierError`` (``runtime.layer_row``).  A move is its own row of
    labels, so each leaf hands its line, one move per level and so one
    row per verifier layer, to the game store's leaf loop, which checks
    nothing again.

    Leaves are decided refuter first.  A leaf's final-level move has a
    position: its index among ``moves(k - 1, ...)``, so a strategy move or
    a forced canonical move is position 0.  Each leaf first decides the
    node that last rejected a leaf at the same position, if any, then every
    other node in the store's order, most recent rejecter first (see
    ``ViewStore.first_rejection``).  Leaves at one position under different
    earlier moves often fail at the same node, so one decision settles
    them.  A node that refutes leaves at many positions is tried early
    too, as in a one-level game, where each position comes up once.  A
    node whose labels are those of its last decision, in an earlier leaf,
    is not decided again: the store answers with that decision's verdict.
    The verdict is a conjunction of pure decisions, so neither the order
    nor the reuse changes it, only the number of decisions made.
    The principal line is then replayed by ``evaluate`` on fresh view
    objects, apart from the game's store: each projects the line's labels
    and the instance's inputs afresh over the geometry ``graphs.ball``
    keeps for the instance's graph and identities.

    A game that searches no level plays a forced line: a protocol with no
    levels, or constructive play of one prover level that has a strategy,
    has one line and one leaf.  That line is decided once, every node in
    full, and the decision is both the leaf and the replay, so each ball
    is built once.  Each view up to the first rejecting one is decided
    twice instead, and two answers that differ refuse the verifier as
    impure, as a replay that disagrees with the search does.
    """
    if instance.n > mode.node_cap:
        raise CapExceeded(
            f"instance has {instance.n} nodes, cap is {mode.node_cap}")
    k = protocol.level_count
    n = instance.n
    domains = tuple(lv.domain_of(n, instance.N) for lv in protocol.levels)
    # Level facts, fixed once per game: who owns each level, whether its
    # move is the strategy's, and the disprover's forfeit, if any.
    provers = tuple(protocol.owner(i + 1) == PROVER for i in range(k))
    strategic = tuple(mode.constructive and prover
                      and level.strategy is not None
                      for prover, level in zip(provers, protocol.levels))
    forfeits = tuple(
        all_invalid_labelling(n)
        if not prover and domain.has_invalid else None
        for prover, domain in zip(provers, domains))

    def moves(idx: int, earlier: tuple[Labelling, ...]):
        # Yields the level's moves, each checked to label every node once
        # here, when drawn.
        level = protocol.levels[idx]
        if strategic[idx]:
            move = level.strategy(instance, earlier)
            try:
                domains[idx].check_labelling(move)
            except DomainError as exc:
                raise StrategyError(
                    f"{protocol.name}: level {idx + 1} strategy: {exc}") from exc
            yield move if isinstance(move, Labelling) else Labelling(move)
            return
        forfeit = forfeits[idx]
        seen_forfeit = False
        count = 0
        for count, move in enumerate(level.cover(instance, earlier), 1):
            if count > mode.move_cap:
                raise CapExceeded(
                    f"{protocol.name}: level {idx + 1} cover exceeds the move"
                    f" cap {mode.move_cap}")
            if forfeit is not None and move == forfeit:
                seen_forfeit = True
            yield layer_row(move, n, idx)
        if forfeit is not None and not seen_forfeit:
            # The disprover may always decline to play a structured labelling.
            yield forfeit
        elif count == 0:
            # No moves at all: the level degenerates to a forced labelling.
            yield canonical_labelling(domains[idx])

    if all(strategic):
        # A forced line: no level is searched, so the game has one leaf and
        # deciding it is the replay.
        line = (next(moves(0, ())),) if k else ()
        leaf = evaluate(_decided_twice(protocol), instance, line)
        rejecting = leaf.rejecting_nodes
        return GameOutcome(leaf.verdict, line, leaf, GameStats(
            1, rejecting[0] + 1 if rejecting else n, 0, 0, 0))

    eval_cap = mode.eval_cap
    decide = protocol.verifier.decide
    counters = {"leaf": 0, "first": 0}
    views = ViewStore(instance, protocol.verifier.radius)
    # Final-level move position -> the node that last rejected a leaf
    # ending there.
    hints: dict[int, int] = {}

    def leaf_value(rows: tuple[Labelling, ...], position: int) -> bool:
        counters["leaf"] += 1
        if counters["leaf"] > eval_cap:
            raise CapExceeded(
                f"{protocol.name}: leaf evaluations exceed the cap {eval_cap}")
        hint = hints.get(position)
        rejecter = views.first_rejection(decide, rows, hint)
        if rejecter is None:
            return True
        if rejecter == hint:
            counters["first"] += 1
        hints[position] = rejecter
        return False

    def play(idx: int, earlier: tuple[Labelling, ...], position: int = 0):
        # ``position`` is the last move's index among its level's moves;
        # the leaf reads it as the final level's.  ``earlier`` holds the
        # checked moves, so at a leaf it is the leaf's rows.
        if idx == k:
            return leaf_value(earlier, position), ()
        wants = provers[idx]
        fallback = None
        for position, move in enumerate(moves(idx, earlier)):
            value, rest = play(idx + 1, earlier + (move,), position)
            if value == wants:
                return value, (move,) + rest
            if fallback is None:
                fallback = (move, rest)
        move, rest = fallback
        return not wants, (move,) + rest

    verdict, line = play(0, ())
    # The replay builds every view object afresh with `ball`, apart from
    # the game's store.
    leaf = evaluate(protocol.verifier, instance, line)
    if leaf.verdict != verdict:
        raise ProtocolError(
            f"{protocol.name}: replaying the principal line gives"
            f" {leaf.verdict} but the game gave {verdict}; the verifier is"
            f" not a pure function of the ball")
    return GameOutcome(verdict, line, leaf, GameStats(
        counters["leaf"], views.served, views.reused,
        views.served - len(views.kept), counters["first"]))


def _decided_twice(protocol: Protocol) -> LocalVerifier:
    """The protocol's verifier for one line, deciding each view twice up
    to the first that rejects, and once after it, and refusing a verifier
    whose two answers differ."""
    verifier = protocol.verifier
    rejected = False

    def decide(view) -> bool:
        nonlocal rejected
        accepts = bool(verifier.decide(view))
        if rejected:
            return accepts
        if bool(verifier.decide(view)) != accepts:
            raise ProtocolError(
                f"{protocol.name}: node {view.centre} decides the same view"
                f" {accepts} and then {not accepts}; the verifier is not a"
                f" pure function of the ball")
        rejected = not accepts
        return accepts

    return replace(verifier, decide=decide)


# ---------------------------------------------------------------------------
# corpus checking under several identity assignments


def relabel_identities(instance: Instance,
                       new_ids: Sequence[int]) -> Instance:
    """Same graph and inputs under a different identity assignment.

    Identity-valued inputs (pointers, marks) are rewritten through the
    old-to-new identity map so they still name the same nodes.
    """
    mapping = {instance.id_of(v): new_ids[v] for v in range(instance.n)}

    def remap(x):
        if isinstance(x, Ptr) and x.to is not None:
            return Ptr(mapping[x.to])
        if isinstance(x, Marks):
            return Marks(mapping[i] for i in x.ids)
        return x

    return Instance(
        instance.graph,
        IdAssignment(tuple(new_ids), instance.N),
        InputAssignment(tuple(remap(instance.input_of(v))
                              for v in range(instance.n))))


def identity_variants(instance: Instance, count: int = 3,
                      seed: int = 0) -> tuple[Instance, ...]:
    """Deterministic list of re-identified copies, the original first.

    ``count`` must be at least 1; fewer copies come back only when the
    identity space holds fewer distinct assignments."""
    if count < 1:
        raise ValueError(
            f"identity rounds must be a positive integer, got {count}")
    # N!/(N-n)! assignments exist; the product stops once it reaches
    # ``count``, since only whether it does matters.
    available = 1
    for j in range(instance.n):
        if available >= count:
            break
        available *= instance.N - j
    target = min(count, available)
    variants = [instance]
    seen = {instance.ids.ids}
    rng = random.Random(f"identity-variants:{seed}:{instance.n}:{instance.N}")
    attempts = 0
    while len(variants) < target and attempts < 200 * target:
        attempts += 1
        ids = tuple(rng.sample(range(1, instance.N + 1), instance.n))
        if ids in seen:
            continue
        seen.add(ids)
        variants.append(relabel_identities(instance, ids))
    return tuple(variants)


@dataclass(frozen=True)
class CheckEntry:
    index: int
    ids: tuple[int, ...]
    expected: bool
    got: bool


@dataclass(frozen=True)
class CheckReport:
    protocol: str
    total_runs: int
    disagreements: tuple[CheckEntry, ...]

    @property
    def ok(self) -> bool:
        return not self.disagreements


def check_protocol(protocol: Protocol, corpus: Iterable[Instance],
                   oracle: Optional[Callable[[Instance], bool]] = None,
                   mode: EvalMode = EXHAUSTIVE,
                   id_rounds: int = 3) -> CheckReport:
    """Compare game verdicts against an oracle across a corpus.

    Every instance is run under ``id_rounds`` identity assignments; any
    verdict that differs from the oracle's becomes a report entry.
    """
    if oracle is None:
        if protocol.language is None:
            raise ProtocolError(
                f"{protocol.name} declares no language; supply an oracle")
        oracle = protocol.language.oracle
    entries = []
    runs = 0
    for index, base in enumerate(corpus):
        for variant in identity_variants(base, count=id_rounds):
            expected = bool(oracle(variant))
            got = game_evaluate(protocol, variant, mode).verdict
            runs += 1
            if got != expected:
                entries.append(CheckEntry(index, variant.ids.ids,
                                          expected, got))
    return CheckReport(protocol.name, runs, tuple(entries))
