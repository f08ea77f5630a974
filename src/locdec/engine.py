"""Game evaluation for labelling protocols, and transformations between them.

``game_evaluate`` plays the alternating labelling game to optimal completion,
either exhaustively over each level's cover or constructively from supplied
strategies, and returns the verdict together with the principal line of play.
The transforms build new protocols from old: ``complement_lift`` decides the
complement language one level higher, ``collapse_last_universal`` folds a
final universal round into ball-local enumeration backed by a size proof,
and ``unanimous_combine`` merges a protocol pair into one whose honest runs
are unanimous.  ``check_protocol`` sweeps a corpus against a reference
oracle under several identity assignments.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .graphs import (BallView, IdAssignment, InputAssignment, Instance, Marks,
                     Ptr, make_view)
from .labels import (INVALID, DomainError, LabelDomain, Labelling,
                     flag_field, id_field, optional_id_field, range_field,
                     sub_field, tree_cert_domain)
from .protocol import (DISPROVER, PROVER, LanguageSpec, Level, Protocol,
                       ProtocolError, all_invalid_labelling,
                       canonical_labelling, other_side,
                       pattern_tag)
from .runtime import (Decision, LocalVerifier, ViewStore, evaluate,
                      first_rejection)
from .schemes import (READ_TREE_CERT, build_size_cert, honest_tree,
                      size_ok, tree_ok, tree_reader, uniform)

DEFAULT_EVAL_CAP = 1 << 24
EVAL_CAP_ENV = "LOCDEC_MAX_EVALS"


class CapExceeded(RuntimeError):
    """Raised when an evaluation outgrows the configured resource caps."""


class StrategyError(RuntimeError):
    """Raised when a strategy emits a move outside its level's domain."""


@dataclass(frozen=True)
class EvalMode:
    """Resource caps and the constructive/exhaustive switch.

    ``constructive`` False searches every prover level over its cover;
    True takes the strategy move on every prover level.  Disprover levels
    are always searched over their covers.  ``move_cap`` bounds the moves
    drawn from one level's cover at one position: covers, the default
    full product among them, are drawn lazily and refused once they yield
    more.  ``eval_cap`` bounds leaf evaluations (complete label
    assignments tested); None reads LOCDEC_MAX_EVALS, default 2**24.
    """

    constructive: bool = False
    node_cap: int = 12
    move_cap: int = 1 << 20
    eval_cap: Optional[int] = None

    def __post_init__(self) -> None:
        if type(self.constructive) is not bool:
            raise ValueError(
                f"constructive must be a bool, got {self.constructive!r}")
        for name in ("node_cap", "move_cap", "eval_cap"):
            cap = getattr(self, name)
            if name == "eval_cap" and cap is None:
                continue
            if type(cap) is not int or cap < 1:
                raise ValueError(f"{name} must be a positive integer, got {cap!r}")


EXHAUSTIVE = EvalMode()
CONSTRUCTIVE = EvalMode(constructive=True)


def _resolve_eval_cap(mode: EvalMode) -> int:
    if mode.eval_cap is not None:
        return mode.eval_cap
    raw = os.environ.get(EVAL_CAP_ENV)
    if raw is None:
        return DEFAULT_EVAL_CAP
    if not raw.isdecimal() or int(raw) < 1:
        raise ValueError(
            f"{EVAL_CAP_ENV} must be a positive integer, got {raw!r}")
    return int(raw)


@dataclass(frozen=True)
class GameStats:
    """Work done by one game.  ``node_evaluations`` counts the node
    decisions actually made at the leaves, which stop at the first
    rejection found; ``views_reused`` counts those whose view the game's
    store served from kept geometry instead of building it.
    ``first_refutations`` counts the leaves rejected by their hinted node
    (see ``game_evaluate``) at its first decision."""

    leaf_evaluations: int
    node_evaluations: int
    views_reused: int
    first_refutations: int


@dataclass(frozen=True)
class GameOutcome:
    """Verdict plus the principal line that realizes it.

    ``line`` holds one labelling per level; replaying it through the
    verifier reproduces the verdict, and ``leaf`` is that replay's full
    per-node decision.  On a win the winner's moves are the first winning
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
    constructive play the one move is the strategy's, checked against the
    level's domain.  Otherwise the moves are the level's cover, drawn
    lazily under ``move_cap``, followed on a disprover level whose domain
    has spare bit patterns by the all-``INVALID`` forfeit unless the cover
    held it; when that leaves no move at all, the canonical labelling is
    forced.  The level's owner takes the first move that wins its
    sub-game, and otherwise loses with the first move.

    Leaves are decided refuter first.  A leaf's final-level move has a
    position: its index among ``moves(k - 1, ...)``, so a strategy move or
    a forced canonical move is position 0.  Each leaf first decides the
    node that last rejected a leaf at the same position, if any, then every
    other node in node order (see ``runtime.first_rejection``).  Leaves at
    one position under different earlier moves often fail at the same node,
    so one decision settles them.  The verdict is a conjunction of pure
    decisions, so the order changes only the number of decisions made.
    """
    if instance.n > mode.node_cap:
        raise CapExceeded(
            f"instance has {instance.n} nodes, cap is {mode.node_cap}")
    eval_cap = _resolve_eval_cap(mode)
    counters = {"leaf": 0, "node": 0, "first": 0}

    def charge() -> None:
        counters["node"] += 1

    k = protocol.level_count
    domains = tuple(lv.domain_of(instance.n, instance.N)
                    for lv in protocol.levels)
    views = ViewStore(instance, protocol.verifier.radius)
    # Final-level move position -> the node that last rejected a leaf
    # ending there.
    hints: dict[int, int] = {}

    def leaf_value(chosen: tuple[Labelling, ...], position: int) -> bool:
        counters["leaf"] += 1
        if counters["leaf"] > eval_cap:
            raise CapExceeded(
                f"{protocol.name}: leaf evaluations exceed the cap {eval_cap}")
        hint = hints.get(position)
        rejecter = first_rejection(protocol.verifier, instance, chosen,
                                   charge=charge, views=views, first=hint)
        if rejecter is None:
            return True
        if rejecter == hint:
            counters["first"] += 1
        hints[position] = rejecter
        return False

    def moves(idx: int, earlier: tuple[Labelling, ...]):
        level = protocol.levels[idx]
        if mode.constructive and protocol.owner(idx + 1) == PROVER:
            if level.strategy is None:
                raise ProtocolError(
                    f"{protocol.name}: level {idx + 1} has no strategy for"
                    f" constructive play")
            move = level.strategy(instance, earlier)
            try:
                domains[idx].check_labelling(move)
            except DomainError as exc:
                raise StrategyError(
                    f"{protocol.name}: level {idx + 1} strategy: {exc}") from exc
            yield move if isinstance(move, Labelling) else Labelling(tuple(move))
            return
        forfeit = None
        if protocol.owner(idx + 1) == DISPROVER and domains[idx].has_invalid:
            forfeit = all_invalid_labelling(instance.n)
        seen_forfeit = False
        count = 0
        for count, move in enumerate(level.cover(instance, earlier), 1):
            if count > mode.move_cap:
                raise CapExceeded(
                    f"{protocol.name}: level {idx + 1} cover exceeds the move"
                    f" cap {mode.move_cap}")
            if forfeit is not None and move == forfeit:
                seen_forfeit = True
            yield move
        if forfeit is not None and not seen_forfeit:
            # The disprover may always decline to play a structured labelling.
            yield forfeit
        elif count == 0:
            # No moves at all: the level degenerates to a forced labelling.
            yield canonical_labelling(domains[idx])

    def play(idx: int, earlier: tuple[Labelling, ...], position: int = 0):
        # ``position`` is the last move's index among its level's moves;
        # the leaf reads it as the final level's.
        if idx == k:
            return leaf_value(earlier, position), ()
        wants = protocol.owner(idx + 1) == PROVER
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
    # The replay builds its views afresh, apart from the game's store.
    leaf = evaluate(protocol.verifier, instance, line)
    if leaf.verdict != verdict:
        raise ProtocolError(
            f"{protocol.name}: replaying the principal line gives"
            f" {leaf.verdict} but the game gave {verdict}; the verifier is"
            f" not a pure function of the ball")
    return GameOutcome(verdict, line, leaf, GameStats(
        counters["leaf"], counters["node"], views.reused, counters["first"]))


# ---------------------------------------------------------------------------
# ball surgery shared by the transforms


def shrink_ball(view: BallView, t: int) -> BallView:
    """Restrict a ball view to the radius-t sub-ball around its centre."""
    if t > view.radius:
        raise ProtocolError(f"cannot grow a radius-{view.radius} ball to {t}")
    dist = {v: d for v, d in view.centre_dist.items() if d <= t}
    return make_view(view.centre, t, dist, view.adj_in, view.ids_in,
                     view.inputs_in, view.layers, view.weights_in, view.N)


def project(view: BallView, kind: type, part: str, layer: int = 0,
            missing: object = INVALID) -> dict[int, object]:
    """Field ``part`` of every member's ``kind`` label in ``layer``, as a
    layer of its own; members holding anything else get ``missing``."""
    labels = view.layers[layer]
    out = {}
    for v in view.members:
        lbl = labels[v]
        out[v] = getattr(lbl, part) if isinstance(lbl, kind) else missing
    return out


def embed(view: BallView, layers: Sequence[dict[int, object]], radius: int,
          inputs: Optional[dict[int, object]] = None) -> BallView:
    """The view a radius-``radius`` sub-verifier sees: ``layers`` (and
    ``inputs``, when given) in place of the view's own, shrunk to its radius."""
    sub = view.with_layers(layers)
    if inputs is not None:
        sub = sub.with_inputs(inputs)
    if radius < view.radius:
        sub = shrink_ball(sub, radius)
    return sub


# ---------------------------------------------------------------------------
# complementation: one more level, roles swapped


def complement_lift(p: Protocol) -> Protocol:
    """Protocol for the complement language, one level deeper.

    The old levels change owners but keep their domains and covers; a new
    final prover level carries a rooted tree certificate whose root names
    one node, and the root node re-runs the old verifier on the swapped
    layers and accepts exactly when it rejects.  A protocol whose added
    level would fall to the disprover (prover-first with an even level
    count, disprover-first with an odd one) is refused here.
    """
    k = p.level_count
    first = PROVER if k == 0 else other_side(p.first)
    owner = first if k % 2 == 0 else other_side(first)
    if owner != PROVER:
        raise ProtocolError(
            f"lift needs the added level {k + 1} to be the prover's, but on"
            f" {p.name} ({pattern_tag(p.first, k)}) it would be the {owner}'s")
    base_radius = p.verifier.radius
    radius = max(base_radius, 1)

    def final_cover(instance: Instance, earlier: tuple[Labelling, ...]):
        for root in sorted(range(instance.n), key=instance.id_of):
            yield honest_tree(instance, root)

    def final_strategy(instance: Instance,
                       earlier: tuple[Labelling, ...]) -> Labelling:
        decision = evaluate(p.verifier, instance, earlier[:k])
        pool = decision.rejecting_nodes or tuple(range(instance.n))
        return honest_tree(instance, min(pool, key=instance.id_of))

    swapped = tuple(Level(lv.domain_of, lv.cover, None) for lv in p.levels)
    levels = swapped + (Level(tree_cert_domain, final_cover, final_strategy),)

    def decide(ball: BallView) -> bool:
        if not tree_ok(ball, k, READ_TREE_CERT):
            return False
        if ball.own_label(k).parent is not None:
            return True
        return not p.verifier.decide(embed(ball, ball.layers[:k], base_radius))

    language = None
    if p.language is not None:
        lang = p.language

        def negated(instance: Instance, _oracle=lang.oracle) -> bool:
            return not _oracle(instance)

        language = LanguageSpec("not:" + lang.name, negated,
                                pattern_tag(first, k + 1))
    return Protocol("lift:" + p.name, first, levels,
                    LocalVerifier(radius, k + 1, decide), language)


# ---------------------------------------------------------------------------
# collapsing a final universal level into ball-local enumeration


class CollapsedLabel(NamedTuple):
    base: object
    sroot: int
    sparent: Optional[int]
    ssize: int
    nhat: int


def _honest_size_fragment(instance: Instance):
    """Per-node (sroot, sparent, ssize, nhat): the size certificate on the
    BFS tree from the smallest identity, plus the node count."""
    return [(c.root, c.parent, c.size, instance.n)
            for c in build_size_cert(instance)]


_READ_SIZE_PROOF = tree_reader(CollapsedLabel, "sroot", "sparent", "ssize")


def collapse_last_universal(p: Protocol, size_level: int = 1) -> Protocol:
    """Fold the final universal level into the verifier.

    A prover level is widened to also carry a subtree-size proof of the
    node count; once every node knows n, it can enumerate the removed
    level's labels over its own ball and demand acceptance under all of
    them.  The final level must be universal, and ``size_level`` selects
    the prover level that carries the size proof.
    """
    k = p.level_count
    if k == 0 or p.owner(k) != DISPROVER:
        raise ProtocolError(
            f"collapse needs a final universal level, {p.name}"
            f" is {pattern_tag(p.first, k)}")
    if not 1 <= size_level < k or p.owner(size_level) != PROVER:
        raise ProtocolError(
            f"the size proof must ride a prover level, not {size_level}")
    base_level = p.levels[size_level - 1]
    final_level = p.levels[k - 1]
    base_radius = p.verifier.radius
    radius = max(base_radius, 1)
    sl = size_level - 1

    def domain_of(n: int, N: int) -> LabelDomain:
        base = base_level.domain_of(n, N)
        return LabelDomain(
            "sized:" + base.name, base.c + 5, n, N,
            (sub_field("base", base),
             id_field("sroot", N),
             optional_id_field("sparent", N),
             range_field("ssize", 1, n),
             range_field("nhat", 1, n)),
            CollapsedLabel)

    @cache
    def final_axis(nhat: int, N: int) -> tuple:
        # The removed level's labels for any nhat-node instance.
        return tuple(final_level.domain_of(nhat, N).axis())

    def decide(ball: BallView) -> bool:
        own = ball.own_label(sl)
        # Once size_ok holds, every neighbour carries a CollapsedLabel.
        if not (isinstance(own, CollapsedLabel)
                and size_ok(ball, sl, _READ_SIZE_PROOF, own.nhat)
                and all(ball.label(sl, w).nhat == own.nhat
                        for w in ball.neighbours(ball.centre))):
            return False
        # n is now certified; play the removed level inside the ball.
        axis = final_axis(own.nhat, ball.N)
        base_layer = project(ball, CollapsedLabel, "base", sl)
        virtual = [base_layer if j == sl else ball.layers[j]
                   for j in range(k - 1)]
        for combo in product(axis, repeat=len(ball.members)):
            layers = tuple(virtual) + (dict(zip(ball.members, combo)),)
            if not p.verifier.decide(embed(ball, layers, base_radius)):
                return False
        return True

    def cover(instance: Instance, earlier: tuple[Labelling, ...]):
        fragment = _honest_size_fragment(instance)
        for bm in base_level.cover(instance, earlier):
            yield Labelling(CollapsedLabel(bm[v], *fragment[v])
                            for v in range(instance.n))

    strategy = None
    if base_level.strategy is not None:
        def strategy(instance: Instance,
                     earlier: tuple[Labelling, ...]) -> Labelling:
            bm = base_level.strategy(instance, earlier)
            fragment = _honest_size_fragment(instance)
            return Labelling(CollapsedLabel(bm[v], *fragment[v])
                             for v in range(instance.n))

    new_levels = list(p.levels[:k - 1])
    new_levels[sl] = Level(domain_of, cover, strategy)
    language = None
    if p.language is not None:
        language = LanguageSpec(p.language.name, p.language.oracle,
                                pattern_tag(p.first, k - 1))
    return Protocol("collapse:" + p.name, p.first, tuple(new_levels),
                    LocalVerifier(radius, k - 1, decide), language)


# ---------------------------------------------------------------------------
# two-sided combination with unanimous honest runs


class CombinedLabel(NamedTuple):
    branch: int
    yes: object
    no: object


def unanimous_combine(p_yes: Protocol, p_no: Protocol) -> Protocol:
    """Single protocol whose honest runs are unanimous on every instance.

    Both inputs must be single-level prover-first protocols, with ``p_no``
    accepting exactly the instances ``p_yes`` rejects.  Each node carries a
    branch bit plus a label for both sub-protocols.  Inside a uniformly
    flagged region a node answers as the flagged sub-protocol (negated on
    the no branch); on a flag boundary it answers its own bit.
    """
    for q in (p_yes, p_no):
        if q.level_count != 1 or q.first != PROVER:
            raise ProtocolError(
                f"unanimous combination needs single-level prover-first"
                f" protocols, {q.name} is {pattern_tag(q.first, q.level_count)}")
    ry = p_yes.verifier.radius
    rn = p_no.verifier.radius
    radius = max(ry, rn, 1)

    def domain_of(n: int, N: int) -> LabelDomain:
        ydom = p_yes.levels[0].domain_of(n, N)
        ndom = p_no.levels[0].domain_of(n, N)
        return LabelDomain(
            f"either:{ydom.name}|{ndom.name}", ydom.c + ndom.c + 1, n, N,
            (flag_field("branch", 2),
             sub_field("yes", ydom),
             sub_field("no", ndom)),
            CombinedLabel)

    def decide(ball: BallView) -> bool:
        own = ball.own_label(0)
        if not isinstance(own, CombinedLabel):
            return False
        if uniform(ball, CombinedLabel, "branch") is None:
            # Flag boundary: the node votes its own bit.
            return bool(own.branch)
        if own.branch == 1:
            yes = project(ball, CombinedLabel, "yes")
            return bool(p_yes.verifier.decide(embed(ball, (yes,), ry)))
        no = project(ball, CombinedLabel, "no")
        return not p_no.verifier.decide(embed(ball, (no,), rn))

    def cover(instance: Instance, earlier: tuple[Labelling, ...]):
        ydom = p_yes.levels[0].domain_of(instance.n, instance.N)
        blank = canonical_labelling(ydom)
        # All-no flags over unreadable no-labels win at every node.
        yield Labelling(CombinedLabel(0, blank[v], INVALID)
                        for v in range(instance.n))

    strategy = None
    if (p_yes.language is not None
            and p_yes.levels[0].strategy is not None
            and p_no.levels[0].strategy is not None):
        def strategy(instance: Instance,
                     earlier: tuple[Labelling, ...]) -> Labelling:
            ydom = p_yes.levels[0].domain_of(instance.n, instance.N)
            ndom = p_no.levels[0].domain_of(instance.n, instance.N)
            if p_yes.language.oracle(instance):
                branch = 1
                ys = p_yes.levels[0].strategy(instance, ())
                ns = canonical_labelling(ndom)
            else:
                branch = 0
                ys = canonical_labelling(ydom)
                ns = p_no.levels[0].strategy(instance, ())
            return Labelling(CombinedLabel(branch, ys[v], ns[v])
                             for v in range(instance.n))

    name = f"unanimous:{p_yes.name}+{p_no.name}"
    return Protocol(name, PROVER,
                    (Level(domain_of, cover, strategy),),
                    LocalVerifier(radius, 1, decide), None)


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
    available = 1
    for j in range(instance.n):
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
