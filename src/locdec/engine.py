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
from itertools import product
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

from .graphs import (BallView, IdAssignment, InputAssignment, Instance, Marks,
                     Ptr, make_view)
from .graphs import Graph
from .labels import (INVALID, DomainError, LabelDomain, Labelling, TreeCert,
                     build_bfs_tree, flag_field, id_field, optional_id_field,
                     range_field, sub_field, tree_cert_domain)
from .protocol import (DISPROVER, PROVER, LanguageSpec, Level, Protocol,
                       ProtocolError, all_invalid_labelling,
                       canonical_labelling, default_cover_size, other_side,
                       pattern_tag, product_cover)
from .runtime import Decision, LocalVerifier, evaluate, evaluate_verdict
from .schemes import _MALFORMED, _cert_tree_ok

DEFAULT_EVAL_CAP = 1 << 24
EVAL_CAP_ENV = "LOCDEC_MAX_EVALS"


class CapExceeded(RuntimeError):
    """Raised when an evaluation outgrows the configured resource caps."""


class StrategyError(RuntimeError):
    """Raised when a strategy emits a move outside its level's domain."""


@dataclass(frozen=True)
class EvalMode:
    """Resource caps and the constructive/exhaustive switch.

    ``constructive`` is False (search every prover level), True (take the
    strategy move on every prover level), or a frozenset of 1-based level
    numbers to play constructively.  Disprover levels are always searched
    exhaustively.  ``eval_cap`` bounds leaf evaluations (complete label
    assignments tested); None reads LOCDEC_MAX_EVALS, default 2**24.
    """

    constructive: Union[bool, frozenset[int]] = False
    node_cap: int = 12
    move_cap: int = 1 << 20
    eval_cap: Optional[int] = None

    def constructive_at(self, level: int) -> bool:
        if isinstance(self.constructive, bool):
            return self.constructive
        return level in self.constructive


EXHAUSTIVE = EvalMode()
CONSTRUCTIVE = EvalMode(constructive=True)


def _resolve_eval_cap(mode: EvalMode) -> int:
    if mode.eval_cap is not None:
        return mode.eval_cap
    raw = os.environ.get(EVAL_CAP_ENV)
    return int(raw) if raw is not None else DEFAULT_EVAL_CAP


@dataclass(frozen=True)
class GameStats:
    leaf_evaluations: int
    node_evaluations: int


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
    if instance.n > mode.node_cap:
        raise CapExceeded(
            f"instance has {instance.n} nodes, cap is {mode.node_cap}")
    eval_cap = _resolve_eval_cap(mode)
    counters = {"leaf": 0, "node": 0}

    def charge() -> None:
        counters["node"] += 1

    k = protocol.level_count
    domains = tuple(lv.domain_of(instance) for lv in protocol.levels)

    def leaf_value(chosen: tuple[Labelling, ...]) -> bool:
        counters["leaf"] += 1
        if counters["leaf"] > eval_cap:
            raise CapExceeded(
                f"{protocol.name}: leaf evaluations exceed the cap {eval_cap}")
        return evaluate_verdict(protocol.verifier, instance, chosen,
                                charge=charge)

    def moves(idx: int, earlier: tuple[Labelling, ...]):
        level = protocol.levels[idx]
        domain = domains[idx]
        adversarial = protocol.owner(idx + 1) == DISPROVER
        if level.cover is None:
            total = default_cover_size(domain, adversarial)
            if total > mode.move_cap:
                raise CapExceeded(
                    f"{protocol.name}: level {idx + 1} enumerates {total} moves,"
                    f" cap is {mode.move_cap}")
            yield from product_cover(domain, include_invalid=adversarial)
            return
        forfeit = None
        if adversarial and domain.has_invalid:
            forfeit = all_invalid_labelling(instance.n)
        seen_forfeit = False
        count = 0
        for move in level.cover(instance, earlier):
            count += 1
            if count > mode.move_cap:
                raise CapExceeded(
                    f"{protocol.name}: level {idx + 1} cover exceeds the move"
                    f" cap {mode.move_cap}")
            if forfeit is not None and move == forfeit:
                seen_forfeit = True
            yield move
        # The disprover may always decline to play a structured labelling.
        if forfeit is not None and not seen_forfeit:
            yield forfeit

    def play(idx: int, earlier: tuple[Labelling, ...]):
        if idx == k:
            return leaf_value(earlier), ()
        level = protocol.levels[idx]
        side = protocol.owner(idx + 1)
        domain = domains[idx]
        if side == PROVER and mode.constructive_at(idx + 1):
            if level.strategy is None:
                raise ProtocolError(
                    f"{protocol.name}: level {idx + 1} has no strategy for"
                    f" constructive play")
            move = level.strategy(instance, earlier)
            try:
                domain.check_labelling(move)
            except DomainError as exc:
                raise StrategyError(
                    f"{protocol.name}: level {idx + 1} strategy: {exc}") from exc
            if not isinstance(move, Labelling):
                move = Labelling(tuple(move))
            value, rest = play(idx + 1, earlier + (move,))
            return value, (move,) + rest
        wants = side == PROVER
        fallback = None
        for move in moves(idx, earlier):
            value, rest = play(idx + 1, earlier + (move,))
            if value == wants:
                return value, (move,) + rest
            if fallback is None:
                fallback = (move, rest)
        if fallback is None:
            # No moves at all: the level degenerates to a forced labelling.
            move = canonical_labelling(domain)
            value, rest = play(idx + 1, earlier + (move,))
            return value, (move,) + rest
        move, rest = fallback
        return not wants, (move,) + rest

    verdict, line = play(0, ())
    leaf = evaluate(protocol.verifier, instance, line)
    if leaf.verdict != verdict:
        raise ProtocolError(
            f"{protocol.name}: replaying the principal line gives"
            f" {leaf.verdict} but the game gave {verdict}; the verifier is"
            f" not a pure function of the ball")
    return GameOutcome(verdict, line, leaf, GameStats(counters["leaf"],
                                                      counters["node"]))


# ---------------------------------------------------------------------------
# ball surgery shared by the transforms


def shrink_ball(view: BallView, t: int) -> BallView:
    """Restrict a ball view to the radius-t sub-ball around its centre."""
    if t > view.radius:
        raise ProtocolError(f"cannot grow a radius-{view.radius} ball to {t}")
    dist = {v: d for v, d in view.centre_dist.items() if d <= t}
    return make_view(view.centre, t, dist, view.adj_in, view.ids_in,
                     view.inputs_in, view.layers, view.weights_in, view.N)


def _honest_tree_labelling(instance: Instance, root: int) -> Labelling:
    t = build_bfs_tree(instance, root)
    rid = instance.id_of(root)
    return Labelling(
        TreeCert(rid,
                 None if t.parent[v] is None else instance.id_of(t.parent[v]),
                 t.dist[v])
        for v in range(instance.n))


# ---------------------------------------------------------------------------
# complementation: one more level, roles swapped


def complement_lift(p: Protocol) -> Protocol:
    """Protocol for the complement language, one level deeper.

    The old levels change owners but keep their domains and covers; a new
    final prover level carries a rooted tree certificate whose root names
    one node, and the root node re-runs the old verifier on the swapped
    layers and accepts exactly when it rejects.
    """
    k = p.level_count
    base_radius = p.verifier.radius
    radius = max(base_radius, 1)

    def final_cover(instance: Instance, earlier: tuple[Labelling, ...]):
        for root in sorted(range(instance.n), key=instance.id_of):
            yield _honest_tree_labelling(instance, root)

    def final_strategy(instance: Instance,
                       earlier: tuple[Labelling, ...]) -> Labelling:
        decision = evaluate(p.verifier, instance, earlier[:k])
        pool = decision.rejecting_nodes or tuple(range(instance.n))
        return _honest_tree_labelling(instance,
                                      min(pool, key=instance.id_of))

    swapped = tuple(Level(lv.domain_of, lv.cover, None) for lv in p.levels)
    levels = swapped + (Level(tree_cert_domain, final_cover, final_strategy),)

    def decide(ball: BallView) -> bool:
        def triple(v: int):
            cert = ball.label(k, v)
            if not isinstance(cert, TreeCert):
                return _MALFORMED
            return (cert.root, cert.parent, cert.dist)

        if not _cert_tree_ok(ball, triple):
            return False
        if ball.own_label(k).parent is not None:
            return True
        inner = ball.with_layers(ball.layers[:k])
        if base_radius < radius:
            inner = shrink_ball(inner, base_radius)
        return not p.verifier.decide(inner)

    first = PROVER if k == 0 else other_side(p.first)
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


def _path_instance(n: int, N: int) -> Instance:
    g = Graph(n, frozenset((v, v + 1) for v in range(n - 1)))
    return Instance(g, IdAssignment(tuple(range(1, n + 1)), N),
                    InputAssignment((None,) * n))


def _subtree_sizes(instance: Instance, root: int):
    t = build_bfs_tree(instance, root)
    sizes = [1] * instance.n
    for v in reversed(t.order):
        pv = t.parent[v]
        if pv is not None:
            sizes[pv] += sizes[v]
    return t, sizes


def _honest_size_fragment(instance: Instance):
    """Per-node (sroot, sparent, ssize, nhat) along a BFS tree from the
    smallest identity."""
    root = min(range(instance.n), key=instance.id_of)
    t, sizes = _subtree_sizes(instance, root)
    rid = instance.id_of(root)
    return [(rid,
             None if t.parent[v] is None else instance.id_of(t.parent[v]),
             sizes[v], instance.n) for v in range(instance.n)]


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

    def domain_of(instance: Instance) -> LabelDomain:
        base = base_level.domain_of(instance)
        n = instance.n
        return LabelDomain(
            "sized:" + base.name, base.c + 5, instance,
            (sub_field("base", base),
             id_field("sroot", instance.N),
             optional_id_field("sparent", instance.N),
             range_field("ssize", 1, n),
             range_field("nhat", 1, n)),
            CollapsedLabel)

    def decide(ball: BallView) -> bool:
        own = ball.own_label(sl)
        if not isinstance(own, CollapsedLabel):
            return False
        neighbour_labels = []
        for w in ball.neighbours(ball.centre):
            lbl = ball.label(sl, w)
            if not isinstance(lbl, CollapsedLabel):
                return False
            if lbl.sroot != own.sroot or lbl.nhat != own.nhat:
                return False
            neighbour_labels.append(lbl)
        if own.sparent is None:
            if ball.own_id != own.sroot or own.ssize != own.nhat:
                return False
        else:
            target = ball.node_of(own.sparent)
            if target is None or not ball.has_edge(ball.centre, target):
                return False
        children = sum(lbl.ssize for lbl in neighbour_labels
                       if lbl.sparent == ball.own_id)
        if own.ssize != 1 + children:
            return False
        # n is now certified; play the removed level inside the ball.
        final_dom = final_level.domain_of(_path_instance(own.nhat, ball.N))
        axis: tuple = tuple(final_dom.values())
        if final_dom.has_invalid:
            axis += (INVALID,)
        base_layer = {}
        for v in ball.members:
            lbl = ball.label(sl, v)
            base_layer[v] = lbl.base if isinstance(lbl, CollapsedLabel) else INVALID
        virtual = [base_layer if j == sl else ball.layers[j]
                   for j in range(k - 1)]
        for combo in product(axis, repeat=len(ball.members)):
            layers = tuple(virtual) + (dict(zip(ball.members, combo)),)
            sub = ball.with_layers(layers)
            if base_radius < radius:
                sub = shrink_ball(sub, base_radius)
            if not p.verifier.decide(sub):
                return False
        return True

    def cover(instance: Instance, earlier: tuple[Labelling, ...]):
        fragment = _honest_size_fragment(instance)
        if base_level.cover is None:
            base_moves: Iterable[Labelling] = product_cover(
                base_level.domain_of(instance))
        else:
            base_moves = base_level.cover(instance, earlier)
        for bm in base_moves:
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

    def domain_of(instance: Instance) -> LabelDomain:
        ydom = p_yes.levels[0].domain_of(instance)
        ndom = p_no.levels[0].domain_of(instance)
        return LabelDomain(
            f"either:{ydom.name}|{ndom.name}", ydom.c + ndom.c + 1, instance,
            (flag_field("branch", 2),
             sub_field("yes", ydom),
             sub_field("no", ndom)),
            CombinedLabel)

    def _project(ball: BallView, part: str) -> dict[int, object]:
        out = {}
        for v in ball.members:
            lbl = ball.label(0, v)
            out[v] = getattr(lbl, part) if isinstance(lbl, CombinedLabel) else INVALID
        return out

    def decide(ball: BallView) -> bool:
        own = ball.own_label(0)
        if not isinstance(own, CombinedLabel):
            return False
        for w in ball.neighbours(ball.centre):
            lbl = ball.label(0, w)
            if not isinstance(lbl, CombinedLabel) or lbl.branch != own.branch:
                # Flag boundary: the node votes its own bit.
                return bool(own.branch)
        if own.branch == 1:
            sub = ball.with_layers((_project(ball, "yes"),))
            if ry < radius:
                sub = shrink_ball(sub, ry)
            return bool(p_yes.verifier.decide(sub))
        sub = ball.with_layers((_project(ball, "no"),))
        if rn < radius:
            sub = shrink_ball(sub, rn)
        return not p_no.verifier.decide(sub)

    def cover(instance: Instance, earlier: tuple[Labelling, ...]):
        ydom = p_yes.levels[0].domain_of(instance)
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
            ydom = p_yes.levels[0].domain_of(instance)
            ndom = p_no.levels[0].domain_of(instance)
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
    """Deterministic list of re-identified copies, the original first."""
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
