"""Transforms that build protocols from protocols, and the ball surgery
they share.

``complement_lift`` decides the complement language one level higher,
``collapse_last_universal`` folds a final universal round into an
enumeration, at each node, of the labels its verifier reads, backed by a
size proof, and ``unanimous_combine`` merges a protocol pair into one
whose honest runs are unanimous.  Each transform refuses, when it is
built, a protocol it cannot carry, so no game built from it fails for
that reason.  ``sub_decide`` is the one way a composite runs a part's
verifier: on the part's own layers (one field of a composite label, cut
out by ``project``) over the part's own radius-t sub-ball.  A certificate
nested in a field is read in place by ``schemes.part_reader`` instead.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cache
from typing import Iterator, NamedTuple, Optional, Sequence

from .graphs import BallView, Instance, make_shape, view_over
from .labels import (INVALID, LabelDomain, Labelling, flag_field, id_field,
                     optional_id_field, range_field, sub_field,
                     tree_cert_domain)
from .protocol import (DISPROVER, PROVER, LanguageSpec, Level, Protocol,
                       ProtocolError, canonical_labelling, other_side,
                       pattern_tag)
from .runtime import LocalVerifier, evaluate
from .schemes import (READ_TREE_CERT, build_size_cert, honest_tree, sum_ok,
                      tree_ok, tree_reader, uniform)


def require_single_prover_level(purpose: str, *protocols: Protocol) -> None:
    """Refuse any of ``protocols`` that is not one prover level.  A part
    whose level has no strategy is taken: the caller's own level then has
    none either, and constructive play searches it."""
    for q in protocols:
        if q.level_count != 1 or q.first != PROVER:
            raise ProtocolError(
                f"{purpose} needs single-level prover-first protocols,"
                f" {q.name} is {pattern_tag(q.first, q.level_count)}")


# ---------------------------------------------------------------------------
# ball surgery


def shrink_ball(view: BallView, t: int) -> BallView:
    """Restrict a ball view to the radius-t sub-ball around its centre:
    the view over the sub-ball's shape, built from the wider view's
    fields, with its inputs and layers projected onto the sub-ball."""
    if t > view.radius:
        raise ProtocolError(f"cannot grow a radius-{view.radius} ball to {t}")
    dist = {v: d for v, d in view.centre_dist.items() if d <= t}
    shape = make_shape(t, dist, view.adj_in, view.ids_in, view.weights_in)
    return view_over(view.centre, t, shape, view.inputs_in, view.layers,
                     view.N)


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


def sub_decide(verifier: LocalVerifier, view: BallView,
               layers: Sequence[dict[int, object]],
               inputs: Optional[dict[int, object]] = None) -> bool:
    """``verifier``'s decision on ``view`` with ``layers`` (and ``inputs``,
    when given) in place of the view's own, shrunk to the verifier's
    radius when that is smaller.  Swapping both makes one copy."""
    sub = view.with_layers(layers, inputs)
    if verifier.radius < view.radius:
        sub = shrink_ball(sub, verifier.radius)
    return verifier.decide(sub)


# ---------------------------------------------------------------------------
# complementation: one more level, roles swapped


def complement_lift(p: Protocol) -> Protocol:
    """Protocol for the complement language, one level deeper.

    The old levels change owners but keep their domains, covers and
    strategies; a protocol keeps strategies on its prover levels only, so
    a lift of a lift plays its base protocol's strategies again, and a
    base disprover level, which the prover now owns, is searched.  A new
    final prover level carries a rooted tree certificate whose root names
    one node, and the root node re-runs the old verifier on the swapped
    layers and accepts exactly when it rejects.  A protocol whose added
    level would fall to the disprover (prover-first with an even level
    count, disprover-first with an odd one) is refused.
    """
    k = p.level_count
    radius = max(p.verifier.radius, 1)

    def final_cover(instance: Instance, earlier: tuple[Labelling, ...]):
        for root in sorted(range(instance.n), key=instance.id_of):
            yield honest_tree(instance, root)

    def final_strategy(instance: Instance,
                       earlier: tuple[Labelling, ...]) -> Labelling:
        decision = evaluate(p.verifier, instance, earlier[:k])
        pool = decision.rejecting_nodes or tuple(range(instance.n))
        return honest_tree(instance, min(pool, key=instance.id_of))

    levels = p.levels + (Level(tree_cert_domain, final_cover, final_strategy),)

    def decide(ball: BallView) -> bool:
        if not tree_ok(ball, k, READ_TREE_CERT):
            return False
        if ball.own_label(k).parent is not None:
            return True
        return not sub_decide(p.verifier, ball, ball.layers[:k])

    language = None
    if p.language is not None:
        oracle = p.language.oracle
        language = LanguageSpec(lambda instance: not oracle(instance))
    first = PROVER if k == 0 else other_side(p.first)
    lifted = Protocol("lift:" + p.name, first, levels,
                      LocalVerifier(radius, k + 1, decide), language)
    owner = lifted.owner(k + 1)
    if owner != PROVER:
        raise ProtocolError(
            f"lift needs the added level {k + 1} to be the prover's, but on"
            f" {p.name} ({pattern_tag(p.first, k)}) it would be the {owner}'s")
    return lifted


# ---------------------------------------------------------------------------
# collapsing a final universal level into the verifier


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


class _ReadLayer(Mapping):
    """The removed level's layer over a ball's members, as one run of the
    base verifier reads it.

    A member's label is chosen from ``axis`` when the run first reads it.
    ``path`` holds the choices as ``[member, axis index]`` entries in read
    order, shared by the runs of one decision: a run replays the entries
    it reaches and appends one at each read past their end.  Membership,
    length and iteration choose nothing; ``get``, ``items`` and ``==``
    read through ``__getitem__``.
    """

    __slots__ = ("ball", "axis", "path", "name", "chosen")

    def __init__(self, ball: BallView, axis: tuple, path: list[list],
                 name: str) -> None:
        self.ball = ball
        self.axis = axis
        self.path = path
        self.name = name
        self.chosen: dict[int, object] = {}

    def __getitem__(self, v: int) -> object:
        chosen = self.chosen
        if v in chosen:
            return chosen[v]
        if v not in self.ball.centre_dist:
            raise KeyError(v)
        path = self.path
        depth = len(chosen)
        if depth == len(path):
            path.append([v, 0])
        elif path[depth][0] != v:
            raise self.impure()
        label = chosen[v] = self.axis[path[depth][1]]
        return label

    def impure(self) -> ProtocolError:
        """The refusal of a replay that read another member than the run
        before it at the same depth, or stopped before the path's end."""
        return ProtocolError(
            f"{self.name}: node {self.ball.centre}'s base verifier read the"
            f" removed level in another order on a replay; it is not a pure"
            f" function of the ball")

    def __contains__(self, v: object) -> bool:
        return v in self.ball.centre_dist

    def __len__(self) -> int:
        return len(self.ball.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.ball.members)


def collapse_last_universal(p: Protocol) -> Protocol:
    """Fold the final universal level into the verifier.

    The first prover level is widened to also carry a subtree-size proof
    of the node count; once every node knows n, it can enumerate the
    removed level's labels its verifier reads and demand acceptance under
    all of them.  The final level must be universal, and a prover level
    must come before it.

    The enumeration replays choice points: each run of the base verifier
    sees a `_ReadLayer` that picks a member's label when the run first
    reads it, and the next run advances the last choice that has untried
    labels.  This is exact because the base verifier is pure: two
    labellings of the ball that agree on every label a run read give the
    same reads and the same answer, so each run stands for every full
    labelling that extends its reads.  The node rejects at the first
    rejecting run and accepts when the choices are exhausted; a verifier
    that reads every member still plays the whole product, in read order.
    """
    k = p.level_count
    if k == 0 or p.owner(k) != DISPROVER:
        raise ProtocolError(
            f"collapse needs a final universal level, {p.name}"
            f" is {pattern_tag(p.first, k)}")
    sl = 0 if p.first == PROVER else 1
    if sl >= k - 1:
        raise ProtocolError(
            f"the size proof must ride a prover level before the final one,"
            f" {p.name} ({pattern_tag(p.first, k)}) has none")
    base_level = p.levels[sl]
    final_level = p.levels[k - 1]
    radius = max(p.verifier.radius, 1)
    name = "collapse:" + p.name

    def domain_of(n: int, N: int) -> LabelDomain:
        base = base_level.domain_of(n, N)
        return LabelDomain(
            "sized:" + base.name, base.c + 5, n, N,
            (sub_field("base", base),
             id_field("sroot", N),
             optional_id_field("sparent", N),
             range_field("ssize", 1, n),
             range_field("nhat", 1, n)),
            CollapsedLabel, base.d)

    @cache
    def final_axis(nhat: int, N: int) -> tuple:
        # The removed level's labels for any nhat-node instance.
        return tuple(final_level.domain_of(nhat, N).axis())

    def decide(ball: BallView) -> bool:
        own = ball.own_label(sl)
        # Once sum_ok holds, every neighbour carries a CollapsedLabel.
        if not (isinstance(own, CollapsedLabel)
                and sum_ok(ball, sl, _READ_SIZE_PROOF, 1,
                           lambda size: size == own.nhat)
                and all(ball.label(sl, w).nhat == own.nhat
                        for w in ball.neighbours(ball.centre))):
            return False
        # n is now certified; play the removed level inside the ball,
        # branching only on the labels the base verifier reads.
        axis = final_axis(own.nhat, ball.N)
        base_layer = project(ball, CollapsedLabel, "base", sl)
        virtual = tuple(base_layer if j == sl else ball.layers[j]
                        for j in range(k - 1))
        path: list[list] = []
        while True:
            final = _ReadLayer(ball, axis, path, name)
            if not sub_decide(p.verifier, ball, virtual + (final,)):
                return False
            if len(final.chosen) < len(path):
                raise final.impure()
            # Advance the last choice with untried values; drop the rest.
            while path and path[-1][1] == len(axis) - 1:
                path.pop()
            if not path:
                return True
            path[-1][1] += 1

    def cover(instance: Instance, earlier: tuple[Labelling, ...]):
        fragment = _honest_size_fragment(instance)
        for bm in base_level.cover(instance, earlier):
            yield Labelling(CollapsedLabel(bm[v], *fragment[v])
                            for v in range(instance.n))

    # A base level with no strategy stays searched, over the wider cover.
    strategy = base_level.strategy
    if strategy is not None:
        def strategy(instance: Instance,
                     earlier: tuple[Labelling, ...]) -> Labelling:
            bm = base_level.strategy(instance, earlier)
            fragment = _honest_size_fragment(instance)
            return Labelling(CollapsedLabel(bm[v], *fragment[v])
                             for v in range(instance.n))

    new_levels = list(p.levels[:k - 1])
    new_levels[sl] = Level(domain_of, cover, strategy)
    return Protocol(name, p.first, tuple(new_levels),
                    LocalVerifier(radius, k - 1, decide), p.language)


# ---------------------------------------------------------------------------
# two-sided combination with unanimous honest runs


class CombinedLabel(NamedTuple):
    branch: int
    yes: object
    no: object


def unanimous_combine(p_yes: Protocol, p_no: Protocol) -> Protocol:
    """Single protocol whose honest runs are unanimous on every instance.

    Both inputs must be single-level prover-first protocols, with ``p_no``
    accepting exactly the instances ``p_yes`` rejects.  The strategy calls
    theirs, so when a part has none the level has none, and constructive
    play searches its cover.  Each node carries
    a branch bit plus a label for both sub-protocols.  Inside a uniformly
    flagged region a node answers as the flagged sub-protocol (negated on
    the no branch); on a flag boundary it answers its own bit.
    """
    require_single_prover_level("unanimous combination", p_yes, p_no)
    radius = max(p_yes.verifier.radius, p_no.verifier.radius, 1)

    def domain_of(n: int, N: int) -> LabelDomain:
        ydom = p_yes.levels[0].domain_of(n, N)
        ndom = p_no.levels[0].domain_of(n, N)
        return LabelDomain(
            f"either:{ydom.name}|{ndom.name}", ydom.c + ndom.c + 1, n, N,
            (flag_field("branch", 2),
             sub_field("yes", ydom),
             sub_field("no", ndom)),
            CombinedLabel, ydom.d + ndom.d)

    def decide(ball: BallView) -> bool:
        own = ball.own_label(0)
        if not isinstance(own, CombinedLabel):
            return False
        if uniform(ball, CombinedLabel, "branch") is None:
            # Flag boundary: the node votes its own bit.
            return bool(own.branch)
        if own.branch == 1:
            yes = project(ball, CombinedLabel, "yes")
            return bool(sub_decide(p_yes.verifier, ball, (yes,)))
        no = project(ball, CombinedLabel, "no")
        return not sub_decide(p_no.verifier, ball, (no,))

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
