"""Local verifier execution: per-node decisions over ball views, conjunct verdict.

A labelling is accepted only if every node accepts, so one rejecting node
refutes it.  ``evaluate`` decides every node; a searched game's leaves
look for one rejecting node with ``ViewStore.first_rejection``, which
asks an optional hinted node first, then every other node in the
store's order, each once, and stops at the first rejection.  The order
starts as node order, and a node found rejecting in that scan moves to
its front (move-to-front, Sleator & Tarjan 1985), so a node that refuted
a recent leaf is tried before the rest.  A decision depends on its view
alone, so the order cannot change whether a rejecting node exists, only
how many decisions are made before one is found.

``ball`` is the one builder of fresh views.  It builds a centre's
geometry (members, edges, identities, distances, weights) once per
(graph, identities) pair and radius, and keeps it in the pair's
``graphs.geometry``: every later view of that centre, in this game or a
later one on the pair, is a new view object over the kept geometry with
the instance's inputs and the requested labels freshly projected onto
its members.

A searched game draws its views from a ``ViewStore``, bound to one
instance and one radius.  Across the leaves of one game only the label
layers change, so a centre's members, edges, identities, inputs and
frontier stay the same.  A store keeps the view ``ball`` builds on a
centre's first request; every later decision gets a ``with_layers`` copy
of it with the requested labellings projected onto its members, with no
inputs projected.  A view computes its edge set and identity inverse on
first read (see ``BallView``), so a copy shares whichever of them the
first decision on the kept view read.  ``evaluate`` asks each centre
once, so it makes no store: each node decides on a fresh view from
``ball``.

A decision depends on its view alone, so a store also keeps, for
each centre, the label layers and the verdict of its last decision.  A
request whose labels, projected onto the centre's members, equal those
layers gets the kept verdict, with no view and no decision: the store's
instance and radius are fixed, so equal layers mean an equal view (a
transposition table for the leaves, Zobrist 1970, bounded to one entry
per centre, which go with the store at the end of its game).  Any other
request is decided, and its layers and verdict replace the kept ones.

Each node decision draws exactly one view from the store, so the
store's ``served`` count is the number of decisions made with it, and
its ``reused`` count the verdicts it answered without one; a game reads
its node-decision and reuse counts there.

The leaf loop trusts what it is handed: one row of labels per layer,
each labelling every node (a ``Labelling`` is its own row, the tuple of
its labels), and a hint that is a node.  A searched game checks each
move once, when it is drawn (see ``engine.game_evaluate``), and runs the
loop at every leaf below it.

``game_evaluate`` shares one store, and so one order, across the leaves
of a searched game, and hints each leaf with the node that last rejected
a leaf at the same final-level move position.  Its final replay of the
principal line calls ``evaluate``, which builds fresh view objects, with
freshly projected labels and inputs, over the pair's kept geometry,
apart from the game's store.  So the replay stays an independent check
of what the store serves: a verifier that depends on anything but its
view, or a view or kept verdict the game's store served wrongly, can
show up as a verdict mismatch instead of being repeated.  The kept
geometry itself is shared with the game, which is why no verifier may
write into a view.
A game that searches no level has one leaf, so it makes no store and no
hint: it calls ``evaluate`` once on its one line, deciding each view
twice until one rejects, and that is both its leaf and its replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .graphs import BallView, Instance, ball


class VerifierError(ValueError):
    """Raised when a verifier is run against mismatched labellings."""


@dataclass(frozen=True)
class LocalVerifier:
    """A radius-``t`` decision rule applied independently at every node.

    ``decide`` must be pure: equal ball views yield equal decisions, made
    by the same reads in the same order, and it may only inspect what the
    view exposes.  It must not write into the view: a view shares its
    geometry with every later view of its centre, in this game and in the
    games after it on the same graph and identities.  A collapsed final
    level picks each label as it is read (see
    ``transforms.collapse_last_universal``), so a read order that changes
    between equal views is refused there.
    """

    radius: int
    layer_count: int
    decide: Callable[[BallView], bool]

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise VerifierError(f"radius must be non-negative, got {self.radius}")
        if self.layer_count < 0:
            raise VerifierError(f"layer count must be non-negative, got {self.layer_count}")


@dataclass(frozen=True)
class Decision:
    """Per-node accept/reject outcomes; the verdict is their conjunction."""

    accepts: tuple[bool, ...]

    @property
    def verdict(self) -> bool:
        return all(self.accepts)

    @property
    def rejecting_nodes(self) -> tuple[int, ...]:
        return tuple(v for v, ok in enumerate(self.accepts) if not ok)


class ViewStore:
    """Node verdicts over radius-``radius`` views of ``instance``, one view
    kept per centre from its first request on, and each centre's last
    verdict kept with the labels it was decided on (see the module
    docstring).

    ``kept`` maps each centre asked for to the view ``ball`` built on its
    first request, and ``last`` to the label layers and verdict of its
    last decision.  ``served`` counts the decisions made, one view each,
    so ``served - len(kept)`` of them were made on copies of a kept view.
    ``reused`` counts the requests answered with a kept verdict, which
    make no view and no decision.  None of them counts what ``ball``
    reuses from the geometry it keeps, so all depend on this game alone.

    ``order`` lists every node, the most recent rejecter found by
    ``first_rejection``'s scan first; it starts as node order.
    """

    def __init__(self, instance: Instance, radius: int) -> None:
        self.instance = instance
        self.radius = radius
        self.served = 0
        self.reused = 0
        self.kept: dict[int, BallView] = {}
        self.last: dict[int, tuple[tuple[dict[int, object], ...], bool]] = {}
        self.order = list(range(instance.n))

    def verdict(self, decide: Callable[[BallView], bool],
                rows: Sequence[Sequence[object]], v: int) -> bool:
        """Node ``v``'s verdict with ``rows`` (one label sequence per
        layer, indexed by node) projected onto its members: the kept
        verdict when the projected layers equal those of ``v``'s last
        decision, else a decision on a view, which is kept as the last."""
        kept = self.kept.get(v)
        if kept is None:
            view = self.kept[v] = ball(self.instance, rows, v, self.radius)
            layers = view.layers
        else:
            members = kept.members
            layers = tuple([{u: row[u] for u in members} for row in rows])
            last_layers, accepts = self.last[v]
            if layers == last_layers:
                self.reused += 1
                return accepts
            view = kept.with_layers(layers)
        self.served += 1
        accepts = decide(view)
        self.last[v] = (layers, accepts)
        return accepts

    def first_rejection(self, decide: Callable[[BallView], bool],
                        rows: Sequence[Sequence[object]],
                        first: Optional[int] = None) -> Optional[int]:
        """The first node found to reject, or None when every node accepts.

        Node ``first``, when given, is asked first; then every other node
        in ``order``, each once, for its ``verdict``.  A node that rejects
        in that scan moves to the front of ``order``; a rejecting
        ``first`` stays where it is.  Nothing handed to it is checked (see
        the module docstring)."""
        verdict = self.verdict
        if first is not None and not verdict(decide, rows, first):
            return first
        order = self.order
        for i, v in enumerate(order):
            if v != first and not verdict(decide, rows, v):
                if i:
                    del order[i]
                    order.insert(0, v)
                return v
        return None


def layer_row(labelling: Sequence[object], n: int,
              layer: int) -> Sequence[object]:
    """The labelling read as layer ``layer``, which is its own row of
    labels: a ``Labelling`` or any other sequence indexed by node.  A row
    that does not label exactly ``n`` nodes is refused."""
    if len(labelling) != n:
        raise VerifierError(
            f"labelling {layer} covers {len(labelling)} nodes, instance has {n}")
    return labelling


def evaluate(verifier: LocalVerifier, instance: Instance,
             labellings: Sequence[Sequence[object]] = ()) -> Decision:
    """Run the verifier at every node and collect the full decision map.

    Each node decides on a fresh view from ``ball``, with no store: every
    centre is asked once, so a store would serve no copy.  The views share
    only the geometry ``ball`` keeps for the instance's graph and
    identities; their inputs and labels are projected afresh."""
    labellings = tuple(labellings)
    if len(labellings) != verifier.layer_count:
        raise VerifierError(
            f"verifier reads {verifier.layer_count} labelling layers, got {len(labellings)}")
    rows = tuple(layer_row(lab, instance.n, i)
                 for i, lab in enumerate(labellings))
    decide, radius, build = verifier.decide, verifier.radius, ball
    return Decision(tuple(bool(decide(build(instance, rows, v, radius)))
                          for v in range(instance.n)))
