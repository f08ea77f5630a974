"""Protocol certifying that the graph has a nontrivial symmetry.

The first level (prover) names an image identity for every node: a
claimed non-identity adjacency-preserving bijection.  The remaining two
levels check that claim as the complement lift of a single-level
protocol whose certificates expose a defect of the map; the map itself
is handed to the lifted machinery as reinterpreted node inputs.  The
defect certificates pack up to four rooted spanning trees behind a
leading branch flag:

* identity: every node's image is its own identity,
* shared image: two distinct witness nodes claim the same image,
* lost edge: two adjacent witnesses have non-adjacent images,
* gained edge: two non-adjacent witnesses have adjacent images.

A map whose images all name existing identities and that has none of
these defects is a nontrivial automorphism, so refuting every
certificate proves the claim.  A node whose own image is not a
``NodeImage`` rejects.  Witness duties are read at tree roots: a root
compares its own input with the image tree's root identity, and
adjacency claims are checked against neighbour identities.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable, NamedTuple, Optional

from ..graphs import BallView, Instance
from ..labels import (LabelDomain, Labelling, TreeCert, flag_field, id_field,
                      sub_field, tree_cert_domain)
from ..oracles import has_nontrivial_automorphism, oracle_automorphisms
from ..protocol import (PROVER, LanguageSpec, Level, Protocol,
                        certificate_protocol, keep_last)
from ..runtime import LocalVerifier
from ..schemes import honest_tree, part_reader, tree_ok, uniform
from ..transforms import complement_lift, project, sub_decide

IDENTITY_MAP = 0
SHARED_IMAGE = 1
LOST_EDGE = 2
GAINED_EDGE = 3


class MapDefect(NamedTuple):
    flag: int
    ta: object
    tb: object
    tc: object
    td: object


class NodeImage(NamedTuple):
    image: int


def node_image_domain(n: int, N: int) -> LabelDomain:
    return LabelDomain("node-image", 1, n, N,
                       (id_field("image", N),), NodeImage)


def map_defect_domain(n: int, N: int) -> LabelDomain:
    tdom = tree_cert_domain(n, N)
    return LabelDomain("map-defect", 2 + 4 * tdom.c, n, N,
                       (flag_field("flag", 4),
                        sub_field("ta", tdom), sub_field("tb", tdom),
                        sub_field("tc", tdom), sub_field("td", tdom)),
                       MapDefect, 4 * tdom.d)


_READ_PART = {part: part_reader(MapDefect, part, TreeCert)
              for part in ("ta", "tb", "tc", "td")}


def verify_map_defect(b: BallView) -> bool:
    own = uniform(b, MapDefect, "flag")
    if own is None:
        return False
    image = b.own_input
    if own.flag == IDENTITY_MAP:
        return image == b.own_id
    parts = ("ta", "tb", "tc") if own.flag == SHARED_IMAGE \
        else ("ta", "tb", "tc", "td")
    for part in parts:
        if not tree_ok(b, 0, _READ_PART[part]):
            return False
    if own.ta.root == own.tb.root:
        return False
    nbr_ids = {b.id_of(w) for w in b.neighbours(b.centre)}
    ok = True
    if own.flag == SHARED_IMAGE:
        if own.ta.parent is None or own.tb.parent is None:
            ok = image == own.tc.root
        return ok
    if own.ta.parent is None:
        adjacent = own.tb.root in nbr_ids
        ok = ok and image == own.tc.root
        ok = ok and (adjacent if own.flag == LOST_EDGE else not adjacent)
    if own.tb.parent is None:
        ok = ok and image == own.td.root
    if own.tc.parent is None:
        linked = own.td.root in nbr_ids
        ok = ok and (not linked if own.flag == LOST_EDGE else linked)
    return ok


def _first_map_defect(instance: Instance) -> Optional[tuple[int, tuple[int, ...]]]:
    """The lowest-identity defect of the input map: its flag and the roots
    of the honest trees that certify it, in part order."""
    n = instance.n
    ids = instance.ids.ids
    phi = instance.inputs.values
    order = sorted(range(n), key=ids.__getitem__)

    def image_node(v: int) -> Optional[int]:
        img = phi[v]
        if isinstance(img, int) and not isinstance(img, bool):
            return instance.node_of(img)
        return None

    if tuple(phi) == ids:
        return IDENTITY_MAP, ()
    for u in order:
        for v in order:
            if ids[u] >= ids[v]:
                continue
            if phi[u] != phi[v]:
                continue
            w = image_node(u)
            if w is not None:
                return SHARED_IMAGE, (u, v, w)
    for u, v in sorted(((p, q) if ids[p] < ids[q] else (q, p)
                        for p, q in instance.graph.edges),
                       key=lambda e: (ids[e[0]], ids[e[1]])):
        w1, w2 = image_node(u), image_node(v)
        if w1 is not None and w2 is not None \
                and not instance.graph.has_edge(w1, w2):
            return LOST_EDGE, (u, v, w1, w2)
    for u in order:
        for v in order:
            if ids[u] >= ids[v]:
                continue
            if instance.graph.has_edge(u, v):
                continue
            w1, w2 = image_node(u), image_node(v)
            if w1 is not None and w2 is not None \
                    and instance.graph.has_edge(w1, w2):
                return GAINED_EDGE, (u, v, w1, w2)
    return None


def map_defect_exists(instance: Instance) -> bool:
    """Does the input map show one of the four certifiable defects?"""
    return _first_map_defect(instance) is not None


def protocol_map_defect() -> Protocol:
    def honest(instance: Instance) -> Optional[Labelling]:
        """The lowest-identity defect, honestly certified.  Tree parts no
        root fills carry the first value of the level domain's tree part."""
        defect = _first_map_defect(instance)
        if defect is None:
            return None
        flag, roots = defect
        trees = [honest_tree(instance, r) for r in roots]
        if len(trees) < 4:
            first = protocol.levels[0].domain_of(instance.n, instance.N).first()
            trees += [(first.td,) * instance.n] * (4 - len(trees))
        return Labelling(MapDefect(flag, *parts) for parts in zip(*trees))

    protocol = certificate_protocol("map-defect", map_defect_domain, honest,
                                    verify_map_defect, map_defect_exists)
    return protocol


def protocol_nontrivial_automorphism() -> Protocol:
    lifted = complement_lift(protocol_map_defect())
    refute_lv, rebut_lv = lifted.levels

    # The refute and rebut levels of one image move read the same mapped
    # instance, so the last one is kept.
    @keep_last
    def map_inputs(instance: Instance, move: Labelling) -> Instance:
        return instance.with_inputs(tuple(
            lbl.image if isinstance(lbl, NodeImage) else None
            for lbl in move))

    def image_cover(instance: Instance, earlier) -> Iterable[Labelling]:
        idents = sorted(instance.id_of(v) for v in range(instance.n))
        for perm in permutations(idents):
            yield Labelling(NodeImage(i) for i in perm)

    def image_strategy(instance: Instance, earlier) -> Labelling:
        identity = tuple(range(instance.n))
        for perm in sorted(oracle_automorphisms(instance.graph)):
            if perm != identity:
                return Labelling(NodeImage(instance.id_of(perm[v]))
                                 for v in range(instance.n))
        return Labelling(NodeImage(instance.id_of(v))
                         for v in range(instance.n))

    def refute_cover(instance: Instance, earlier) -> Iterable[Labelling]:
        yield from refute_lv.cover(map_inputs(instance, earlier[0]), ())

    def rebut_cover(instance: Instance, earlier) -> Iterable[Labelling]:
        yield from rebut_lv.cover(map_inputs(instance, earlier[0]),
                                  (earlier[1],))

    def rebut_strategy(instance: Instance, earlier) -> Labelling:
        return rebut_lv.strategy(map_inputs(instance, earlier[0]),
                                 (earlier[1],))

    def decide(b: BallView) -> bool:
        # An unreadable image claims no map; the lifted verifier would read
        # it as a missing input, which no defect certificate names.
        if not isinstance(b.own_label(0), NodeImage):
            return False
        images = project(b, NodeImage, "image", missing=None)
        return bool(sub_decide(lifted.verifier, b, b.layers[1:], images))

    return Protocol(
        "nta", PROVER,
        (Level(node_image_domain, image_cover, image_strategy),
         Level(refute_lv.domain_of, refute_cover, None),
         Level(rebut_lv.domain_of, rebut_cover, rebut_strategy)),
        LocalVerifier(lifted.verifier.radius, 3, decide),
        LanguageSpec(lambda inst: has_nontrivial_automorphism(inst.graph)))
