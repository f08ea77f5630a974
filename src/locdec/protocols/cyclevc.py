"""Three-round game about cycle-coverable node sets.

Every node's input carries the same threshold k.  The prover opens by
flagging a node set X and proving |X| >= k with a counting certificate
over a rooted tree.  The disprover flags a challenge subset S; a flag
on a node outside X is read as no challenge at all, which confines the
challenge to subsets of X without handing the disprover a free win.
The prover closes with one cycle that carries every challenged node
and no other X-node, certified by cycle positions plus three counting
certificates over one shared tree: the challenge count must equal the
challenge-on-cycle count (so no challenged node is missed), and the
on-cycle count must equal the claimed cycle length (so the position
structure cannot weld several short cycles into one claim).  An empty
challenge is answered by the no-cycle response with length zero.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, NamedTuple, Optional

from ..graphs import BallView, Instance
from ..labels import (GatherCert, LabelDomain, Labelling, flag_field,
                      gather_cert_domain, optional_range_field, range_field,
                      sub_field)
from ..oracles import cycle_vc_witness, oracle_cycle_vc, simple_cycles
from ..protocol import PROVER, LanguageSpec, Level, Protocol, first_move
from ..runtime import LocalVerifier
from ..schemes import build_gathering_cert, part_reader, sum_ok, tree_ok


class XClaim(NamedTuple):
    member: int
    count: object


class SPick(NamedTuple):
    chosen: int


class CycleResponse(NamedTuple):
    onc: int
    cpos: Optional[int]
    clen: int
    s_total: object
    s_cycle: object
    cycle_size: object


def x_claim_domain(n: int, N: int) -> LabelDomain:
    gdom = gather_cert_domain(n, N)
    return LabelDomain("x-claim", 1 + gdom.c, n, N,
                       (flag_field("member", 2), sub_field("count", gdom)),
                       XClaim, gdom.d)


def s_pick_domain(n: int, N: int) -> LabelDomain:
    return LabelDomain("s-pick", 1, n, N,
                       (flag_field("chosen", 2),), SPick)


def cycle_response_domain(n: int, N: int) -> LabelDomain:
    gdom = gather_cert_domain(n, N)
    return LabelDomain("cycle-response", 5 + 3 * gdom.c, n, N,
                       (flag_field("onc", 2),
                        optional_range_field("cpos", 0, max(1, n - 1)),
                        range_field("clen", 0, n),
                        sub_field("s_total", gdom),
                        sub_field("s_cycle", gdom),
                        sub_field("cycle_size", gdom)),
                       CycleResponse, 3 * gdom.d)


def uniform_threshold(instance: Instance) -> Optional[int]:
    k = instance.input_of(0)
    if not isinstance(k, int) or isinstance(k, bool):
        return None
    if any(instance.input_of(v) != k for v in range(instance.n)):
        return None
    return k


# ---------------------------------------------------------------------------
# verifier

# The counting certificates, each read in place from its field.
_READ_COUNT = part_reader(XClaim, "count", GatherCert)
_READ_RESPONSE = {part: part_reader(CycleResponse, part, GatherCert)
                  for part in ("s_total", "s_cycle", "cycle_size")}


def _challenged(b: BallView, v: int) -> int:
    x = b.label(0, v)
    s = b.label(1, v)
    return 1 if isinstance(x, XClaim) and x.member == 1 \
        and isinstance(s, SPick) and s.chosen == 1 else 0


def _decide(b: BallView) -> bool:
    own1 = b.own_label(0)
    k = b.own_input
    if not isinstance(own1, XClaim) \
            or not isinstance(k, int) or isinstance(k, bool):
        return False
    for w in b.neighbours(b.centre):
        if b.input_of(w) != k or not isinstance(b.label(0, w), XClaim):
            return False

    if not (tree_ok(b, 0, _READ_COUNT)
            and sum_ok(b, 0, _READ_COUNT, own1.member,
                       lambda total: total >= k)):
        return False

    own3 = b.own_label(2)
    if not isinstance(own3, CycleResponse):
        return False
    for w in b.neighbours(b.centre):
        other = b.label(2, w)
        if not isinstance(other, CycleResponse) or other.clen != own3.clen:
            return False
    for v in b.members:
        lbl = b.label(2, v)
        parts = (lbl.s_total, lbl.s_cycle, lbl.cycle_size)
        if not all(isinstance(p, GatherCert) for p in parts):
            return False
        if not (lbl.s_total[:3] == lbl.s_cycle[:3] == lbl.cycle_size[:3]):
            return False

    on_cycle = 1 if own3.onc == 1 else 0
    checks = (
        ("s_total", _challenged(b, b.centre),
         lambda total: total == own3.s_cycle.agg),
        ("s_cycle", _challenged(b, b.centre) * on_cycle,
         lambda total: True),
        ("cycle_size", on_cycle,
         lambda total: total == own3.clen
         and (own3.clen == 0 or own3.clen >= 3)),
    )
    for part, value, at_root in checks:
        read = _READ_RESPONSE[part]
        if not (tree_ok(b, 2, read) and sum_ok(b, 2, read, value, at_root)):
            return False

    if own3.onc == 1:
        if not isinstance(own3.cpos, int) or not 0 <= own3.cpos < own3.clen:
            return False
        for step in (1, -1):
            wanted = (own3.cpos + step) % own3.clen
            hits = [w for w in b.neighbours(b.centre)
                    if b.label(2, w).onc == 1
                    and b.label(2, w).cpos == wanted]
            if len(hits) != 1:
                return False
    elif own3.cpos is not None:
        return False
    if own1.member == 1 and not _challenged(b, b.centre) and own3.onc == 1:
        return False
    return True


# ---------------------------------------------------------------------------
# moves


def _honest_claim(instance: Instance, members: frozenset[int]) -> Labelling:
    flags = [1 if v in members else 0 for v in range(instance.n)]
    gather = build_gathering_cert(instance, flags)
    return Labelling(XClaim(flags[v], gather[v]) for v in range(instance.n))


def _flagged(move: Labelling, kind, field: str) -> frozenset[int]:
    return frozenset(v for v, lbl in enumerate(move)
                     if isinstance(lbl, kind) and getattr(lbl, field) == 1)


def _challenge_set(earlier) -> frozenset[int]:
    return _flagged(earlier[0], XClaim, "member") \
        & _flagged(earlier[1], SPick, "chosen")


def _response(instance: Instance, earlier,
              cycle: tuple[int, ...]) -> Labelling:
    challenged = _challenge_set(earlier)
    pos = {v: i for i, v in enumerate(cycle)}
    n = instance.n
    s_total = build_gathering_cert(
        instance, [1 if v in challenged else 0 for v in range(n)])
    s_cycle = build_gathering_cert(
        instance, [1 if v in challenged and v in pos else 0 for v in range(n)])
    size = build_gathering_cert(instance, [1 if v in pos else 0 for v in range(n)])
    return Labelling(
        CycleResponse(1 if v in pos else 0, pos.get(v), len(cycle),
                      s_total[v], s_cycle[v], size[v])
        for v in range(n))


def protocol_cycle_vc() -> Protocol:
    def claim_cover(instance: Instance, earlier) -> Iterable[Labelling]:
        k = uniform_threshold(instance)
        if k is None:
            return
        for r in range(k, instance.n + 1):
            for xs in combinations(range(instance.n), r):
                yield _honest_claim(instance, frozenset(xs))

    def claim_strategy(instance: Instance, earlier) -> Labelling:
        k = uniform_threshold(instance)
        xset = None if k is None else cycle_vc_witness(instance.graph, k)
        if xset is not None:
            return _honest_claim(instance, xset)
        return first_move(claim, instance, earlier)

    def pick_cover(instance: Instance, earlier) -> Iterable[Labelling]:
        members = sorted(_flagged(earlier[0], XClaim, "member"))
        for r in range(1, len(members) + 1):
            for ss in combinations(members, r):
                chosen = set(ss)
                yield Labelling(SPick(1 if v in chosen else 0)
                                for v in range(instance.n))

    def respond_cover(instance: Instance, earlier) -> Iterable[Labelling]:
        challenged = _challenge_set(earlier)
        if not challenged:
            yield _response(instance, earlier, ())
            return
        avoid = _flagged(earlier[0], XClaim, "member") - challenged
        for cycle in simple_cycles(instance.graph):
            nodes = frozenset(cycle)
            if challenged <= nodes and not avoid & nodes:
                yield _response(instance, earlier, cycle)

    def in_language(instance: Instance) -> bool:
        k = uniform_threshold(instance)
        return k is not None and oracle_cycle_vc(instance.graph, k)

    claim = Level(x_claim_domain, claim_cover, claim_strategy)
    return Protocol(
        "cycle-vc", PROVER,
        (claim, Level(s_pick_domain, pick_cover, None),
         Level(cycle_response_domain, respond_cover, None)),
        LocalVerifier(1, 3, _decide),
        LanguageSpec(in_language))
