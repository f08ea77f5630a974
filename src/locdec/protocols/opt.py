"""Protocols certifying that an input is not an optimal admissible solution.

The single prover level carries a flagged composite label.  Flag 0 claims
the input is inadmissible and embeds a certificate for the complement of
the admissibility language.  Flag 1 claims a strictly better admissible
substitute input exists: it embeds admissibility certificates for both the
given input and the substitute, the substitute's per-node values, and two
summing gathering certificates whose shared root compares the totals.
Per-node objective contributions are doubled where the natural objective
halves an incident sum, keeping every aggregate integral.  The
admissibility certificates go to their verifiers as projected views, and
the gathering certificates are read in place.

Cover, strategy and language oracle score up to 2^n substitute inputs of
one instance.  A substitute changes only the inputs, so the candidates
share one ``graphs.geometry``: ``graphs.ball`` builds each node's radius-1
shape once per (graph, identities) pair and gives every candidate a view
over it carrying its own inputs, and every gathering certificate folds
the candidate's values up the one kept tree from the smallest identity.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Callable, Iterable, NamedTuple, Optional

from ..graphs import BallView, Instance, InputValue, Marks, Ptr, ball
from ..labels import (GatherCert, LabelDomain, Labelling, build_bfs_tree,
                      flag_field, gather_cert_domain, ham_cert_domain,
                      input_value_field, non_ham_cert_domain, sub_field,
                      tree_cert_domain)
from ..oracles import hamiltonian_cycles, is_matching, spanning_trees
from ..protocol import (PROVER, LanguageSpec, Level, Protocol, ProtocolError,
                        canonical_labelling, certificate_protocol)
from ..runtime import LocalVerifier
from ..schemes import (READ_TREE_CERT, SchemeError, build_gathering_cert,
                       build_hamiltonian_cert, build_non_hamiltonian_cert,
                       honest_tree, mutual_pair, part_reader, sum_ok,
                       tree_certs, tree_ok, uniform, verify_hamiltonian_cert,
                       verify_non_hamiltonian_cert)
from ..transforms import embed, project, require_single_prover_level
from .basic import protocol_non_spanning_tree, protocol_spanning_tree

LocalValue = Callable[[BallView], int]
Candidates = Callable[[Instance], Iterable[tuple[InputValue, ...]]]

# `SchemeError` and `InstanceError` are `ValueError`s.
_VALUE_ERRORS = (ValueError, TypeError, KeyError)


class OptLabel(NamedTuple):
    flag: int
    no_part: object
    yes_x: object
    xprime: object
    yes_xp: object
    agg_x: object
    agg_xp: object


_READ_AGG_X = part_reader(OptLabel, "agg_x", GatherCert)
_READ_AGG_XP = part_reader(OptLabel, "agg_xp", GatherCert)


# ---------------------------------------------------------------------------
# small single-level admissibility protocols


class UnitVal(NamedTuple):
    tag: int


def unit_domain(n: int, N: int) -> LabelDomain:
    return LabelDomain("unit", 1, n, N, (flag_field("tag", 1),), UnitVal)


def _all_nodes(instance: Instance, rule: Callable[[BallView], bool]) -> bool:
    return all(rule(ball(instance, (), v, 1)) for v in range(instance.n))


def _local_rule_protocol(name: str,
                         rule: Callable[[BallView], bool]) -> Protocol:
    """Level-1 protocol with a contentless label: accepts iff every node
    satisfies the radius-1 rule on its own input."""

    return certificate_protocol(
        name, unit_domain, lambda inst: Labelling((UnitVal(0),) * inst.n),
        lambda b: bool(rule(b)), lambda inst: _all_nodes(inst, rule))


def _defect_protocol(name: str,
                     rule: Callable[[BallView], bool]) -> Protocol:
    """Level-1 protocol accepting iff some node violates the radius-1 rule;
    the certificate is a tree rooted at a violating node."""

    def decide(b: BallView) -> bool:
        if not tree_ok(b, 0, READ_TREE_CERT):
            return False
        if b.own_label(0).parent is None:
            return not rule(b)
        return True

    def honest(instance: Instance) -> Optional[Labelling]:
        for v in sorted(range(instance.n), key=instance.id_of):
            if not rule(ball(instance, (), v, 1)):
                return honest_tree(instance, v)
        return None

    return certificate_protocol(name, tree_cert_domain, honest, decide,
                                lambda inst: not _all_nodes(inst, rule))


# ---------------------------------------------------------------------------
# Hamiltonian-cycle admissibility pair (marks inputs)


def _marked_cycle_edges(instance: Instance) -> frozenset:
    pairs = []
    for v in range(instance.n):
        pair = mutual_pair(instance, v)
        if pair is None:
            raise SchemeError(f"node {v} does not mark a reciprocated pair")
        pairs.append(pair)
    return frozenset((min(v, w), max(v, w))
                     for v, pair in enumerate(pairs) for w in pair)


def _honest_ham_cert(instance: Instance) -> Labelling:
    edges = _marked_cycle_edges(instance)
    root = min(range(instance.n), key=instance.id_of)
    return build_hamiltonian_cert(instance, edges, root)


def hamiltonian_inputs(instance: Instance) -> bool:
    """Do the marks inputs trace out one Hamiltonian cycle?"""
    try:
        _honest_ham_cert(instance)
    except SchemeError:
        return False
    return True


def protocol_hamiltonian_cycle() -> Protocol:
    def honest(instance: Instance) -> Optional[Labelling]:
        try:
            return _honest_ham_cert(instance)
        except SchemeError:
            return None

    return certificate_protocol("hamiltonian-cycle", ham_cert_domain, honest,
                                verify_hamiltonian_cert, hamiltonian_inputs)


def protocol_non_hamiltonian() -> Protocol:
    def honest(instance: Instance) -> Labelling:
        # Never None: without a defect the canonical labelling stays the
        # one move, and the tsp cover embeds it as its flag-0 move.
        try:
            return build_non_hamiltonian_cert(instance)
        except SchemeError:
            return canonical_labelling(
                protocol.levels[0].domain_of(instance.n, instance.N))

    protocol = certificate_protocol("non-hamiltonian", non_ham_cert_domain,
                                    honest, verify_non_hamiltonian_cert,
                                    lambda inst: not hamiltonian_inputs(inst))
    return protocol


# ---------------------------------------------------------------------------
# substitute-input enumeration


def _tree_candidates(instance: Instance) -> Iterable[tuple[InputValue, ...]]:
    """One parent-pointer encoding per spanning tree, rooted at the
    smallest identity."""
    root = min(range(instance.n), key=instance.id_of)
    for tree in spanning_trees(instance.graph):
        yield tuple(Ptr(c.parent) for c in
                    tree_certs(instance, build_bfs_tree(instance, root, tree)))


def _cycle_candidates(instance: Instance) -> Iterable[tuple[InputValue, ...]]:
    """The marks encoding of every Hamiltonian cycle."""
    for cyc in hamiltonian_cycles(instance.graph):
        length = len(cyc)
        marks: list[list[int]] = [[] for _ in range(instance.n)]
        for i, v in enumerate(cyc):
            marks[v] = [instance.id_of(cyc[i - 1]),
                        instance.id_of(cyc[(i + 1) % length])]
        yield tuple(Marks(m) for m in marks)


def _subset_candidates(instance: Instance) -> Iterable[tuple[InputValue, ...]]:
    yield from product((0, 1), repeat=instance.n)


def _matching_candidates(instance: Instance) -> Iterable[tuple[InputValue, ...]]:
    """The mutual-pointer encoding of every matching, empty one included."""
    edges = sorted(instance.graph.edges)
    for r in range(instance.n // 2 + 1):
        for combo in combinations(edges, r):
            if not is_matching(frozenset(combo)):
                continue
            xp: list[InputValue] = [Ptr(None)] * instance.n
            for (u, v) in combo:
                xp[u] = Ptr(instance.id_of(v))
                xp[v] = Ptr(instance.id_of(u))
            yield tuple(xp)


# ---------------------------------------------------------------------------
# the composite protocol


def protocol_opt(adm_yes: Protocol, adm_no: Protocol,
                 local_value: LocalValue, sense: str, *,
                 candidates: Candidates, name: str) -> Protocol:
    """Protocol ``name`` for "the input is not an optimal admissible
    solution".

    ``adm_yes`` and ``adm_no`` must be single-level prover-first protocols
    certifying admissibility and its complement; ``local_value`` maps a
    radius-1 view to the node's objective contribution; ``sense`` says
    whether smaller or larger totals win.  ``candidates`` enumerates the
    substitute input assignments the prover may propose.  The strategy
    and the language oracle read the admissibility oracles, so a pair
    member that declares no language is refused here, not mid-game.
    """
    if sense not in ("min", "max"):
        raise ProtocolError(f"unknown objective sense {sense!r}")
    require_single_prover_level("optimality", adm_yes, adm_no)
    for q in (adm_yes, adm_no):
        if q.language is None:
            raise ProtocolError(
                f"optimality needs admissibility protocols that declare a"
                f" language, {q.name} declares none")
    ry = adm_yes.verifier.radius
    rn = adm_no.verifier.radius
    yes_move = adm_yes.levels[0].strategy
    no_move = adm_no.levels[0].strategy
    radius = max(ry, rn, 1)
    if sense == "min":
        better, best_of = (lambda a, b: a < b), min
    else:
        better, best_of = (lambda a, b: a > b), max

    def domain_of(n: int, N: int) -> LabelDomain:
        ydom = adm_yes.levels[0].domain_of(n, N)
        ndom = adm_no.levels[0].domain_of(n, N)
        gdom = gather_cert_domain(n, N)
        return LabelDomain(
            f"opt:{ydom.name}|{ndom.name}",
            1 + ndom.c + 2 * ydom.c + 6 + 2 * gdom.c, n, N,
            (flag_field("flag", 2),
             sub_field("no_part", ndom),
             sub_field("yes_x", ydom),
             input_value_field("xprime", N),
             sub_field("yes_xp", ydom),
             sub_field("agg_x", gdom),
             sub_field("agg_xp", gdom)),
            OptLabel, ndom.d + 2 * ydom.d + 2 * gdom.d)

    def _sub_view(b: BallView, part: str, r: int,
                  inputs: Optional[dict[int, InputValue]] = None) -> BallView:
        return embed(b, (project(b, OptLabel, part),), r, inputs)

    def decide(b: BallView) -> bool:
        own = uniform(b, OptLabel, "flag")
        if own is None:
            return False
        if own.flag == 0:
            return bool(adm_no.verifier.decide(_sub_view(b, "no_part", rn)))
        xp_inputs = project(b, OptLabel, "xprime", missing=None)
        if not adm_yes.verifier.decide(_sub_view(b, "yes_x", ry)):
            return False
        if not adm_yes.verifier.decide(_sub_view(b, "yes_xp", ry, xp_inputs)):
            return False

        try:
            value_x = local_value(b)
            value_xp = local_value(b.with_layers(b.layers, xp_inputs))
        except _VALUE_ERRORS:
            return False
        # Once both trees hold, own.agg_xp is the rival's gathering label,
        # and the x root compares its total with the rival's.
        rival = own.agg_xp
        return (tree_ok(b, 0, _READ_AGG_X) and tree_ok(b, 0, _READ_AGG_XP)
                and sum_ok(b, 0, _READ_AGG_X, value_x, lambda total: (
                    rival.parent is None and better(rival.agg, total)))
                and sum_ok(b, 0, _READ_AGG_XP, value_xp, lambda total: True))

    def _values(instance: Instance) -> list[int]:
        return [local_value(ball(instance, (), v, 1))
                for v in range(instance.n)]

    def rivals(instance: Instance,
               base: int) -> Iterable[tuple[tuple[InputValue, ...], int]]:
        """Each admissible substitute input whose total beats ``base``,
        with that total, in ``candidates`` order.  A candidate is scored
        first, and its admissibility is asked only when it scores better.
        The candidate generators emit well-typed inputs, and every local
        value is total on them, so scoring an inadmissible candidate raises
        nothing new: the rivals are those of asking admissibility first."""
        for xp in candidates(instance):
            inst2 = instance.with_inputs(xp)
            try:
                obj = sum(_values(inst2))
            except _VALUE_ERRORS:
                continue
            if better(obj, base) and adm_yes.language.oracle(inst2):
                yield xp, obj

    def _fillers(instance: Instance):
        # The level domain's first value, part by part, at every node.
        first = level.domain_of(instance.n, instance.N).first()
        return tuple(Labelling((part,) * instance.n)
                     for part in (first.no_part, first.yes_x, first.agg_x))

    def _packed(instance: Instance, flag: int, no_mv, yes_mv, xp,
                yes_xp_mv, ax, axp) -> Labelling:
        return Labelling(OptLabel(flag, no_mv[v], yes_mv[v], xp[v],
                                  yes_xp_mv[v], ax[v], axp[v])
                         for v in range(instance.n))

    def cover(instance: Instance, earlier) -> Iterable[Labelling]:
        fill_no, fill_yes, fill_g = _fillers(instance)
        no_xp = (None,) * instance.n
        for nm in adm_no.levels[0].cover(instance, ()):
            yield _packed(instance, 0, nm, fill_yes, no_xp, fill_yes,
                          fill_g, fill_g)
        yx = next(iter(adm_yes.levels[0].cover(instance, ())), None)
        if yx is None:
            return
        try:
            agg_x = build_gathering_cert(instance, _values(instance))
        except _VALUE_ERRORS:
            return
        for xp in candidates(instance):
            inst2 = instance.with_inputs(xp)
            yxp = next(iter(adm_yes.levels[0].cover(inst2, ())), None)
            if yxp is None:
                continue
            try:
                agg_xp = build_gathering_cert(inst2, _values(inst2))
            except _VALUE_ERRORS:
                continue
            yield _packed(instance, 1, fill_no, yx, xp, yxp, agg_x, agg_xp)

    def strategy(instance: Instance, earlier) -> Labelling:
        fill_no, fill_yes, fill_g = _fillers(instance)
        no_xp = (None,) * instance.n
        if not adm_yes.language.oracle(instance):
            return _packed(instance, 0, no_move(instance, ()), fill_yes,
                           no_xp, fill_yes, fill_g, fill_g)
        try:
            vals_x = _values(instance)
            agg_x = build_gathering_cert(instance, vals_x)
        except _VALUE_ERRORS:
            return _packed(instance, 1, fill_no, fill_yes, no_xp, fill_yes,
                           fill_g, fill_g)
        # ``candidates`` stays outside the try, so what it raises reaches
        # the caller.
        best = best_of(rivals(instance, sum(vals_x)), key=lambda r: r[1],
                       default=None)
        yes_x = yes_move(instance, ())
        if best is None:
            # The input is optimal: play it against itself and lose honestly.
            xp = tuple(instance.input_of(v) for v in range(instance.n))
            return _packed(instance, 1, fill_no, yes_x, xp, yes_x, agg_x, agg_x)
        xp = best[0]
        inst2 = instance.with_inputs(xp)
        agg_xp = build_gathering_cert(inst2, _values(inst2))
        return _packed(instance, 1, fill_no, yes_x, xp,
                       yes_move(inst2, ()), agg_x, agg_xp)

    def not_optimal(instance: Instance) -> bool:
        if adm_no.language.oracle(instance):
            return True
        if not adm_yes.language.oracle(instance):
            return False
        try:
            base = sum(_values(instance))
        except _VALUE_ERRORS:
            return False
        return any(rivals(instance, base))

    # As in ``unanimous_combine``, a strategy only when both parts have one;
    # otherwise constructive play searches the cover.
    level = Level(domain_of, cover,
                  strategy if yes_move and no_move else None)
    return Protocol(name, PROVER, (level,),
                    LocalVerifier(radius, 1, decide), LanguageSpec(not_optimal))


# ---------------------------------------------------------------------------
# objective readings


def _selected(x: InputValue) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x == 1


def _bit_typed(x: InputValue) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x in (0, 1)


def _mst_value(b: BallView) -> int:
    # Each selected edge contributes its weight at both endpoints.
    own = b.own_input
    total = 0
    for w in b.neighbours(b.centre):
        xw = b.input_of(w)
        if ((isinstance(own, Ptr) and own.to == b.id_of(w))
                or (isinstance(xw, Ptr) and xw.to == b.own_id)):
            total += b.weight(b.centre, w)
    return total

def _tsp_value(b: BallView) -> int:
    own = b.own_input
    if not isinstance(own, Marks):
        return 0
    total = 0
    for w in b.neighbours(b.centre):
        back = b.input_of(w)
        if (b.id_of(w) in own.ids and isinstance(back, Marks)
                and b.own_id in back.ids):
            total += b.weight(b.centre, w)
    return total

def _membership_value(b: BallView) -> int:
    return 1 if _selected(b.own_input) else 0

def _matched_partner(b: BallView, v: int) -> Optional[int]:
    x = b.input_of(v)
    if not isinstance(x, Ptr) or x.to is None:
        return None
    w = b.node_of(x.to)
    if w is None or not b.has_edge(v, w):
        return None
    back = b.input_of(w)
    if isinstance(back, Ptr) and back.to == b.id_of(v):
        return w
    return None

def _matching_value(b: BallView) -> int:
    return 1 if _matched_partner(b, b.centre) is not None else 0

def _cut_side(x: InputValue) -> int:
    return 1 if _selected(x) else 0

def _cut_value(b: BallView) -> int:
    own = _cut_side(b.own_input)
    return sum(1 for w in b.neighbours(b.centre)
               if _cut_side(b.input_of(w)) != own)


# ---------------------------------------------------------------------------
# admissibility rules for the set problems


def _mis_rule(b: BallView) -> bool:
    own = b.own_input
    if not _bit_typed(own):
        return False
    if own != 1:
        return True
    return not any(_selected(b.input_of(w))
                   for w in b.neighbours(b.centre))

def _mds_rule(b: BallView) -> bool:
    own = b.own_input
    if not _bit_typed(own):
        return False
    return _selected(own) or any(_selected(b.input_of(w))
                                 for w in b.neighbours(b.centre))

def _matching_rule(b: BallView) -> bool:
    own = b.own_input
    if not isinstance(own, Ptr):
        return False
    return own.to is None or _matched_partner(b, b.centre) is not None

def _any_input_rule(b: BallView) -> bool:
    return True


_SET_PROBLEMS = {
    "mis": (_mis_rule, _membership_value, "max", _subset_candidates),
    "mds": (_mds_rule, _membership_value, "min", _subset_candidates),
    "matching": (_matching_rule, _matching_value, "max",
                 _matching_candidates),
    "maxcut": (_any_input_rule, _cut_value, "max", _subset_candidates),
    "mincut": (_any_input_rule, _cut_value, "min", _subset_candidates),
}


# ---------------------------------------------------------------------------
# the concrete optimization protocols


def protocol_minimum_spanning_tree() -> Protocol:
    return protocol_opt(protocol_spanning_tree(),
                        protocol_non_spanning_tree(),
                        _mst_value, "min",
                        candidates=_tree_candidates, name="mst")


def protocol_travelling_salesman() -> Protocol:
    return protocol_opt(protocol_hamiltonian_cycle(),
                        protocol_non_hamiltonian(),
                        _tsp_value, "min",
                        candidates=_cycle_candidates, name="tsp")


def protocol_set_problem(kind: str) -> Protocol:
    if kind not in _SET_PROBLEMS:
        raise ProtocolError(f"unknown set problem {kind!r}")
    rule, value, sense, cand = _SET_PROBLEMS[kind]
    adm_yes = _local_rule_protocol(f"{kind}-admissible", rule)
    adm_no = _defect_protocol(f"{kind}-defect", rule)
    return protocol_opt(adm_yes, adm_no, value, sense,
                        candidates=cand, name=kind)
