"""Certificates nested in a composite label, read in place, against the
projected views they replace.

cycle-vc's four counting certificates and ``opt``'s two gathering
certificates sit in fields of composite labels.  The verifiers read them
in place: ``schemes.part_reader`` reads the field, and the check is
``tree_ok`` and then ``sum_ok``.  The references below are the earlier
route, kept here: ``transforms.project`` copies the field into a layer of
its own, ``transforms.embed`` puts that layer (and, for ``opt``'s rival,
the substitute's inputs) into a copy of the view, and a fold checks the
tree, takes the node's value and compares its total with the children's.
``hypothesis`` draws honest layers, layers with one part of some nodes'
labels redrawn or tweaked, ``INVALID`` labels, and labels of another
class, at the top level and in a field; both routes must decide every
node alike, or raise alike.
"""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from locdec.graphs import (BallView, Graph, IdAssignment, InputAssignment,
                           Instance, ball)
from locdec.labels import INVALID, GatherCert, Labelling, TreeCert
from locdec.oracles import simple_cycles
from locdec.protocols import cyclevc, opt
from locdec.protocols.basic import (protocol_non_spanning_tree,
                                    protocol_spanning_tree)
from locdec.schemes import tree_ok, tree_reader, uniform
from locdec.transforms import embed, project

_READ_GATHER = tree_reader(GatherCert)


def gathering_reference(ball: BallView, value_of, at_root) -> bool:
    """A gathering certificate in layer 0 of ``ball``, checked by the fold
    every gathering check used before ``sum_ok``."""
    if not tree_ok(ball, 0, _READ_GATHER):
        return False
    own = ball.own_label(0)
    try:
        value = value_of(ball)
    except (ValueError, TypeError, KeyError):
        return False
    child_aggs = [ball.label(0, w).agg for w in ball.neighbours(ball.centre)
                  if ball.label(0, w).parent == ball.own_id]
    if own.agg != value + sum(child_aggs):
        return False
    return own.parent is not None or bool(at_root(own.agg))


def cyclevc_reference(b: BallView) -> bool:
    """cycle-vc's verifier with each counting certificate on a projected
    view."""
    own1 = b.own_label(0)
    k = b.own_input
    if not isinstance(own1, cyclevc.XClaim) \
            or not isinstance(k, int) or isinstance(k, bool):
        return False
    for w in b.neighbours(b.centre):
        if b.input_of(w) != k or not isinstance(b.label(0, w), cyclevc.XClaim):
            return False
    count_ball = embed(b, (project(b, cyclevc.XClaim, "count"),), b.radius)
    if not gathering_reference(count_ball, lambda _: own1.member,
                               lambda agg: agg >= k):
        return False
    own3 = b.own_label(2)
    if not isinstance(own3, cyclevc.CycleResponse):
        return False
    for w in b.neighbours(b.centre):
        other = b.label(2, w)
        if not isinstance(other, cyclevc.CycleResponse) \
                or other.clen != own3.clen:
            return False
    for v in b.members:
        lbl = b.label(2, v)
        parts = (lbl.s_total, lbl.s_cycle, lbl.cycle_size)
        if not all(isinstance(p, GatherCert) for p in parts):
            return False
        if not (lbl.s_total[:3] == lbl.s_cycle[:3] == lbl.cycle_size[:3]):
            return False
    challenged = cyclevc._challenged(b, b.centre)
    on_cycle = 1 if own3.onc == 1 else 0
    checks = (
        ("s_total", challenged, lambda agg: agg == own3.s_cycle.agg),
        ("s_cycle", challenged * on_cycle, lambda agg: True),
        ("cycle_size", on_cycle, lambda agg: agg == own3.clen
         and (own3.clen == 0 or own3.clen >= 3)),
    )
    for part, value, at_root in checks:
        gball = embed(b, (project(b, cyclevc.CycleResponse, part, 2),),
                      b.radius)
        if not gathering_reference(gball, lambda _, value=value: value,
                                   at_root):
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
    return not (own1.member == 1 and not challenged and own3.onc == 1)


def opt_reference(adm_yes, adm_no, local_value, sense: str):
    """``opt``'s verifier over these parts, with both gathering
    certificates on projected views."""
    ry = adm_yes.verifier.radius
    rn = adm_no.verifier.radius
    better = (lambda a, b: a < b) if sense == "min" else (lambda a, b: a > b)

    def sub_view(b, part, r, inputs=None):
        return embed(b, (project(b, opt.OptLabel, part),), r, inputs)

    def decide(b: BallView) -> bool:
        own = uniform(b, opt.OptLabel, "flag")
        if own is None:
            return False
        if own.flag == 0:
            return bool(adm_no.verifier.decide(sub_view(b, "no_part", rn)))
        xp_inputs = project(b, opt.OptLabel, "xprime", missing=None)
        if not adm_yes.verifier.decide(sub_view(b, "yes_x", ry)):
            return False
        if not adm_yes.verifier.decide(sub_view(b, "yes_xp", ry, xp_inputs)):
            return False

        def at_root(total_x: int) -> bool:
            rival = own.agg_xp
            return (isinstance(rival, GatherCert) and rival.parent is None
                    and better(rival.agg, total_x))

        if not gathering_reference(sub_view(b, "agg_x", b.radius),
                                   local_value, at_root):
            return False
        return gathering_reference(sub_view(b, "agg_xp", b.radius, xp_inputs),
                                   local_value, lambda total: True)

    return decide


def _set_parts(kind: str):
    rule, value, sense, candidates = opt._SET_PROBLEMS[kind]
    return (opt._local_rule_protocol(f"{kind}-admissible", rule),
            opt._defect_protocol(f"{kind}-defect", rule), value, sense,
            candidates)


# Each `opt` protocol's parts: admissibility pair, local value, sense and
# candidates, built once.
OPT_PARTS = {
    "mst": (protocol_spanning_tree(), protocol_non_spanning_tree(),
            opt._mst_value, "min", opt._tree_candidates),
    "tsp": (opt.protocol_hamiltonian_cycle(), opt.protocol_non_hamiltonian(),
            opt._tsp_value, "min", opt._cycle_candidates),
    **{kind: _set_parts(kind) for kind in opt._SET_PROBLEMS},
}
OPT_PROTOCOLS = {
    name: (opt.protocol_opt(yes, no, value, sense, candidates=cands,
                            name=name),
           opt_reference(yes, no, value, sense))
    for name, (yes, no, value, sense, cands) in OPT_PARTS.items()
}


# ---------------------------------------------------------------------------
# drawing instances and labels


def _graph(draw, n: int, weighted: bool) -> Graph:
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=n)))
    weights = ({e: draw(st.integers(0, n)) for e in edges} if weighted
               else None)
    return Graph(n, frozenset(edges), weights)


def _ids(draw, n: int) -> IdAssignment:
    N = n * n
    return IdAssignment(tuple(draw(st.lists(st.integers(1, N), min_size=n,
                                            max_size=n, unique=True))), N)


def _decoded(draw, domain) -> object:
    return domain.decode(draw(st.integers(0, (1 << domain.width) - 1)))


def _tweaked(draw, cert: object, ids: tuple[int, ...]) -> object:
    """A gathering certificate with one field moved a little, or read as
    another class; anything else as it is."""
    if not isinstance(cert, GatherCert):
        return cert
    how = draw(st.sampled_from(("root", "parent", "dist", "agg", "tree")))
    if how == "tree":
        return TreeCert(*cert[:3])
    if how == "root":
        return cert._replace(root=draw(st.sampled_from(ids)))
    if how == "parent":
        return cert._replace(parent=draw(st.none() | st.sampled_from(ids)))
    step = draw(st.sampled_from((-1, 1)))
    return cert._replace(**{how: max(0, getattr(cert, how) + step)})


def _redrawn(draw, label: object, domain, parts: tuple[str, ...],
             ids: tuple[int, ...], others: tuple) -> object:
    """``label`` as it is, with one part redrawn from the domain or
    tweaked, or replaced by ``INVALID`` or a label of another class."""
    how = draw(st.sampled_from(("keep", "keep", "part", "tweak", "invalid",
                                "other")))
    if how == "keep" or (how in ("part", "tweak")
                         and not isinstance(label, domain.make)):
        return label
    if how == "invalid":
        return INVALID
    if how == "other":
        return draw(st.sampled_from(others))
    part = draw(st.sampled_from(parts))
    if how == "part":
        source = _decoded(draw, domain)
        new = (getattr(source, part) if isinstance(source, domain.make)
               else INVALID)
    else:
        new = _tweaked(draw, getattr(label, part), ids)
    return label._replace(**{part: new})


def _centre_verdict(decide, view: BallView):
    try:
        return "returned", bool(decide(view))
    except Exception as exc:  # the reference must raise the same
        return "raised", type(exc)


@st.composite
def cyclevc_layers(draw):
    """An instance with a threshold at every node (one node's may differ)
    and its three layers: an honest claim, drawn picks and an honest
    response, each node's labels then redrawn as ``_redrawn`` says."""
    n = draw(st.integers(2, 5))
    graph, ids = _graph(draw, n, False), _ids(draw, n)
    k = draw(st.integers(0, n))
    inputs = [k] * n
    if draw(st.booleans()):
        inputs[draw(st.integers(0, n - 1))] = draw(st.integers(0, n))
    inst = Instance(graph, ids, InputAssignment(tuple(inputs)))
    members = draw(st.sets(st.integers(0, n - 1)))
    claim = cyclevc._honest_claim(inst, frozenset(members))
    pick = Labelling(cyclevc.SPick(draw(st.integers(0, 1)))
                     for _ in range(n))
    cycle = draw(st.sampled_from([(), *simple_cycles(graph)]))
    response = cyclevc._response(inst, (claim, pick), cycle)
    x_dom = cyclevc.x_claim_domain(n, ids.N)
    r_dom = cyclevc.cycle_response_domain(n, ids.N)
    others = (pick[0], claim[0].count, TreeCert(*claim[0].count[:3]), 0)
    claim = Labelling(
        _redrawn(draw, lbl, x_dom, ("member", "count"), ids.ids,
                 others + (response[0],))
        for lbl in claim)
    response = Labelling(
        _redrawn(draw, lbl, r_dom,
                 ("onc", "cpos", "clen", "s_total", "s_cycle", "cycle_size"),
                 ids.ids, others + (claim[0],))
        for lbl in response)
    return inst, (claim, pick, response)


@settings(deadline=None, max_examples=300)
@given(cyclevc_layers())
def test_cyclevc_reads_its_counts_as_the_projected_views_did(drawn):
    inst, layers = drawn
    for v in range(inst.n):
        view = ball(inst, layers, v, 1)
        assert _centre_verdict(cyclevc._decide, view) \
            == _centre_verdict(cyclevc_reference, view), v


@st.composite
def opt_layers(draw):
    """An ``opt`` protocol, a weighted instance whose inputs are one of
    the protocol's candidates, and one move of its cover, each node's
    label then redrawn as ``_redrawn`` says."""
    name = draw(st.sampled_from(sorted(OPT_PROTOCOLS)))
    n = draw(st.integers(2, 4))
    graph, ids = _graph(draw, n, True), _ids(draw, n)
    blank = Instance(graph, ids, InputAssignment((None,) * n))
    candidates = list(OPT_PARTS[name][4](blank))
    inputs = draw(st.sampled_from(candidates)) if candidates else (None,) * n
    inst = Instance(graph, ids, InputAssignment(tuple(inputs)))
    protocol = OPT_PROTOCOLS[name][0]
    level = protocol.levels[0]
    moves = list(level.cover(inst, ()))
    move = draw(st.sampled_from(moves))
    domain = level.domain_of(n, ids.N)
    others = (move[0].agg_x, TreeCert(*move[0].agg_x[:3]), 0)
    layer = Labelling(
        _redrawn(draw, lbl, domain, opt.OptLabel._fields, ids.ids, others)
        for lbl in move)
    return name, inst, layer


@settings(deadline=None, max_examples=300)
@given(opt_layers())
def test_opt_reads_its_gatherings_as_the_projected_views_did(drawn):
    name, inst, layer = drawn
    protocol, reference = OPT_PROTOCOLS[name]
    radius = protocol.verifier.radius
    for v in range(inst.n):
        view = ball(inst, (layer,), v, radius)
        assert _centre_verdict(protocol.verifier.decide, view) \
            == _centre_verdict(reference, view), (name, v)
