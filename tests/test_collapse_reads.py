"""A collapsed universal level against the full product it replaces.

``full_product_decide`` is the collapsed verifier's first design, kept here
as the reference: after the size checks it runs the base verifier on every
labelling of the removed level over the ball, in ``itertools.product``
order.  ``transforms.collapse_last_universal`` runs it only on the labels a
run reads, choosing each when it is first read, so the two must decide
every view alike.  ``hypothesis`` draws toy protocols of two or three
levels ending on a universal level, over 2-4-value flag domains, whose
base verifiers read a drawn subset of the final layer in a drawn order and
may stop early, or read all of it through ``project``, ``items`` or
``get``; and labellings of ``collapse:qbf`` and ``collapse:qbf-4`` on
generated formulas.  The edge tests pin what the base verifier's final
layer does on each kind of access, and how often qbf's base verifier runs;
the totality check decides labels decoded from random bits.
"""
from __future__ import annotations

import hashlib
from dataclasses import replace
from functools import cache
from itertools import product
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locdec import gen, transforms
from locdec.engine import EvalMode, game_evaluate, identity_variants
from locdec.graphs import InstanceError, Lit, ball
from locdec.labels import LabelDomain, Labelling, flag_field
from locdec.protocol import DISPROVER, PROVER, Level, Protocol, ProtocolError
from locdec.protocols import resolve
from locdec.protocols.qbf import encode_qbf, protocol_qbf_k
from locdec.runtime import LocalVerifier, evaluate
from locdec.schemes import build_size_cert, sum_ok
from locdec.transforms import (CollapsedLabel, collapse_last_universal, embed,
                               project)

from corpus import plain_instance

# Not a node of any instance here.
ABSENT = 99


def full_product_decide(p: Protocol):
    """The collapsed verifier's decision as a loop over the whole product
    of the removed level's labels over the ball."""
    k = p.level_count
    sl = 0 if p.first == PROVER else 1
    final_level = p.levels[k - 1]
    base_radius = p.verifier.radius

    def decide(view) -> bool:
        own = view.own_label(sl)
        if not (isinstance(own, CollapsedLabel)
                and sum_ok(view, sl, transforms._READ_SIZE_PROOF, 1,
                           lambda size: size == own.nhat)
                and all(view.label(sl, w).nhat == own.nhat
                        for w in view.neighbours(view.centre))):
            return False
        axis = tuple(final_level.domain_of(own.nhat, view.N).axis())
        base_layer = project(view, CollapsedLabel, "base", sl)
        virtual = [base_layer if j == sl else view.layers[j]
                   for j in range(k - 1)]
        for combo in product(axis, repeat=len(view.members)):
            layers = tuple(virtual) + (dict(zip(view.members, combo)),)
            if not p.verifier.decide(embed(view, layers, base_radius)):
                return False
        return True

    return decide


def counted(p: Protocol) -> tuple[Protocol, list[int]]:
    """``p`` with a base verifier that counts its runs."""
    runs = [0]
    inner = p.verifier.decide

    def decide(view) -> bool:
        runs[0] += 1
        return inner(view)

    return replace(p, verifier=replace(p.verifier, decide=decide)), runs


@cache
def formula_instances(k: int, count: int = 12) -> tuple:
    """Encodings of the first ``count`` connected generated formulas of
    depth k with at most k + 1 variables and 2 clauses, so that every ball
    has at most 4 members."""
    out, seed = [], 0
    while len(out) < count:
        try:
            out.append(encode_qbf(gen.random_formula(
                seed, max_vars=k + 1, max_clauses=2, k=k)))
        except InstanceError:
            pass
        seed += 1
    return tuple(out)


def size_fragment(inst) -> list[tuple]:
    """Honest (sroot, sparent, ssize, nhat) of every node."""
    return [(c.root, c.parent, c.size, inst.n) for c in build_size_cert(inst)]


# ---------------------------------------------------------------------------
# toy protocols


class Flag(NamedTuple):
    val: int


def flag_domain(count: int):
    def domain_of(n: int, N: int) -> LabelDomain:
        return LabelDomain(f"flag{count}", 2, n, N,
                           (flag_field("val", count),), Flag)
    return domain_of


def _digest(*parts) -> int:
    return int.from_bytes(
        hashlib.blake2b(repr(parts).encode(), digest_size=2).digest(), "big")


class Plan(NamedTuple):
    """How a toy base verifier reads its final layer.  ``keep``, ``stop``
    and ``accept`` are shares out of 256: of the members a subset read
    takes, of the chance to stop after each read, and of the runs that
    accept."""
    seed: int
    how: str
    keep: int
    stop: int
    accept: int


def plan_verifier(plan: Plan, radius: int, layers: int) -> LocalVerifier:
    """A pure verifier that reads the final layer as ``plan`` says and
    answers by a seeded hash of everything it read."""

    def decide(view) -> bool:
        ids = view.ids_in
        final = view.layers[-1]
        members = sorted(view.members, key=ids.__getitem__)
        earlier = tuple(tuple(layer[u] for u in members)
                        for layer in view.layers[:-1])
        if plan.how == "subset":
            reads = []
            for u in sorted(members, key=lambda u: _digest(plan.seed, ids[u])):
                if _digest(plan.seed, "keep", ids[u]) % 256 >= plan.keep:
                    continue
                reads.append((ids[u], final[u]))
                if _digest(plan.seed, "stop", reads) % 256 < plan.stop:
                    break
        elif plan.how == "project":
            field = project(view, Flag, "val", layers - 1)
            reads = sorted((ids[u], val) for u, val in field.items())
        elif plan.how == "items":
            reads = sorted((ids[u], lbl) for u, lbl in final.items())
        else:
            reads = [(ids[u], final.get(u)) for u in members]
            reads.append(final.get(ABSENT, "absent"))
        key = (plan.seed, "accept", ids[view.centre], earlier, reads)
        return _digest(*key) % 256 < plan.accept

    return LocalVerifier(radius, layers, decide)


def toy_protocol(counts, verifier: LocalVerifier) -> Protocol:
    """Two levels, prover first, or three, disprover first: either way the
    final level is universal and a prover level carries the size proof."""
    first = PROVER if len(counts) == 2 else DISPROVER
    return Protocol("toy", first, tuple(Level(flag_domain(c)) for c in counts),
                    verifier)


SHAPES = (gen.path_graph(2), gen.path_graph(3), gen.path_graph(4),
          gen.cycle_graph(3), gen.cycle_graph(4), gen.star_graph(4),
          gen.clique_graph(4))

plans = st.builds(Plan, st.integers(0, 1 << 16),
                  st.sampled_from(("subset", "subset", "project", "items",
                                   "get")),
                  st.sampled_from((96, 192, 256)),
                  st.sampled_from((0, 32, 96)),
                  st.sampled_from((160, 224, 250, 256)))


def collapsed_layers(draw, p: Protocol, inst) -> tuple[Labelling, ...]:
    """A labelling of each level of ``p``'s collapse: the size-proof level
    carries the honest size fragment under a drawn base label, one node's
    count sometimes off by one; every other label is drawn from its
    domain's axis."""
    sl = 0 if p.first == PROVER else 1
    fragment = size_fragment(inst)
    out = []
    for j, level in enumerate(p.levels[:-1]):
        axis = tuple(level.domain_of(inst.n, inst.N).axis())
        if j == sl:
            row = [CollapsedLabel(draw(st.sampled_from(axis)), *fragment[v])
                   for v in range(inst.n)]
            if draw(st.integers(0, 3)) == 0:
                v = draw(st.integers(0, inst.n - 1))
                row[v] = row[v]._replace(nhat=row[v].nhat + 1)
        else:
            row = [draw(st.sampled_from(axis)) for _ in range(inst.n)]
        out.append(Labelling(row))
    return tuple(out)


def assert_decides_like_the_product(p: Protocol, folded: Protocol, inst,
                                    layers) -> None:
    reference = full_product_decide(p)
    counted_p, runs = counted(p)
    fast = collapse_last_universal(counted_p).verifier
    axis = len(tuple(p.levels[-1].domain_of(inst.n, inst.N).axis()))
    for v in range(inst.n):
        view = ball(inst, layers, v, folded.verifier.radius)
        runs[0] = 0
        assert fast.decide(view) == reference(view), v
        assert runs[0] <= axis ** len(view.members)


@settings(deadline=None, max_examples=300)
@given(data=st.data(), counts=st.lists(st.integers(2, 4), min_size=2,
                                       max_size=3),
       plan=plans, radius=st.sampled_from((0, 1, 1, 2)),
       shape=st.sampled_from(SHAPES))
def test_collapsed_toys_decide_like_the_full_product(data, counts, plan,
                                                     radius, shape):
    p = toy_protocol(counts, plan_verifier(plan, radius, len(counts)))
    folded = collapse_last_universal(p)
    inst = plain_instance(shape)
    layers = collapsed_layers(data.draw, p, inst)
    assert_decides_like_the_product(p, folded, inst, layers)


@settings(deadline=None, max_examples=120)
@given(data=st.data(), k=st.sampled_from((2, 4)), index=st.integers(0, 11))
def test_collapsed_qbf_decides_like_the_full_product(data, k, index):
    inst = formula_instances(k)[index]
    p = protocol_qbf_k(k)
    folded = resolve("collapse:qbf" if k == 2 else f"collapse:qbf-{k}")
    layers = collapsed_layers(data.draw, p, inst)
    assert_decides_like_the_product(p, folded, inst, layers)


# ---------------------------------------------------------------------------
# the final layer as the base verifier sees it


def _toy_views(base_decide, radius: int = 1, counts=(2, 3)):
    """The collapsed toy protocol over ``base_decide`` and the view of
    every node of a 4-node path under an honest size proof."""
    p = toy_protocol(counts, LocalVerifier(radius, 2, base_decide))
    folded = collapse_last_universal(p)
    inst = plain_instance(gen.path_graph(4))
    layer = Labelling(CollapsedLabel(Flag(0), *f) for f in size_fragment(inst))
    return folded, [ball(inst, (layer,), v, 1) for v in range(inst.n)]


def test_a_non_member_read_raises_key_error():
    caught = []

    def decide(view) -> bool:
        try:
            view.layers[-1][ABSENT]
        except KeyError:
            caught.append(view.centre)
        return True

    folded, views = _toy_views(decide)
    assert all(folded.verifier.decide(view) for view in views)
    assert caught == [0, 1, 2, 3]


def test_membership_length_and_iteration_choose_no_label():
    seen = []

    def decide(view) -> bool:
        final = view.layers[-1]
        seen.append((len(final), tuple(final), view.centre in final,
                     ABSENT in final))
        return True

    folded, views = _toy_views(decide)
    for view in views:
        seen.clear()
        assert folded.verifier.decide(view)
        # One run: nothing was read, so nothing was left to branch on.
        assert seen == [(len(view.members), view.members, True, False)]


@pytest.mark.parametrize("read, every", [
    (lambda final, centre: final.get(centre), False),
    (lambda final, centre: list(final.items()), True),
    (lambda final, centre: final == {}, True),
    (lambda final, centre: dict(final), True),
])
def test_get_items_and_equality_read_through_getitem(read, every):
    runs = []

    def decide(view) -> bool:
        runs.append(view.centre)
        read(view.layers[-1], view.centre)
        return True

    folded, views = _toy_views(decide)
    for view in views:
        runs.clear()
        assert folded.verifier.decide(view)
        reads = len(view.members) if every else 1
        # A 3-value flag takes two bits: three values and INVALID.
        assert len(runs) == 4 ** reads


def test_a_radius_zero_base_branches_on_the_centre_alone():
    runs = []

    def decide(view) -> bool:
        runs.append(tuple(view.layers[-1].items()))
        return True

    folded, views = _toy_views(decide, radius=0)
    for view in views:
        runs.clear()
        assert folded.verifier.decide(view)
        assert len(runs) == 4
        assert {r[0][0] for r in runs} == {view.centre}


def test_a_read_order_that_changes_between_replays_is_refused():
    calls = [0]

    def decide(view) -> bool:
        calls[0] += 1
        order = sorted(view.members, reverse=calls[0] % 2 == 0)
        for u in order:
            view.layers[-1][u]
        return True

    folded, views = _toy_views(decide)
    with pytest.raises(ProtocolError, match="collapse:toy.*not a pure"):
        folded.verifier.decide(views[1])


def test_a_replay_that_stops_short_is_refused():
    calls = [0]

    def decide(view) -> bool:
        calls[0] += 1
        if calls[0] == 1:
            for u in view.members:
                view.layers[-1][u]
        return True

    folded, views = _toy_views(decide)
    with pytest.raises(ProtocolError, match="collapse:toy.*not a pure"):
        folded.verifier.decide(views[1])


def test_collapsed_qbf_runs_its_base_only_on_what_it_reads():
    p, runs = counted(protocol_qbf_k(2))
    folded = collapse_last_universal(p)
    checked = set()
    for seed in range(40):
        try:
            inst = encode_qbf(gen.random_formula(seed, max_vars=5,
                                                 max_clauses=4, k=2))
        except InstanceError:
            continue
        # The prover's level has no strategy and is searched, so its honest
        # move is the constructive game's line.
        line = game_evaluate(folded, inst, EvalMode(constructive=True,
                                                    node_cap=inst.n)).line
        for v in range(inst.n):
            runs[0] = 0
            folded.verifier.decide(ball(inst, line, v, 1))
            x = inst.input_of(v)
            if isinstance(x, Lit):
                # A literal reads its own level's layer, never the last.
                assert runs[0] == 1
                checked.add("literal")
            else:
                j = sum(inst.input_of(w).level == 2
                        for w in inst.graph.neighbours(v))
                assert runs[0] <= 4 ** j
                if j:
                    checked.add("clause")
    assert checked == {"literal", "clause"}


def test_corpus_sweep_qbf_games_run_the_base_under_300_times():
    # The benchmark's corpus-sweep plays collapse:qbf on the first three
    # connected formulas of at most 3 variables and 2 clauses, under 3
    # identity variants each.  A full product over each ball ran the base
    # verifier 10,056 times for these 9 games and their replays.
    p, runs = counted(protocol_qbf_k(2))
    folded = collapse_last_universal(p)
    for inst in formula_instances(2, count=3):
        for variant in identity_variants(inst, 3):
            outcome = game_evaluate(folded, variant, EvalMode(node_cap=12))
            assert evaluate(folded.verifier, variant, outcome.line) \
                == outcome.leaf
    assert runs[0] <= 300


# ---------------------------------------------------------------------------
# totality


def _lying_sizes(inst, base_axis, rng) -> Labelling:
    """An honest size proof whose root claims ``d`` more nodes, with one
    child's subtree claiming them too, so the root's local checks pass on a
    count that is not n."""
    fragment = size_fragment(inst)
    d = rng.choice((1, 3, 40))
    root = next(v for v, f in enumerate(fragment) if f[1] is None)
    child = next((v for v, f in enumerate(fragment)
                  if f[1] == inst.id_of(root)), None)
    out = []
    for v, (r, parent, size, n) in enumerate(fragment):
        bump = d if v in (root, child) else 0
        out.append(CollapsedLabel(rng.choice(base_axis), r, parent,
                                  size + bump, n + d))
    return Labelling(out)


@settings(deadline=None, max_examples=80)
@given(name=st.sampled_from(("qbf", "qbf-4", "collapse:qbf",
                             "collapse:qbf-4")),
       index=st.integers(0, 11), data=st.data())
def test_qbf_verifiers_are_total_on_decoded_labels(name, index, data):
    inst = formula_instances(4 if name.endswith("-4") else 2)[index]
    p = resolve(name)
    layers = []
    for level in p.levels:
        domain = level.domain_of(inst.n, inst.N)
        bits = st.integers(0, (1 << domain.width) - 1)
        layers.append(Labelling(domain.decode(data.draw(bits))
                                for _ in range(inst.n)))
    if name.startswith("collapse:") and data.draw(st.booleans()):
        truth = tuple(resolve(name[len("collapse:"):]).levels[0]
                      .domain_of(inst.n, inst.N).axis())
        layers[0] = _lying_sizes(inst, truth,
                                 data.draw(st.randoms(use_true_random=False)))
    # Any exception fails the test: decoded labels must be decided.
    decision = evaluate(p.verifier, inst, tuple(layers))
    assert len(decision.accepts) == inst.n
