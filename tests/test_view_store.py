"""The per-game view store: exact views, one kept view and one kept
verdict per centre, read-only views.

A ``ViewStore`` answers every node verdict a game's leaves ask for.  Its
views must equal what ``graphs.ball`` builds for the same labellings, it
keeps the view of a centre's first request and decides every later
request on a copy of it, unless the request's labels are those of the
centre's last decision, whose verdict it then returns with no view.  Its
rejecters and order must be those of a leaf loop with no store, and
verifiers must leave the views they are given untouched, since a kept
view's geometry is shared by every later leaf.
"""
from __future__ import annotations

import gc
from collections import Counter
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locdec import graphs, runtime, schemes
from locdec.engine import CONSTRUCTIVE, EXHAUSTIVE, game_evaluate
from locdec.gen import clique_graph, cycle_graph, grid_graph, path_graph
from locdec.graphs import (BallView, Graph, IdAssignment, InputAssignment,
                           Instance, ball, make_shape)
from locdec.protocols import names, resolve
from locdec.runtime import LocalVerifier, ViewStore

from corpus import TRANSFORMS, asymmetric6, plain_instance, small_instances

# The view attributes computed on first read, not set with the view.
DERIVED = ("edges", "node_by_id")


def _graph(draw, n: int) -> Graph:
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=n)) if pairs else [])
    return Graph(n, frozenset(edges))


def _instance(draw, n: int) -> Instance:
    N = n * n + 1
    ids = draw(st.lists(st.integers(1, N), min_size=n, max_size=n, unique=True))
    inputs = draw(st.lists(st.none() | st.integers(0, N), min_size=n, max_size=n))
    return Instance(_graph(draw, n), IdAssignment(tuple(ids), N),
                    InputAssignment(tuple(inputs)))


@st.composite
def cases(draw):
    """Two instances on the same node count, a radius, labellings of one
    layer count, and a sequence of (instance, labellings, centre) requests."""
    n = draw(st.integers(1, 8))
    instances = (_instance(draw, n), _instance(draw, n))
    t = draw(st.integers(0, 3))
    width = draw(st.integers(1, 3))
    layer = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple)
    labellings = draw(st.lists(st.lists(layer, min_size=width, max_size=width)
                               .map(tuple), min_size=1, max_size=4))
    requests = draw(st.lists(st.tuples(st.integers(0, 1),
                                       st.integers(0, len(labellings) - 1),
                                       st.integers(0, n - 1)),
                             min_size=1, max_size=30))
    return instances, t, labellings, requests


def _scrambling_verifier(t: int, width: int) -> LocalVerifier:
    """Accepts or rejects on a mix of everything in the view."""
    def decide(view) -> bool:
        acc = view.centre + 3 * len(view.edges)
        for u in view.members:
            acc += view.id_of(u) * (1 + sum(layer[u] for layer in view.layers))
            dist = view.centre_dist[u]
            acc += dist + 7 * (dist == view.radius)
        return acc % 5 != 0
    return LocalVerifier(t, width, decide)


def _accepting(seen: list):
    """A verifier that accepts every view and appends it to ``seen``."""
    def decide(view) -> bool:
        seen.append(view)
        return True
    return decide


@settings(deadline=None)
@given(cases())
def test_store_views_equal_fresh_balls(case):
    # Each request is decided on a view equal to the one `ball` builds, or,
    # when its labels on the centre's ball are those of the centre's last
    # decision, answered without a view.
    instances, t, labellings, requests = case
    stores = tuple(ViewStore(inst, t) for inst in instances)
    asked = Counter()
    last = {}
    for which, lab, v in requests:
        inst = instances[which]
        want = ball(inst, labellings[lab], v, t)
        got = []
        assert stores[which].verdict(_accepting(got), labellings[lab], v)
        if last.get((which, v)) == want.layers:
            assert got == []
        else:
            assert got == [want]
            last[which, v] = want.layers
        asked[which, v] += 1
    for which, store in enumerate(stores):
        counts = {v: c for (w, v), c in asked.items() if w == which}
        assert set(store.kept) == set(counts)
        assert store.served + store.reused == sum(counts.values())


@settings(deadline=None)
@given(cases())
def test_store_asked_once_per_centre_reuses_nothing(case):
    instances, t, labellings, _ = case
    inst = instances[0]
    store = ViewStore(inst, t)
    served = []
    for v in range(inst.n):
        store.verdict(_accepting(served), labellings[v % len(labellings)], v)
        assert served[-1] == ball(inst, labellings[v % len(labellings)], v, t)
    assert store.served == len(store.kept) == inst.n
    assert store.reused == 0
    assert all(store.kept[v] is view for v, view in enumerate(served))


@settings(deadline=None)
@given(cases())
def test_shared_store_gives_fresh_store_verdicts(case):
    # A store shared across requests answers some of them from its kept
    # verdicts; a fresh store decides every node it asks.  Both find the
    # same rejecter, leave the same order and ask the same nodes.
    instances, t, labellings, requests = case
    verifier = _scrambling_verifier(t, len(labellings[0]))
    shared = tuple(ViewStore(inst, t) for inst in instances)
    for which, lab, _ in requests:
        # The fresh store starts from the order the shared one has reached.
        fresh = ViewStore(instances[which], t)
        fresh.order[:] = shared[which].order
        runs = []
        for views in (shared[which], fresh):
            before = views.served + views.reused
            rejecter = views.first_rejection(verifier.decide, labellings[lab])
            runs.append((rejecter, views.served + views.reused - before,
                         views.order))
        assert runs[0] == runs[1]
        assert fresh.reused == 0


def _reference_scan(inst: Instance, t: int, decide, rows, order: list,
                    first) -> tuple:
    """The leaf loop with no store: the hinted node, then every other node
    in ``order``, each decided on a fresh view from `ball`, the rejecter
    found in the scan moved to the front.  Returns the rejecter and the
    number of decisions."""
    decisions = 0

    def rejects(v: int) -> bool:
        nonlocal decisions
        decisions += 1
        return not decide(ball(inst, rows, v, t))

    if first is not None and rejects(first):
        return first, decisions
    for i, v in enumerate(order):
        if v != first and rejects(v):
            order.insert(0, order.pop(i))
            return v, decisions
    return None, decisions


@st.composite
def scans(draw):
    """An instance, a radius, labellings, and a sequence of leaves, each a
    labelling and an optional hinted node.  Each labelling after the first
    changes a few labels of the one before, as the leaves of a game change
    a few levels' moves, so a ball often sees some layers change and
    others stay."""
    instances, t, labellings, _ = draw(cases())
    n, width = instances[0].n, len(labellings[0])
    rows = [list(row) for row in labellings[0]]
    labellings = [labellings[0]]
    for _ in range(draw(st.integers(0, 4))):
        for i, v, label in draw(st.lists(st.tuples(
                st.integers(0, width - 1), st.integers(0, n - 1),
                st.integers(0, 3)), min_size=1, max_size=3)):
            rows[i][v] = label
        labellings.append(tuple(tuple(row) for row in rows))
    leaves = draw(st.lists(st.tuples(st.integers(0, len(labellings) - 1),
                                     st.none() | st.integers(0, n - 1)),
                           min_size=1, max_size=30))
    return instances[0], t, labellings, leaves


@settings(deadline=None)
@given(scans())
def test_a_reusing_store_scans_as_the_fresh_reference(scan):
    # Across a game's leaves, the store's kept verdicts change no rejecter
    # and no order, only how many of the verdicts asked for are decided.
    inst, t, labellings, leaves = scan
    verifier = _scrambling_verifier(t, len(labellings[0]))
    store = ViewStore(inst, t)
    order = list(range(inst.n))
    decisions = 0
    for lab, first in leaves:
        want, made = _reference_scan(inst, t, verifier.decide,
                                     labellings[lab], order, first)
        decisions += made
        assert store.first_rejection(verifier.decide, labellings[lab],
                                     first) == want
        assert store.order == order
        assert store.served + store.reused == decisions


def test_a_label_changed_in_any_layer_is_decided_again():
    decided = []

    def decide(view) -> bool:
        decided.append(view.centre)
        return view.own_label(1) == 0

    store = ViewStore(plain_instance(path_graph(3)), 0)
    still = ((0, 0, 0), (0, 0, 0))
    assert store.first_rejection(decide, still) is None
    assert store.first_rejection(decide, still) is None
    assert decided == [0, 1, 2] and store.reused == 3
    # Node 1's second layer changes, its first does not.
    assert store.first_rejection(decide, ((0, 0, 0), (0, 1, 0))) == 1
    assert decided == [0, 1, 2, 1] and store.reused == 4


# ---------------------------------------------------------------------------
# verifiers leave their views untouched


def _snapshot(view) -> list:
    out = []
    # `DERIVED` are not fields, so the snapshot names them.  Reading them
    # builds them, which is harmless here.
    for name in (*(f.name for f in fields(view)), *DERIVED):
        value = getattr(view, name)
        if isinstance(value, dict):
            value = dict(value)
        elif name == "layers":
            value = tuple(dict(layer) for layer in value)
        out.append((name, value))
    return out


@pytest.mark.parametrize("name", (*names(), *TRANSFORMS))
def test_verifiers_do_not_write_into_views(name):
    protocol = resolve(name)
    calls = {"n": 0}

    def checked(view) -> bool:
        before = _snapshot(view)
        try:
            return protocol.verifier.decide(view)
        finally:
            calls["n"] += 1
            assert _snapshot(view) == before, f"{name} wrote into a view"

    watched = replace(protocol, verifier=replace(protocol.verifier, decide=checked))
    nodes = 0
    for inst in small_instances(name):
        nodes += game_evaluate(watched, inst, EXHAUSTIVE).stats.node_evaluations
    assert calls["n"] >= nodes > 0


def _kept_shapes_match_fresh_views() -> int:
    """Check every shape kept for the current (graph, identities) pair
    against one `make_shape` builds afresh; return how many there are."""
    kept = graphs._geometry
    g, n = kept.graph, kept.graph.n
    count = 0
    for t, by_centre in kept.shapes.items():
        assert len(by_centre) == n, t
        for v, shape in enumerate(by_centre):
            if shape is None:
                continue
            dist = {u: d for u, d in g.distances_from(v).items() if d <= t}
            assert shape == make_shape(t, dist, g._adj, kept.ids.ids,
                                       g.weights), (v, t)
            count += 1
    return count


@pytest.mark.parametrize("name", (*names(), *TRANSFORMS))
def test_games_leave_kept_geometry_as_built(name):
    # Kept shapes are shared by every later view of their centre, across
    # games, so a verifier, cover or strategy that wrote into one would
    # corrupt the games after it.
    protocol = resolve(name)
    for mode in (EXHAUSTIVE, CONSTRUCTIVE):
        for inst in small_instances(name):
            game_evaluate(protocol, inst, mode)
            assert _kept_shapes_match_fresh_views() > 0


def test_kept_shapes_hold_few_objects_the_collector_scans():
    # A kept shape lives as long as its pair, so every object in it that
    # the cyclic collector tracks is scanned again in each collection that
    # reaches it: at most the shape tuple, `adj_in` and one frontier set.
    side = 12
    n = side * side
    inst = Instance(grid_graph(side, side), IdAssignment.default(n),
                    InputAssignment((None,) * n))
    _evict_geometry(inst)
    runtime.evaluate(LocalVerifier(1, 0, lambda view: True), inst)
    gc.collect()
    graph_owned = {id(s) for s in inst.graph._adj}
    held = []
    for shape in graphs._geometry.shapes[1]:
        objects = [shape, *shape, *shape[1].values()]
        held.append(len({id(x) for x in objects
                         if gc.is_tracked(x) and id(x) not in graph_owned}))
    assert len(held) == n and max(held) <= 3
    centre = side + 1  # interior: four neighbours, none adjacent
    view = ball(inst, (), centre, 1)
    frontier = [u for u in view.members if u != centre]
    assert len(frontier) == 4
    assert len({id(view.adj_in[u]) for u in frontier}) == 1


# ---------------------------------------------------------------------------
# work counts


def test_nta_exhaustive_counts():
    # Every leaf loses: the six rebut trees come in the same cover order
    # under each of the 720 image moves, and each is refuted by its root.
    # The first image move meets each cover position for the first time,
    # with no hint.  Its roots follow node order, so each scan passes the
    # earlier roots, now at the front, before it reaches the nodes after
    # them up to its own root (1 + 2 + ... + 6 = 21 verdicts); every
    # later leaf is refuted by its hinted node at its first verdict.  Of
    # those 4,335 verdicts, 574 are asked of a node whose labels are those
    # of its last decision, and the store answers them with no decision.
    # One build per centre, every later view a copy of the one the store
    # kept.
    inst = Instance(asymmetric6(), IdAssignment((1, 2, 3, 4, 5, 6), 9),
                    InputAssignment((None,) * 6))
    stats = game_evaluate(resolve("nta"), inst, EXHAUSTIVE).stats
    assert stats.leaf_evaluations == 4_320
    assert stats.node_evaluations + stats.decisions_reused \
        == 4_335 == 21 + (4_320 - 6)
    assert (stats.node_evaluations, stats.decisions_reused) == (3_761, 574)
    assert stats.first_refutations == 4_314
    assert stats.views_reused == 3_761 - inst.n


def test_nta_exhaustive_computes_derived_attributes_once_per_ball(monkeypatch):
    # A store keeps each centre's first view, so the copies served from it
    # at every later leaf share whatever its first decision computed.
    # Under a verifier that reads the edge set and the identity inverse
    # of every view, each is computed once per view `ball` builds: once
    # per centre for the store's kept views and once per centre for the
    # replay's fresh views, never for a copy.
    inst = Instance(asymmetric6(), IdAssignment((1, 2, 3, 4, 5, 6), 9),
                    InputAssignment((None,) * 6))
    built = []
    computed = []
    build = runtime.ball

    def counted_ball(*args):
        view = build(*args)
        built.append(view)
        return view

    monkeypatch.setattr(runtime, "ball", counted_ball)
    for name in DERIVED:
        attr = BallView.__dict__[name]

        def counted(view, compute=attr.compute, name=name):
            computed.append((name, view))
            return compute(view)

        monkeypatch.setattr(attr, "compute", counted)
    nta = resolve("nta")
    decide = nta.verifier.decide

    def reading(view) -> bool:
        view.edges
        view.node_of(view.own_id)
        return decide(view)

    protocol = replace(nta, verifier=replace(nta.verifier, decide=reading))
    stats = game_evaluate(protocol, inst, EXHAUSTIVE).stats
    assert stats.views_reused == 3_761 - inst.n
    assert len(built) == 2 * inst.n
    for name in DERIVED:
        assert sorted(id(view) for n, view in computed if n == name) \
            == sorted(id(view) for view in built)


def test_nta_exhaustive_builds_graph_only_work_once(monkeypatch):
    # Honest trees depend on the graph and identities alone, and the
    # refute and rebut levels of one image move share its mapped instance.
    inst = Instance(asymmetric6(), IdAssignment((1, 2, 3, 4, 5, 6), 9),
                    InputAssignment((None,) * 6))
    calls = Counter()
    build_tree = schemes.build_bfs_tree
    post_init = Instance.__post_init__

    def counted_build(*args, **kwargs):
        calls["tree"] += 1
        return build_tree(*args, **kwargs)

    def counted_post_init(self):
        calls["instance"] += 1
        post_init(self)

    monkeypatch.setattr(schemes, "build_bfs_tree", counted_build)
    monkeypatch.setattr(Instance, "__post_init__", counted_post_init)
    stats = game_evaluate(resolve("nta"), inst, EXHAUSTIVE).stats
    assert stats.leaf_evaluations == 4_320
    assert calls["tree"] <= inst.n
    assert calls["instance"] <= 720 + 8


def _evict_geometry(inst: Instance) -> None:
    # A request for another (graph, identities) pair replaces the kept one,
    # so the next game on `inst` starts from an empty geometry.
    graphs.geometry(plain_instance(path_graph(inst.n + 1)))


@pytest.mark.parametrize("name,inst,mode", [
    ("cycle-vc", Instance(clique_graph(4), IdAssignment((3, 1, 4, 2), 16),
                          InputAssignment((2,) * 4)), EXHAUSTIVE),
    ("size", Instance(grid_graph(3, 3), IdAssignment.default(9),
                      InputAssignment((9,) * 9)), CONSTRUCTIVE),
])
def test_certificates_share_one_bfs_tree(monkeypatch, name, inst, mode):
    # Every counting and size certificate of a game sits on the one BFS
    # tree from the smallest identity, kept in the instance's geometry.
    calls = []
    build_tree = schemes.build_bfs_tree

    def counted_build(*args):
        calls.append(args)
        return build_tree(*args)

    _evict_geometry(inst)
    monkeypatch.setattr(schemes, "build_bfs_tree", counted_build)
    protocol = resolve(name)
    assert game_evaluate(protocol, inst, mode).verdict \
        is protocol.language.oracle(inst)
    assert len(calls) == 1


def test_opt_candidates_share_one_view_per_node(monkeypatch):
    # The 16 substitute inputs of a 4-node maxcut instance differ from it
    # only in inputs, so the cover, the language oracle and every
    # candidate's objective read views over shapes built once per node.
    inst = Instance(cycle_graph(4), IdAssignment((3, 1, 4, 2), 16),
                    InputAssignment((1, 1, 0, 0)))
    built = []
    build = graphs.make_shape

    def counted_make_shape(*args):
        built.append(args)
        return build(*args)

    _evict_geometry(inst)
    monkeypatch.setattr(graphs, "make_shape", counted_make_shape)
    protocol = resolve("maxcut")
    verdict = game_evaluate(protocol, inst, EXHAUSTIVE).verdict
    assert verdict is protocol.language.oracle(inst) is True
    assert len(built) <= inst.n


def test_one_leaf_game_reuses_no_view():
    n = 9
    inst = Instance(grid_graph(3, 3), IdAssignment.default(n),
                    InputAssignment((n,) * n))
    stats = game_evaluate(resolve("size"), inst, CONSTRUCTIVE).stats
    assert stats.leaf_evaluations == 1
    assert stats.node_evaluations == n
    assert stats.views_reused == 0


@pytest.mark.parametrize("name,inst,mode", [
    ("nta", Instance(asymmetric6(), IdAssignment((1, 2, 3, 4, 5, 6), 9),
                     InputAssignment((None,) * 6)), EXHAUSTIVE),
    ("qbf", small_instances("qbf")[0], EXHAUSTIVE),
    ("size", Instance(grid_graph(3, 3), IdAssignment.default(9),
                      InputAssignment((9,) * 9)), CONSTRUCTIVE),
    ("maxcut", Instance(cycle_graph(4), IdAssignment((3, 1, 4, 2), 16),
                        InputAssignment((1, 1, 0, 0))), EXHAUSTIVE),
])
def test_outcomes_do_not_depend_on_kept_geometry(name, inst, mode):
    # Cold: a game on another pair has just replaced the kept geometry.
    # Warm: the same game has just filled it.  Stats included, the two
    # outcomes are one.
    protocol = resolve(name)
    m = inst.n + 1
    elsewhere = Instance(path_graph(m), IdAssignment.default(m),
                         InputAssignment(tuple(1 + v % 2 for v in range(m))))
    game_evaluate(resolve("3col"), elsewhere, CONSTRUCTIVE)
    assert graphs._geometry.graph != inst.graph
    cold = game_evaluate(protocol, inst, mode)
    warm = game_evaluate(protocol, inst, mode)
    assert cold == warm
