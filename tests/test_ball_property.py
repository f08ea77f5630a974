"""Ball views against a brute-force reference on random connected graphs."""
from __future__ import annotations

from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from locdec.graphs import (BallView, Graph, IdAssignment, InputAssignment,
                           Instance, ball, norm_edge)
from locdec.transforms import shrink_ball

RADII = range(4)
# The view attributes computed on first read, not set with the view.
DERIVED = ("edges", "node_by_id")


@st.composite
def instances(draw):
    n = draw(st.integers(1, 8))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=n)) if pairs else [])
    N = n * n + 1
    weights = None
    if draw(st.booleans()):
        weights = {e: draw(st.integers(0, N)) for e in sorted(edges)}
    ids = draw(st.lists(st.integers(1, N), min_size=n, max_size=n, unique=True))
    inputs = draw(st.lists(st.none() | st.integers(0, N), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    inst = Instance(Graph(n, frozenset(edges), weights), IdAssignment(tuple(ids), N),
                    InputAssignment(tuple(inputs)))
    return inst, (tuple(labels),)


def _reference(inst: Instance, v: int, t: int) -> dict:
    g = inst.graph
    dist = {u: d for u, d in g.distances_from(v).items() if d <= t}
    edges = frozenset(e for e in g.edges if e[0] in dist and e[1] in dist)
    return {
        "members": tuple(sorted(dist)),
        "edges": edges,
        "weights_in": None if g.weights is None else {e: g.weights[e] for e in edges},
        "centre_dist": dist,
        "ids_in": {u: inst.id_of(u) for u in dist},
        "inputs_in": {u: inst.input_of(u) for u in dist},
    }


def _check_against_reference(view: BallView, inst: Instance, labellings,
                             v: int, t: int) -> None:
    ref = _reference(inst, v, t)
    assert (view.centre, view.radius, view.N) == (v, t, inst.N)
    for name, want in ref.items():
        assert getattr(view, name) == want, name
    assert view.layers == tuple({u: layer[u] for u in ref["members"]}
                                for layer in labellings)
    for u in view.members:
        assert view.neighbours(u) == frozenset(
            w for w in view.members if (min(u, w), max(u, w)) in ref["edges"])
        assert view.node_of(inst.id_of(u)) == u
    outside = [u for u in range(inst.n) if u not in ref["centre_dist"]]
    if outside:
        assert view.neighbours(outside[0]) == frozenset()
        assert view.node_of(inst.id_of(outside[0])) is None
    assert view.node_of(inst.N + 1) is None
    for u in range(inst.n):
        assert (view.centre_dist.get(u) == view.radius) \
            == (ref["centre_dist"].get(u) == t), u


@settings(deadline=None)
@given(instances())
def test_ball_matches_brute_force(case):
    inst, labellings = case
    for v in range(inst.n):
        for t in RADII:
            _check_against_reference(ball(inst, labellings, v, t), inst,
                                     labellings, v, t)


@st.composite
def memo_requests(draw):
    """Instances that the kept geometry must tell apart, or must not, and a
    sequence of (instance, labellings, centre, radius) requests over them.

    Next to a drawn instance come three that each differ from it in one
    part: its identities, on the same `Graph` object; its inputs, on the
    same `Graph` and `IdAssignment` objects; and its weights, on a new
    graph with the same edges (weighted or not, the other way round)."""
    inst, _ = draw(instances())
    n, N, g = inst.n, inst.N, inst.graph
    ids = draw(st.lists(st.integers(1, N), min_size=n, max_size=n, unique=True)
               .filter(lambda ids: tuple(ids) != inst.ids.ids))
    inputs = draw(st.lists(st.none() | st.integers(0, N), min_size=n,
                           max_size=n)
                  .filter(lambda xs: tuple(xs) != inst.inputs.values))
    weights = None
    if g.weights is None:
        weights = {e: draw(st.integers(0, N)) for e in sorted(g.edges)}
    reweighted = Graph(n, g.edges, weights)
    variants = (inst,
                Instance(g, IdAssignment(tuple(ids), N), inst.inputs),
                inst.with_inputs(inputs),
                Instance(reweighted, inst.ids, inst.inputs))
    width = draw(st.integers(0, 2))
    layer = st.lists(st.integers(0, 9), min_size=n, max_size=n).map(tuple)
    labellings = draw(st.lists(st.lists(layer, min_size=width, max_size=width)
                               .map(tuple), min_size=1, max_size=3))
    requests = draw(st.lists(
        st.tuples(st.sampled_from(variants), st.sampled_from(labellings),
                  st.integers(0, n - 1), st.sampled_from(RADII)),
        min_size=1, max_size=40))
    return requests


@settings(deadline=None)
@given(memo_requests())
def test_kept_geometry_serves_each_pair_its_own_views(requests):
    # Whatever `ball` kept for earlier requests, every view is the one the
    # brute force builds from its own instance, inputs and labels included.
    for inst, labellings, v, t in requests:
        _check_against_reference(ball(inst, labellings, v, t), inst,
                                 labellings, v, t)


@settings(deadline=None)
@given(instances())
def test_fresh_views_build_no_derived_attribute(case):
    # `DERIVED` is computed on first read, never by `ball` itself.
    inst, labellings = case
    for v in range(inst.n):
        for t in RADII:
            view = ball(inst, labellings, v, t)
            assert not set(DERIVED) & set(vars(view))
            view.has_edge(v, v)
            view.neighbours(v)
            assert not set(DERIVED) & set(vars(view))


@settings(deadline=None)
@given(instances())
def test_has_edge_matches_brute_force(case):
    inst, labellings = case
    for v in range(inst.n):
        for t in RADII:
            view = ball(inst, labellings, v, t)
            ref = _reference(inst, v, t)["edges"]
            for u in range(inst.n):
                for w in range(inst.n):
                    assert view.has_edge(u, w) == (
                        u != w and norm_edge(u, w) in ref), (u, w)


@settings(deadline=None)
@given(instances())
def test_shrink_ball_equals_smaller_ball(case):
    inst, labellings = case
    for v in range(inst.n):
        for t in RADII:
            wide = ball(inst, labellings, v, t)
            for s in range(t + 1):
                small = shrink_ball(wide, s)
                direct = ball(inst, labellings, v, s)
                for f in fields(direct):
                    assert getattr(small, f.name) == getattr(direct, f.name), f.name
