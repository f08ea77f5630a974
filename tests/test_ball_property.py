"""Ball views against a brute-force reference on random connected graphs."""
from __future__ import annotations

from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from locdec.engine import shrink_ball
from locdec.graphs import Graph, IdAssignment, InputAssignment, Instance, ball

RADII = range(4)


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
        "frontier_set": frozenset(u for u, d in dist.items() if d == t),
        "centre_dist": dist,
        "ids_in": {u: inst.id_of(u) for u in dist},
        "inputs_in": {u: inst.input_of(u) for u in dist},
    }


@settings(deadline=None)
@given(instances())
def test_ball_matches_brute_force(case):
    inst, labellings = case
    for v in range(inst.n):
        for t in RADII:
            view = ball(inst, labellings, v, t)
            ref = _reference(inst, v, t)
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
