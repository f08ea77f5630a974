"""The rooted-tree certificate kernel on random connected graphs.

Honest trees pass ``tree_ok`` at every node for every root, the trees and
radius-1 views kept in ``graphs.geometry`` equal freshly built ones (each
kind alone, and the two interleaved on one memo),
``subtree_sums`` matches a brute-force sum, and a tree certificate that
every node accepts describes a real rooted tree.
"""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from locdec.graphs import (BallView, Graph, IdAssignment, InputAssignment,
                           Instance, ball, node_view)
from locdec.labels import Labelling, TreeCert, build_bfs_tree
from locdec.schemes import (READ_TREE_CERT, honest_tree, kept_tree,
                            subtree_sums, tree_certs, tree_ok)


def _graph(draw, n: int) -> Graph:
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=n)) if pairs else [])
    return Graph(n, frozenset(edges))


def _ids(draw, n: int) -> IdAssignment:
    N = n * n + 1
    ids = draw(st.lists(st.integers(1, N), min_size=n, max_size=n, unique=True))
    return IdAssignment(tuple(ids), N)


@st.composite
def instances(draw, max_n: int = 7):
    n = draw(st.integers(1, max_n))
    return Instance(_graph(draw, n), _ids(draw, n), InputAssignment((None,) * n))


def accepted_everywhere(inst: Instance, lab: Labelling) -> bool:
    return all(tree_ok(ball(inst, (lab,), v, 1), 0, READ_TREE_CERT)
               for v in range(inst.n))


@settings(deadline=None)
@given(instances())
def test_honest_tree_passes_at_every_node_for_every_root(inst):
    for root in range(inst.n):
        assert accepted_everywhere(inst, honest_tree(inst, root))


@st.composite
def tree_requests(draw):
    """Four instances on n nodes and a sequence of (instance, root) requests.

    Against the first instance, the others change only the identities,
    only the graph, or only the inputs."""
    n = draw(st.integers(1, 7))
    graph, ids = _graph(draw, n), _ids(draw, n)
    inputs = [InputAssignment(tuple(draw(st.lists(
        st.none() | st.integers(0, ids.N), min_size=n, max_size=n))))
        for _ in range(2)]
    family = [Instance(graph, ids, inputs[0]),
              Instance(graph, _ids(draw, n), inputs[0]),
              Instance(_graph(draw, n), ids, inputs[0]),
              Instance(graph, ids, inputs[1])]
    return draw(st.lists(st.tuples(st.sampled_from(family),
                                   st.integers(0, n - 1)),
                         min_size=1, max_size=12))


@settings(deadline=None)
@given(tree_requests())
def test_kept_honest_trees_equal_fresh_ones(requests):
    for inst, root in requests:
        fresh = Labelling(tree_certs(inst, build_bfs_tree(inst, root)))
        assert honest_tree(inst, root) == fresh


def _weighted(draw, graph: Graph, N: int) -> Graph:
    return Graph(graph.n, graph.edges,
                 {e: draw(st.integers(0, N)) for e in graph.edges})


@st.composite
def view_requests(draw):
    """Instances on n nodes and a sequence of (instance, centre) requests.

    The instances share one graph (weighted or not) under two identity
    assignments and the first one's identities under a larger N, or use a
    second graph; each request draws fresh inputs."""
    n = draw(st.integers(1, 6))
    ids, other_ids = _ids(draw, n), _ids(draw, n)
    graph, other_graph = _graph(draw, n), _graph(draw, n)
    if draw(st.booleans()):
        graph = _weighted(draw, graph, ids.N)
    pairs = [(graph, ids), (graph, other_ids),
             (graph, IdAssignment(ids.ids, ids.N + 1)), (other_graph, ids)]
    requests = []
    for _ in range(draw(st.integers(1, 12))):
        g, a = draw(st.sampled_from(pairs))
        inputs = draw(st.lists(st.none() | st.integers(0, a.N),
                               min_size=n, max_size=n))
        inst = Instance(g, a, InputAssignment(tuple(inputs)))
        requests.append((inst, draw(st.integers(0, n - 1))))
    return requests


@settings(deadline=None)
@given(view_requests())
def test_opt_node_views_equal_fresh_balls(requests):
    for inst, v in requests:
        view, fresh = node_view(inst, v), ball(inst, (), v, 1)
        assert view == fresh
        for name in BallView.DERIVED:
            assert getattr(view, name) == getattr(fresh, name), name


@st.composite
def geometry_requests(draw):
    """Instances on n nodes and a sequence of (instance, kind, node)
    requests for a kept tree or a kept view, interleaved.

    The instances share one graph (weighted or not) under two identity
    assignments and the first one's identities under a larger N, or use a
    second graph; each request draws fresh inputs."""
    n = draw(st.integers(1, 7))
    ids, other_ids = _ids(draw, n), _ids(draw, n)
    graph, other_graph = _graph(draw, n), _graph(draw, n)
    if draw(st.booleans()):
        graph = _weighted(draw, graph, ids.N)
    pairs = [(graph, ids), (graph, other_ids),
             (graph, IdAssignment(ids.ids, ids.N + 1)), (other_graph, ids)]
    requests = []
    for _ in range(draw(st.integers(1, 12))):
        g, a = draw(st.sampled_from(pairs))
        inputs = draw(st.lists(st.none() | st.integers(0, a.N),
                               min_size=n, max_size=n))
        inst = Instance(g, a, InputAssignment(tuple(inputs)))
        requests.append((inst, draw(st.sampled_from(("tree", "view"))),
                         draw(st.integers(0, n - 1))))
    return requests


@settings(deadline=None)
@given(geometry_requests())
def test_kept_geometry_equals_fresh_builds(requests):
    for inst, kind, v in requests:
        if kind == "tree":
            fresh = build_bfs_tree(inst, v)
            certs = Labelling(tree_certs(inst, fresh))
            assert kept_tree(inst, v) == (fresh, certs)
            assert honest_tree(inst, v) == certs
            continue
        view, fresh = node_view(inst, v), ball(inst, (), v, 1)
        assert view == fresh
        for name in BallView.DERIVED:
            assert getattr(view, name) == getattr(fresh, name), name


@settings(deadline=None)
@given(instances(), st.data())
def test_subtree_sums_match_brute_force(inst, data):
    root = data.draw(st.integers(0, inst.n - 1))
    values = data.draw(st.lists(st.integers(0, 50), min_size=inst.n,
                                max_size=inst.n))
    tree = build_bfs_tree(inst, root)
    want = [0] * inst.n
    for v in range(inst.n):
        w = v
        while w is not None:  # v's value counts at v and every ancestor
            want[w] += values[v]
            w = tree.parent[w]
    assert subtree_sums(tree, values) == want


@st.composite
def tree_labellings(draw):
    # An honest tree with some nodes' fields redrawn, so that both accepted
    # and rejected labellings come up often.
    inst = draw(instances(max_n=5))
    n = inst.n
    certs = list(honest_tree(inst, draw(st.integers(0, n - 1))))
    for v in range(n):
        if draw(st.booleans()):
            nbr_ids = sorted(inst.id_of(w) for w in inst.graph.neighbours(v))
            parent = st.none() | st.sampled_from(nbr_ids) if nbr_ids else st.none()
            certs[v] = TreeCert(draw(st.sampled_from(inst.ids.ids)),
                                draw(parent), draw(st.integers(0, n - 1)))
    return inst, Labelling(certs)


@settings(deadline=None)
@given(tree_labellings())
def test_accepted_certificate_parent_chains_reach_the_root(case):
    inst, lab = case
    if not accepted_everywhere(inst, lab):
        return
    for v in range(inst.n):
        w = v
        for _ in range(lab[v].dist):
            assert lab[w].parent is not None
            w = inst.node_of(lab[w].parent)
        assert inst.id_of(w) == lab[v].root
        assert lab[w].parent is None
