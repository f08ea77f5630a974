"""The rooted-tree certificate kernel on random connected graphs.

Honest trees pass ``tree_ok`` at every node for every root, the trees and
radius-1 views kept in ``graphs.geometry`` equal freshly built ones (each
kind alone, and the two interleaved on one memo),
``subtree_sums`` matches a brute-force sum, a tree certificate that
every node accepts describes a real rooted tree, and every tree reader
reads what an ``attrgetter`` reads, so ``tree_ok`` and ``size_ok`` give
the verdicts of checks that unpack the three fields.
"""
from __future__ import annotations

from operator import attrgetter
from typing import Callable, NamedTuple, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from locdec import schemes, transforms
from locdec.graphs import (BallView, Graph, IdAssignment, InputAssignment,
                           Instance, ball, node_view)
from locdec.labels import (INVALID, GatherCert, HamCert, Labelling,
                           NonHamCert, NSTCert, SizeCert, TreeCert,
                           build_bfs_tree, gather_cert_domain,
                           ham_cert_domain, non_ham_cert_domain,
                           nst_cert_domain, size_cert_domain,
                           tree_cert_domain)
from locdec.protocols import nta, resolve
from locdec.schemes import (READ_TREE_CERT, build_size_cert, honest_tree,
                            kept_tree, size_ok, subtree_sums, tree_certs,
                            tree_ok)


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


# ---------------------------------------------------------------------------
# tree readers against attrgetter readings

TREE = ("root", "parent", "dist")
SIZE = ("root", "parent", "size")


class ReaderCase(NamedTuple):
    """One tree carried by one label class: the reader the verifiers use,
    the fields it reads, where they sit and the domain that decodes the
    labels.  ``part`` names the ``MapDefect`` part holding the tree, and a
    ``sized`` tree is checked by ``size_ok``."""

    name: str
    read: Callable
    kind: type
    fields: tuple[str, str, str]
    domain_of: Callable
    part: Optional[str] = None
    sized: bool = False

    def by_attrgetter(self, value):
        if self.part is not None:
            if not isinstance(value, nta.MapDefect):
                return None
            value = getattr(value, self.part)
        get = attrgetter(*self.fields)
        return get(value) if isinstance(value, self.kind) else None

    def carrying(self, domain, triple):
        """The domain's first value with the tree fields set to ``triple``."""
        first = domain.first()
        if self.part is not None:
            return first._replace(**{self.part: TreeCert(*triple)})
        return first._replace(**dict(zip(self.fields, triple)))


def _collapsed_domain(n, N):
    return resolve("collapse:qbf").levels[0].domain_of(n, N)


READER_CASES = (
    ReaderCase("tree-cert", READ_TREE_CERT, TreeCert, TREE, tree_cert_domain),
    ReaderCase("size-cert", schemes._READ_SIZE, SizeCert, SIZE,
               size_cert_domain, sized=True),
    ReaderCase("gather-cert", schemes._READ_GATHER, GatherCert, TREE,
               gather_cert_domain),
    ReaderCase("ham-cert", schemes._READ_HAM, HamCert, TREE, ham_cert_domain),
    ReaderCase("nst-cert-1", schemes._READ_NST1, NSTCert,
               ("root1", "parent1", "dist1"), nst_cert_domain),
    ReaderCase("nst-cert-2", schemes._READ_NST2, NSTCert,
               ("root2", "parent2", "dist2"), nst_cert_domain),
    ReaderCase("non-ham-cert-1", schemes._READ_NONHAM1, NonHamCert,
               ("root1", "parent1", "dist1"), non_ham_cert_domain),
    ReaderCase("non-ham-cert-2", schemes._READ_NONHAM2, NonHamCert,
               ("root2", "parent2", "dist2"), non_ham_cert_domain),
    ReaderCase("collapsed-size-proof", transforms._READ_SIZE_PROOF,
               transforms.CollapsedLabel, ("sroot", "sparent", "ssize"),
               _collapsed_domain, sized=True),
    *(ReaderCase(f"map-defect-{part}", nta._READ_PART[part], TreeCert, TREE,
                 nta.map_defect_domain, part=part)
      for part in ("ta", "tb", "tc", "td")),
)

# Every reader's domain takes n <= 6 nodes at this identity range.
READER_N = 16


def _tree_ok_unpacked(b: BallView, read) -> bool:
    labels = b.layers[0]
    own = read(labels[b.centre])
    if own is None:
        return False
    r, p, d = own
    for w in b.neighbours(b.centre):
        other = read(labels[w])
        if other is None or other[0] != r:
            return False
    if p is None:
        return d == 0 and b.own_id == r
    target = b.node_of(p)
    if target is None or not b.has_edge(b.centre, target):
        return False
    return read(labels[target])[2] == d - 1


def _size_ok_unpacked(b: BallView, read, total: int) -> bool:
    labels = b.layers[0]
    own = read(labels[b.centre])
    if own is None:
        return False
    r, p, size = own
    children = 0
    for w in b.neighbours(b.centre):
        other = read(labels[w])
        if other is None or other[0] != r:
            return False
        if other[1] == b.own_id:
            children += other[2]
    if p is None:
        return b.own_id == r and size == total == 1 + children
    target = b.node_of(p)
    return (target is not None and b.has_edge(b.centre, target)
            and size == 1 + children)


@st.composite
def reader_labellings(draw):
    """A case, an instance and a labelling of it: an honest tree (or size
    certificate) carried in the case's labels, with some nodes' labels
    replaced by a decoded value of the case's domain, a decoded value of
    another case's domain, or ``INVALID``."""
    case = draw(st.sampled_from(READER_CASES))
    n = draw(st.integers(1, 6))
    ids = draw(st.lists(st.integers(1, READER_N), min_size=n, max_size=n,
                        unique=True))
    inst = Instance(_graph(draw, n), IdAssignment(tuple(ids), READER_N),
                    InputAssignment((None,) * n))
    domain = case.domain_of(n, READER_N)
    honest = (build_size_cert(inst) if case.sized
              else honest_tree(inst, draw(st.integers(0, n - 1))))
    labels = [case.carrying(domain, tuple(cert)) for cert in honest]
    for v in range(n):
        source = draw(st.sampled_from(("honest", "own", "other", "invalid")))
        if source == "invalid":
            labels[v] = INVALID
        elif source != "honest":
            other = case if source == "own" else draw(st.sampled_from(
                [c for c in READER_CASES if c.domain_of is not case.domain_of]))
            dom = other.domain_of(n, READER_N)
            labels[v] = dom.decode(draw(st.integers(0, (1 << dom.width) - 1)))
    return case, inst, Labelling(labels), draw(st.integers(1, n + 1))


@settings(deadline=None, max_examples=300)
@given(reader_labellings())
def test_tree_readers_read_what_attrgetter_reads(drawn):
    case, inst, lab, total = drawn
    for value in lab:
        got = case.read(value)
        want = case.by_attrgetter(value)
        assert (None if got is None else tuple(got[:3])) == want, case.name
    for v in range(inst.n):
        b = ball(inst, (lab,), v, 1)
        if case.sized:
            assert size_ok(b, 0, case.read, total) \
                == _size_ok_unpacked(b, case.by_attrgetter, total), case.name
        else:
            assert tree_ok(b, 0, case.read) \
                == _tree_ok_unpacked(b, case.by_attrgetter), case.name
