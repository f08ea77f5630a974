"""The rooted-tree certificate kernel on random connected graphs.

Honest trees pass ``tree_ok`` at every node for every root, the trees
kept in ``graphs.geometry`` and the radius-1 views ``ball`` builds over
its kept shapes equal freshly built ones (each kind alone, and the two
interleaved on one memo),
``subtree_sums`` matches a brute-force sum, a tree certificate that
every node accepts describes a real rooted tree, and every tree reader
reads what an ``attrgetter`` reads, so ``tree_ok`` and ``sum_ok`` give
the verdicts of checks that unpack the three fields.  The kernels that
read a view's fields directly (``tree_ok``, ``sum_ok`` as a size check,
``verify_size_cert``, ``uniform`` and 3col's colour check) give the
answers of their accessor-based references, by the same label and input
reads in the same order, and ``tree_ok`` takes only a neighbour as a
parent.
"""
from __future__ import annotations

from collections.abc import Mapping
from operator import attrgetter
from typing import Callable, NamedTuple, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from locdec import schemes, transforms
from locdec.gen import path_graph
from locdec.graphs import (BallView, Graph, IdAssignment, InputAssignment,
                           Instance, Ptr, ball, make_shape, view_over)
from locdec.labels import (INVALID, GatherCert, HamCert, Labelling,
                           NonHamCert, NSTCert, SizeCert, TreeCert,
                           build_bfs_tree, gather_cert_domain,
                           ham_cert_domain, non_ham_cert_domain,
                           nst_cert_domain, size_cert_domain,
                           tree_cert_domain)
from locdec.protocols import basic, nta, resolve
from locdec.schemes import (READ_TREE_CERT, build_size_cert, honest_tree,
                            kept_tree, part_reader, subtree_sums, sum_ok,
                            tree_certs, tree_ok, tree_reader)

from corpus import plain_instance
from reference import embed


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


def _check_kept_radius1_view(inst: Instance, v: int) -> None:
    """The label-free radius-1 views of `v` that `ball` builds, the second
    one over a kept shape, equal a view over a cold `make_shape` build,
    first-read attributes included."""
    g = inst.graph
    dist = {u: d for u, d in g.distances_from(v).items() if d <= 1}
    shape = make_shape(1, dist, [g.neighbours(u) for u in range(g.n)],
                       inst.ids.ids, g.weights)
    cold = view_over(v, 1, shape, inst.inputs.values, (), inst.N)
    for view in (ball(inst, (), v, 1), ball(inst, (), v, 1)):
        assert view == cold
        for name in ("edges", "node_by_id"):
            assert getattr(view, name) == getattr(cold, name), name


@settings(deadline=None)
@given(view_requests())
def test_opt_node_views_equal_fresh_balls(requests):
    for inst, v in requests:
        _check_kept_radius1_view(inst, v)


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
        _check_kept_radius1_view(inst, v)


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
    ``sized`` tree is checked by ``sum_ok`` as a size check."""

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
    ReaderCase("gather-cert", tree_reader(GatherCert), GatherCert, TREE,
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
    *(ReaderCase(f"map-defect-{part}",
                 part_reader(nta.MapDefect, part, TreeCert), TreeCert, TREE,
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


def _size_sum_ok(b: BallView, layer: int, read, total: int) -> bool:
    """``sum_ok`` as a size check: each node adds 1, and the root's total
    must be ``total``."""
    return sum_ok(b, layer, read, 1, lambda size: size == total)


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
            assert _size_sum_ok(b, 0, case.read, total) \
                == _size_ok_unpacked(b, case.by_attrgetter, total), case.name
        else:
            assert tree_ok(b, 0, case.read) \
                == _tree_ok_unpacked(b, case.by_attrgetter), case.name


# ---------------------------------------------------------------------------
# field-reading kernels against their accessor-based references
#
# The hot kernels read a view's fields through locals.  The references
# below are their accessor-based bodies as they stood before; each kernel
# must give the reference's answer and read the same labels and inputs in
# the same order, since `transforms._ReadLayer` refuses a read order that
# changes between equal views.


def _tree_ok_reference(ball: BallView, layer: int, read) -> bool:
    labels = ball.layers[layer]
    own = read(labels[ball.centre])
    if own is None:
        return False
    r = own[0]
    for w in ball.neighbours(ball.centre):
        other = read(labels[w])
        if other is None or other[0] != r:
            return False
    if own[1] is None:
        return own[2] == 0 and ball.own_id == r
    target = ball.node_of(own[1])
    if target is None or not ball.has_edge(ball.centre, target):
        return False
    return read(labels[target])[2] == own[2] - 1


def _size_ok_reference(ball: BallView, layer: int, read, total: int) -> bool:
    labels = ball.layers[layer]
    own = read(labels[ball.centre])
    if own is None:
        return False
    r, size = own[0], own[2]
    children = 0
    for w in ball.neighbours(ball.centre):
        other = read(labels[w])
        if other is None or other[0] != r:
            return False
        if other[1] == ball.own_id:
            children += other[2]
    if own[1] is None:
        return ball.own_id == r and size == total == 1 + children
    target = ball.node_of(own[1])
    return (target is not None and ball.has_edge(ball.centre, target)
            and size == 1 + children)


def _verify_size_cert_reference(ball: BallView) -> bool:
    x = ball.own_input
    if not isinstance(x, int):
        return False
    if any(ball.input_of(w) != x for w in ball.neighbours(ball.centre)):
        return False
    return _size_ok_reference(ball, 0, schemes._READ_SIZE, x)


def _uniform_reference(ball: BallView, kind: type, field: str):
    labels = ball.layers[0]
    own = labels[ball.centre]
    if not isinstance(own, kind):
        return None
    want = getattr(own, field)
    for w in ball.neighbours(ball.centre):
        other = labels[w]
        if not isinstance(other, kind) or getattr(other, field) != want:
            return None
    return own


def _colour_check_reference(ball: BallView) -> bool:
    own = ball.own_input
    if not isinstance(own, int) or not 1 <= own <= 3:
        return False
    return all(ball.input_of(w) != own
               for w in ball.neighbours(ball.centre))


# (kernel, reference, extra arguments after the view); `total` stands for
# the drawn size total.
KERNELS = (
    ("tree_ok/tree-cert", tree_ok, _tree_ok_reference, (0, READ_TREE_CERT)),
    ("tree_ok/size-cert", tree_ok, _tree_ok_reference,
     (0, schemes._READ_SIZE)),
    ("sum_ok/size-cert", _size_sum_ok, _size_ok_reference,
     (0, schemes._READ_SIZE, "total")),
    ("sum_ok/tree-cert", _size_sum_ok, _size_ok_reference,
     (0, READ_TREE_CERT, "total")),
    ("verify_size_cert", schemes.verify_size_cert,
     _verify_size_cert_reference, ()),
    ("uniform/tree-cert", schemes.uniform, _uniform_reference,
     (TreeCert, "root")),
    ("uniform/size-cert", schemes.uniform, _uniform_reference,
     (SizeCert, "parent")),
    ("colour-check", basic._colour_check, _colour_check_reference, ()),
)


class _Recorded(Mapping):
    """A layer or input map that logs each key read through it."""

    def __init__(self, inner: Mapping, log: list, what: str) -> None:
        self.inner, self.log, self.what = inner, log, what

    def __getitem__(self, v):
        self.log.append((self.what, v))
        return self.inner[v]

    def __len__(self) -> int:
        return len(self.inner)

    def __iter__(self):
        return iter(self.inner)


def _run_recorded(kernel, view: BallView, args: tuple):
    """The kernel's answer (or the class of what it raised) and the labels
    and inputs it read, in order."""
    log: list = []
    recorded = view.with_layers(
        [_Recorded(layer, log, "label") for layer in view.layers],
        _Recorded(view.inputs_in, log, "input"))
    try:
        answer = ("returned", kernel(recorded, *args))
    except Exception as exc:  # the reference must raise the same
        answer = ("raised", type(exc))
    return answer, log


def _input(draw, inst_ids: tuple[int, ...], graph: Graph, v: int, common: int):
    kind = draw(st.sampled_from(("common", "common", "int", "none", "ptr")))
    if kind == "common":
        return common
    if kind == "int":
        return draw(st.integers(0, 4))
    if kind == "none":
        return None
    targets = [inst_ids[w] for w in sorted(graph.neighbours(v))]
    return Ptr(draw(st.sampled_from([None, *targets])))


@st.composite
def kernel_views(draw):
    """A view of radius 0-2 from `ball`, `shrink_ball` or `embed` (the view
    `transforms.sub_decide` hands a sub-verifier), whose
    layer holds honest tree or size certificate labels, drawn labels of the
    same kind, labels of the other kind, `INVALID` or ints, and whose
    inputs are ints, None or pointers; and a size total.

    Half the graphs have 9 or 10 nodes and a centre next to node 8.
    CPython keeps a frozenset of up to four ints in 8 slots, by value
    modulo 8, and iterates it in slot order: a neighbour set of nodes
    below 8 comes out sorted, and only one that holds node 8 or above can
    tell a kernel that sorts its neighbours from one that walks them as
    the view holds them."""
    far = draw(st.booleans())
    n = draw(st.integers(9, 10) if far else st.integers(1, 8))
    graph, ids = _graph(draw, n), _ids(draw, n)
    common = draw(st.sampled_from((n, 1, 2, 3)))
    inputs = tuple(_input(draw, ids.ids, graph, v, common) for v in range(n))
    inst = Instance(graph, ids, InputAssignment(inputs))
    kind, other = draw(st.sampled_from(((TreeCert, SizeCert),
                                        (SizeCert, TreeCert))))
    honest = (build_size_cert(inst) if kind is SizeCert
              else honest_tree(inst, draw(st.integers(0, n - 1))))
    centre = draw(st.sampled_from(sorted(graph.neighbours(8))) if far
                  else st.integers(0, n - 1))
    labels = []
    for v in range(n):
        # The centre's own label is redrawn most often: the kernels read
        # their deepest branches off it.
        source = draw(st.sampled_from(
            ("drawn", "drawn", "drawn", "honest", "other", "invalid", "int")
            if v == centre else
            ("honest",) * 5 + ("drawn", "other", "invalid", "int")))
        if source == "honest":
            labels.append(honest[v])
        elif source == "drawn":
            # The honest label with one field redrawn, so that most checks
            # pass up to the redrawn field.
            nbr_ids = tuple(ids.ids[w] for w in sorted(graph.neighbours(v)))
            fields = list(honest[v])
            i = draw(st.integers(0, 2))
            fields[i] = draw((st.sampled_from(ids.ids),
                              st.none() | st.sampled_from(nbr_ids + ids.ids),
                              st.integers(0, n + 1))[i])
            labels.append(kind(*fields))
        elif source == "other":
            labels.append(other(*honest[v]))
        elif source == "invalid":
            labels.append(INVALID)
        else:
            labels.append(draw(st.integers(0, 9)))
    t = draw(st.sampled_from((0, 1, 1, 2, 2)))
    how = draw(st.sampled_from(("ball", "shrink_ball", "embed")))
    if how == "ball":
        view = ball(inst, (labels,), centre, t)
    elif how == "shrink_ball":
        wide = ball(inst, (labels,), centre, draw(st.integers(t, 2)))
        view = transforms.shrink_ball(wide, t)
    else:
        # A wider view of other labels and no inputs, with this case's
        # labels and inputs swapped in, as a transform hands its base.
        blank = Instance(graph, ids, InputAssignment((None,) * n))
        wide = ball(blank, ((INVALID,) * n,), centre, draw(st.integers(t, 2)))
        view = embed(
            wide, ({u: labels[u] for u in wide.members},), t,
            {u: inputs[u] for u in wide.members})
    return view, draw(st.integers(1, n + 1))


@settings(deadline=None, max_examples=400)
@given(kernel_views())
def test_kernels_read_and_answer_as_their_references(drawn):
    view, total = drawn
    for name, kernel, reference, args in KERNELS:
        args = tuple(total if a == "total" else a for a in args)
        got = _run_recorded(kernel, view, args)
        want = _run_recorded(reference, view, args)
        assert got == want, name


def test_tree_ok_refuses_a_parent_two_steps_away():
    # Path 0-1-2-3 rooted at 3, seen at radius 2 around node 0.  Node 0
    # skips node 1 and names node 2, a member at distance 2, as its
    # parent, with the root and a distance one more than node 2's.  Only
    # a neighbour may be a parent.
    inst = plain_instance(path_graph(4))
    honest = honest_tree(inst, 3)
    shortcut = (TreeCert(honest[0].root, inst.id_of(2), honest[2].dist + 1),
                *honest[1:])
    view = ball(inst, (shortcut,), 0, 2)
    assert view.centre_dist[2] == 2
    assert not tree_ok(view, 0, READ_TREE_CERT)
    assert not _tree_ok_reference(view, 0, READ_TREE_CERT)
    assert tree_ok(ball(inst, (honest,), 0, 2), 0, READ_TREE_CERT)
