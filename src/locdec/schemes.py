"""The certificate kernel, certificate builders and their verifier fragments.

Almost every certificate sits on a rooted spanning tree whose nodes carry
(root, parent, dist) fields, and this module is the one place that builds
and checks such a tree:

* ``labels.build_bfs_tree`` finds the tree, over the whole graph or inside
  a given edge set, and ``tree_certs`` names its nodes by identity;
* ``kept_tree`` does both for one root of the whole graph, once per
  (graph, identities) pair: the tree is kept in ``graphs.geometry``, and
  ``honest_tree`` is its certificate.  The size and gathering builders
  fold over the kept tree from the smallest identity, so one BFS tree
  serves every certificate on it;
* ``subtree_sums`` folds per-node values up a tree;
* ``tree_ok`` is the one local check of a tree certificate, and
  ``sum_ok`` the one check of a subtree sum (of sizes or of values), so
  a gathering check is ``tree_ok`` and then ``sum_ok``.  Both read the
  fields through a reader built once per label class, so no projected
  view is made for them: a ``tree_reader`` reads a label's own fields,
  and a ``part_reader`` a tree certificate held in one field of a
  composite label, each in place.  The spanning-tree check is
  ``tree_ok`` plus the parent agreeing with the pointer input;
* ``uniform`` checks that a node and its neighbours carry labels of one
  class that agree on a flag;
* ``mutual_pair`` reads a node's two reciprocated marks, on a whole
  instance for the builders and on a ball for the verifiers.

The defect builders split a graph with ``oracles.components``, the one
component finder, and the non-spanning-tree builder reads its pointer
edges from the instance through ``pointer_structure``.

Each scheme pairs a constructive builder (instance + witness object ->
labelling) with a radius-1 verification fragment (ball -> bool).  Verifier
fragments never raise on malformed content: anything that fails to parse is
rejected at the node that sees it.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Iterable, Optional, Sequence

from .graphs import BallView, Edge, Instance, Marks, Ptr, geometry
from .labels import (BFSTree, GatherCert, HamCert, Labelling, NonHamCert,
                     NSTCert, SizeCert, TreeCert, build_bfs_tree)
from .oracles import components, oracle_spanning_tree


class SchemeError(ValueError):
    """Raised when a builder is handed a witness that does not fit."""


# ---------------------------------------------------------------------------
# the tree kernel

# A tree reading: items 0, 1 and 2 are (root, parent, dist); a summed one's
# last item is its total.
TreeFields = Sequence
TreeReader = Callable[[object], Optional[TreeFields]]


def tree_certs(instance: Instance, tree: BFSTree) -> list[TreeCert]:
    """Per-node (root, parent, dist) of ``tree``, nodes named by identity."""
    ids = instance.ids.ids
    rid = ids[tree.root]
    return [TreeCert(rid, None if p is None else ids[p], d)
            for p, d in zip(tree.parent, tree.dist)]


def kept_tree(instance: Instance, root: int) -> tuple[BFSTree, Labelling]:
    """The breadth-first tree rooted at ``root`` and its tree certificate.

    A tree reads only the graph and the identities, never the inputs, so
    it is kept by root in the instance's ``graphs.geometry`` and shared by
    every instance that differs only in inputs, such as the mapped
    instances of all image moves in one ``nta`` game.  The returned
    ``Labelling`` is immutable.
    """
    trees = geometry(instance).trees
    kept = trees.get(root)
    if kept is None:
        tree = build_bfs_tree(instance, root)
        kept = trees[root] = (tree, Labelling(tree_certs(instance, tree)))
    return kept


def honest_tree(instance: Instance, root: int) -> Labelling:
    """The breadth-first tree certificate rooted at ``root``."""
    return kept_tree(instance, root)[1]


def _lowest_tree(instance: Instance) -> tuple[BFSTree, Labelling]:
    """The kept tree rooted at the smallest identity."""
    return kept_tree(instance, min(range(instance.n), key=instance.id_of))


def subtree_sums(tree: BFSTree, values: Sequence[int]) -> list[int]:
    """Per node, the sum of ``values`` over its subtree."""
    sums = list(values)
    for v in reversed(tree.order):
        p = tree.parent[v]
        if p is not None:
            sums[p] += sums[v]
    return sums


def tree_reader(kind: type, root: str = "root", parent: str = "parent",
                dist: str = "dist") -> TreeReader:
    """Reads the named tree fields of a ``kind`` label; None for any other value.

    A reading is indexed, never unpacked: its items 0, 1 and 2 are the
    label's ``root``, ``parent`` and ``dist`` fields.  A kind whose first
    three fields are those, in that order, is read as the label itself;
    any other kind as a tuple of the three.
    """
    if kind._fields[:3] == (root, parent, dist):
        def read(value: object) -> Optional[TreeFields]:
            return value if isinstance(value, kind) else None
    else:
        fields = attrgetter(root, parent, dist)

        def read(value: object) -> Optional[TreeFields]:
            return fields(value) if isinstance(value, kind) else None

    return read


def part_reader(kind: type, part: str, cert: type) -> TreeReader:
    """Reads field ``part`` of a ``kind`` label in place when that field
    holds a ``cert`` label, None for any other value.  ``cert`` leads with
    the tree fields, as ``TreeCert`` and ``GatherCert`` do."""
    index = kind._fields.index(part)

    def read(value: object) -> Optional[TreeFields]:
        if isinstance(value, kind):
            nested = value[index]
            if isinstance(nested, cert):
                return nested
        return None
    return read


def tree_ok(ball: BallView, layer: int, read: TreeReader) -> bool:
    """Root/parent/distance checks of a tree certificate carried in ``layer``.

    The centre and its neighbours must name the same root; a node without a
    parent must be that root at distance 0, and any other node's parent
    must be a neighbour one step closer to the root.
    """
    labels = ball.layers[layer]
    centre = ball.centre
    own = read(labels[centre])
    if own is None:
        return False
    r = own[0]
    nbrs = ball.adj_in[centre]
    for w in nbrs:
        other = read(labels[w])
        if other is None or other[0] != r:
            return False
    parent = own[1]
    ids = ball.ids_in
    if parent is None:
        return own[2] == 0 and ids[centre] == r
    for w in nbrs:
        if ids[w] == parent:
            return read(labels[w])[2] == own[2] - 1
    return False


def sum_ok(ball: BallView, layer: int, read: TreeReader, value: int,
           at_root: Callable[[int], bool]) -> bool:
    """Subtree-sum checks of a certificate carried in ``layer``.

    ``read`` gives a label's root at item 0, its parent at item 1 and its
    total as its last item.  The centre and its neighbours must name the
    same root, and the centre's total must be ``value`` plus the totals of
    the neighbours that name the centre as parent.  A node without a
    parent must be that root, with a total that ``at_root`` accepts; any
    other node's parent must be a neighbour.  Where ``tree_ok`` has passed
    on the same reader, these root and parent checks pass too.
    """
    labels = ball.layers[layer]
    centre = ball.centre
    own = read(labels[centre])
    if own is None:
        return False
    r, total = own[0], own[-1]
    ids = ball.ids_in
    me = ids[centre]
    nbrs = ball.adj_in[centre]
    children = 0
    for w in nbrs:
        other = read(labels[w])
        if other is None or other[0] != r:
            return False
        if other[1] == me:
            children += other[-1]
    parent = own[1]
    if parent is None:
        return me == r and total == value + children and at_root(total)
    for w in nbrs:
        if ids[w] == parent:
            return total == value + children
    return False


READ_TREE_CERT = tree_reader(TreeCert)


def uniform(ball: BallView, kind: type, field: str) -> Optional[object]:
    """The centre's layer-0 label if it and every neighbour's label are
    ``kind`` labels agreeing on ``field``; None otherwise."""
    labels = ball.layers[0]
    centre = ball.centre
    own = labels[centre]
    if not isinstance(own, kind):
        return None
    want = getattr(own, field)
    for w in ball.adj_in[centre]:
        other = labels[w]
        if not isinstance(other, kind) or getattr(other, field) != want:
            return None
    return own


# ---------------------------------------------------------------------------
# spanning-tree certificates (parent read from the input pointer)


def build_spanning_tree_cert(instance: Instance, tree: frozenset[Edge],
                             root: int) -> Labelling:
    if not oracle_spanning_tree(instance.graph, tree):
        raise SchemeError("edge set is not a spanning tree")
    return Labelling(tree_certs(instance, build_bfs_tree(instance, root, tree)))


def verify_spanning_tree_cert(ball: BallView) -> bool:
    """A tree certificate (``tree_ok``) whose parent is the pointer input."""
    x = ball.own_input
    return (isinstance(x, Ptr) and tree_ok(ball, 0, READ_TREE_CERT)
            and ball.own_label(0).parent == x.to)


# ---------------------------------------------------------------------------
# size certificates


def build_size_cert(instance: Instance) -> Labelling:
    """Subtree sizes over the kept tree from the smallest identity."""
    tree, certs = _lowest_tree(instance)
    size = subtree_sums(tree, [1] * instance.n)
    return Labelling(SizeCert(c.root, c.parent, s) for c, s in zip(certs, size))


_READ_SIZE = tree_reader(SizeCert, "root", "parent", "size")


def verify_size_cert(ball: BallView) -> bool:
    inputs = ball.inputs_in
    centre = ball.centre
    x = inputs[centre]
    if not isinstance(x, int):
        return False
    for w in ball.adj_in[centre]:
        if inputs[w] != x:
            return False
    return sum_ok(ball, 0, _READ_SIZE, 1, lambda size: size == x)


# ---------------------------------------------------------------------------
# gathering certificates


def build_gathering_cert(instance: Instance, values: Sequence[int]) -> Labelling:
    """Sums of ``values`` over the subtrees of the kept tree from the
    smallest identity.  Each value and the total must lie in [0, 2·N·n]."""
    values = tuple(values)
    if len(values) != instance.n:
        raise SchemeError("one value per node required")
    cap = 2 * instance.N * instance.n
    for v, val in enumerate(values):
        if not isinstance(val, int) or not 0 <= val <= cap:
            raise SchemeError(f"value {val!r} at node {v} outside [0, {cap}]")
    if sum(values) > cap:
        raise SchemeError(f"aggregate {sum(values)} exceeds the certifiable cap {cap}")
    tree, certs = _lowest_tree(instance)
    agg = subtree_sums(tree, values)
    return Labelling(GatherCert(*c, a) for c, a in zip(certs, agg))


# ---------------------------------------------------------------------------
# Hamiltonian-cycle certificates (cycle edges read from Marks inputs)


def _cycle_order(instance: Instance, cycle: frozenset[Edge], root: int) -> list[int]:
    adj: dict[int, list[int]] = {}
    for u, v in cycle:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    order = [root]
    nxt = min(adj[root], key=instance.id_of)
    prev = root
    while nxt != root:
        order.append(nxt)
        a, b = adj[nxt]
        prev, nxt = nxt, (b if a == prev else a)
    return order


def build_hamiltonian_cert(instance: Instance, cycle: frozenset[Edge],
                           root: int) -> Labelling:
    n = instance.n
    if n < 3:
        raise SchemeError("cycles need at least 3 nodes")
    degree = [0] * n
    for u, v in cycle:
        if not instance.graph.has_edge(u, v):
            raise SchemeError(f"edge {(u, v)} is not in the graph")
        degree[u] += 1
        degree[v] += 1
    if len(cycle) != n or any(d != 2 for d in degree):
        raise SchemeError("edge set is not a Hamiltonian cycle")
    order = _cycle_order(instance, cycle, root)
    if len(order) != n:
        raise SchemeError("edge set is not a Hamiltonian cycle")
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    return Labelling(HamCert(*c, pos[v])
                     for v, c in enumerate(honest_tree(instance, root)))


_READ_HAM = tree_reader(HamCert)


def verify_hamiltonian_cert(ball: BallView) -> bool:
    if not tree_ok(ball, 0, _READ_HAM):
        return False
    own = ball.own_label(0)
    # Cycle edges must be marked symmetrically.
    marked = mutual_pair(ball, ball.centre)
    if marked is None:
        return False
    if not all(isinstance(ball.label(0, w), HamCert) for w in marked):
        return False
    q1, q2 = (ball.label(0, w).pos for w in marked)
    p = own.pos
    if p == 0:
        if ball.own_id != own.root:
            return False
        return (q1 == 1 and q2 > 1) or (q2 == 1 and q1 > 1)
    if own.parent is None:
        # The tree root must sit at position 0 on the cycle.
        return False
    return (q1 == p - 1 and q2 != p) or (q2 == p - 1 and q1 != p)


# ---------------------------------------------------------------------------
# non-spanning-tree certificates (pointer structure read from Ptr inputs)
#
# An input encodes a spanning tree when exactly one node points nowhere and
# following pointers from every node reaches it.  The defects are therefore
# properties of the pointer structure: a node touched by no pointer edge, a
# directed pointer cycle, or an acyclic pointer forest with several roots.


def pointer_structure(instance: Instance) -> tuple[list[Optional[int]], frozenset[Edge]]:
    """Per-node pointer target (as node index) and the pointer edge set."""
    targets: list[Optional[int]] = []
    edges = set()
    for v in range(instance.n):
        x = instance.input_of(v)
        if not isinstance(x, Ptr):
            raise SchemeError(f"node {v} carries a non-pointer input")
        if x.to is None:
            targets.append(None)
        else:
            w = instance.node_of(x.to)
            targets.append(w)
            edges.add((min(v, w), max(v, w)))
    return targets, frozenset(edges)


def _pointer_cycle(instance: Instance,
                   targets: Sequence[Optional[int]]) -> Optional[list[int]]:
    """The pointer cycle through the smallest-id cyclic node, in pointer order."""
    n = len(targets)
    cyclic = set()
    for start in range(n):
        # After n steps a pointer walk must sit on a cycle, if it has not
        # already fallen off at a bottom node.
        v: Optional[int] = start
        for _ in range(n):
            if v is None:
                break
            v = targets[v]
        if v is not None:
            cyclic.add(v)
    if not cyclic:
        return None
    root = min(cyclic, key=instance.id_of)
    cycle = [root]
    v = targets[root]
    while v != root:
        cycle.append(v)
        v = targets[v]
    return cycle


def _split_certs(instance: Instance, edges: Iterable[Edge],
                 whole: str) -> tuple[list[int], Labelling, Labelling]:
    """Split a defect into the components of ``edges``: 1-based component
    index per node, ordered by smallest identity, plus trees rooted in the
    first two.  Raises SchemeError(whole) when there is only one component."""
    comps = components(instance.n, edges)
    if len(comps) < 2:
        raise SchemeError(whole)
    comps.sort(key=lambda group: min(instance.id_of(v) for v in group))
    idx = [0] * instance.n
    for i, group in enumerate(comps):
        for v in group:
            idx[v] = i + 1
    tree1, tree2 = (honest_tree(instance, min(group, key=instance.id_of))
                    for group in comps[:2])
    return idx, tree1, tree2


def _split_ok(ball: BallView, own: NSTCert | NonHamCert, read2: TreeReader,
              linked: Sequence[int]) -> bool:
    """Checks of a split defect past the first tree: the second tree, the
    first tree's root in component 1 and the second's in component 2, and
    one component index over the ``linked`` neighbours."""
    if not tree_ok(ball, 0, read2):
        return False
    if own.parent1 is None and own.idx != 1:
        return False
    if own.parent2 is None and own.idx != 2:
        return False
    return all(ball.label(0, w).idx == own.idx for w in linked)


def build_non_spanning_tree_cert(instance: Instance) -> Labelling:
    n = instance.n
    targets, pointer_edges = pointer_structure(instance)
    spanned = {v for edge in pointer_edges for v in edge}
    unspanned = [v for v in range(n) if v not in spanned]
    if unspanned and n > 1:
        tree = honest_tree(instance, min(unspanned, key=instance.id_of))
        return Labelling(NSTCert(0, 1, *tree[v], None, None, *tree[v])
                         for v in range(n))

    cycle = _pointer_cycle(instance, targets)
    if cycle is not None:
        cpos: list[Optional[int]] = [None] * n
        for i, v in enumerate(cycle):
            cpos[v] = i
        tree = honest_tree(instance, cycle[0])
        return Labelling(NSTCert(1, 1, *tree[v], cpos[v], len(cycle), *tree[v])
                         for v in range(n))

    idx, tree1, tree2 = _split_certs(
        instance, pointer_edges, "pointer inputs encode a spanning tree; no defect to certify")
    return Labelling(NSTCert(2, idx[v], *tree1[v], None, None, *tree2[v])
                     for v in range(n))


def _pointer_neighbours(ball: BallView, v: int) -> Optional[list[int]]:
    """Nodes joined to v by a pointer edge, or None if inputs are not pointers."""
    x = ball.input_of(v)
    if not isinstance(x, Ptr):
        return None
    out = set()
    if x.to is not None:
        target = ball.node_of(x.to)
        if target is not None:
            out.add(target)
    vid = ball.id_of(v)
    for w in ball.neighbours(v):
        xw = ball.input_of(w)
        if not isinstance(xw, Ptr):
            return None
        if xw.to == vid:
            out.add(w)
    return sorted(out)


_READ_NST1 = tree_reader(NSTCert, "root1", "parent1", "dist1")
_READ_NST2 = tree_reader(NSTCert, "root2", "parent2", "dist2")


def verify_non_spanning_tree_cert(ball: BallView) -> bool:
    own = uniform(ball, NSTCert, "flag")
    if own is None or not tree_ok(ball, 0, _READ_NST1):
        return False
    fnbrs = _pointer_neighbours(ball, ball.centre)
    if fnbrs is None:
        return False

    if own.flag == 0:
        if own.parent1 is None:
            # Claimed unspanned: no incident pointer edge, yet not alone.
            return not fnbrs and bool(ball.neighbours(ball.centre))
        return True

    if own.flag == 1:
        if not isinstance(own.clen, int) or own.clen < 2:
            return False
        for w in ball.neighbours(ball.centre):
            if ball.label(0, w).clen != own.clen:
                return False
        if own.parent1 is None and own.cpos != 0:
            # The tree root must sit on the cycle at position 0.
            return False
        p = own.cpos
        if p is None:
            return True
        if p >= own.clen:
            return False
        if p == 0 and ball.own_id != own.root1:
            return False
        x = ball.own_input
        if not isinstance(x, Ptr) or x.to is None:
            return False
        target = ball.node_of(x.to)
        if target is None:
            return False
        return ball.label(0, target).cpos == (p + 1) % own.clen

    return _split_ok(ball, own, _READ_NST2, fnbrs)


# ---------------------------------------------------------------------------
# non-Hamiltonian-cycle certificates (cycle edges read from Marks inputs)
#
# An input encodes a Hamiltonian cycle when every node marks exactly two
# neighbours, every mark is reciprocated, and the marked edges form one cycle.
# The defects mirror the non-spanning-tree flags: a node whose marks are not a
# reciprocated pair, or marked edges split into several cycles.


def mutual_pair(where: Instance | BallView,
                v: int) -> Optional[tuple[int, int]]:
    """The two nodes v marks, in identity order, when both marks are
    reciprocated.  ``where`` is a whole instance or a ball that holds v
    and its neighbours; both read marks the same way."""
    x = where.input_of(v)
    if not isinstance(x, Marks) or len(x.ids) != 2:
        return None
    vid = where.id_of(v)
    out = []
    for ident in sorted(x.ids):
        w = where.node_of(ident)
        if w is None:
            return None
        back = where.input_of(w)
        if not isinstance(back, Marks) or vid not in back.ids:
            return None
        out.append(w)
    return out[0], out[1]


def build_non_hamiltonian_cert(instance: Instance) -> Labelling:
    n = instance.n
    pairs = [mutual_pair(instance, v) for v in range(n)]
    defective = [v for v in range(n) if pairs[v] is None]
    if defective:
        tree = honest_tree(instance, min(defective, key=instance.id_of))
        return Labelling(NonHamCert(0, 1, *tree[v], *tree[v]) for v in range(n))

    # Reciprocated pairs everywhere: the marked edges split V into cycles.
    idx, tree1, tree2 = _split_certs(
        instance, [(v, w) for v in range(n) for w in pairs[v]],
        "marks encode a Hamiltonian cycle; no defect to certify")
    return Labelling(NonHamCert(1, idx[v], *tree1[v], *tree2[v]) for v in range(n))


_READ_NONHAM1 = tree_reader(NonHamCert, "root1", "parent1", "dist1")
_READ_NONHAM2 = tree_reader(NonHamCert, "root2", "parent2", "dist2")


def verify_non_hamiltonian_cert(ball: BallView) -> bool:
    own = uniform(ball, NonHamCert, "flag")
    if own is None or not tree_ok(ball, 0, _READ_NONHAM1):
        return False

    if own.flag == 0:
        if own.parent1 is None:
            # Claimed defective: own marks must not be a reciprocated pair.
            return mutual_pair(ball, ball.centre) is None
        return True

    marked = mutual_pair(ball, ball.centre)
    if marked is None:
        return False
    return _split_ok(ball, own, _READ_NONHAM2, marked)
