"""Certificate builders and their verifier fragments.

Each scheme pairs a constructive builder (instance + witness object ->
labelling) with a radius-1 verification fragment (ball -> bool).  Verifier
fragments never raise on malformed content: anything that fails to parse is
rejected at the node that sees it.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional, Sequence

from .graphs import BallView, Edge, Instance, Marks, Ptr
from .labels import (GatherCert, HamCert, Labelling, NonHamCert, NSTCert,
                     SizeCert, TreeCert, build_bfs_tree)
from .oracles import oracle_spanning_tree

GATHER_OPS = ("sum", "min", "max")


class SchemeError(ValueError):
    """Raised when a builder is handed a witness that does not fit."""


# ---------------------------------------------------------------------------
# shared helpers


def build_bfs_spanning_tree(instance: Instance) -> tuple[frozenset[Edge], int]:
    """BFS spanning tree from the smallest-identity node, with its root."""
    root = min(range(instance.n), key=instance.id_of)
    t = build_bfs_tree(instance, root)
    edges = frozenset((min(v, p), max(v, p))
                      for v, p in enumerate(t.parent) if p is not None)
    return edges, root


def _tree_in_subgraph(instance: Instance, edges: frozenset[Edge], root: int):
    """Parent/distance arrays for the tree formed by ``edges``, rooted at root."""
    n = instance.n
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent: list[Optional[int]] = [None] * n
    dist = [-1] * n
    dist[root] = 0
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in sorted(adj[v], key=instance.id_of):
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                parent[w] = v
                queue.append(w)
    return parent, dist


_MALFORMED = object()


def _cert_tree_ok(ball: BallView, triple: Callable[[int], object]) -> bool:
    """Root/parent/distance checks for a tree certificate carried in a layer.

    ``triple(v)`` yields (root, parent, dist) or _MALFORMED.  The parent field
    is read from the certificate itself.
    """
    own = triple(ball.centre)
    if own is _MALFORMED:
        return False
    r, p, d = own
    for w in ball.neighbours(ball.centre):
        other = triple(w)
        if other is _MALFORMED or other[0] != r:
            return False
    if p is None:
        return d == 0 and ball.own_id == r
    target = ball.node_of(p)
    if target is None or not ball.has_edge(ball.centre, target):
        return False
    return triple(target)[2] == d - 1


# ---------------------------------------------------------------------------
# spanning-tree certificates (parent read from the input pointer)


def build_spanning_tree_cert(instance: Instance, tree: frozenset[Edge],
                             root: int) -> Labelling:
    if not oracle_spanning_tree(instance.graph, tree):
        raise SchemeError("edge set is not a spanning tree")
    parent, dist = _tree_in_subgraph(instance, tree, root)
    rid = instance.id_of(root)
    return Labelling(
        TreeCert(rid, None if parent[v] is None else instance.id_of(parent[v]), dist[v])
        for v in range(instance.n))


def verify_spanning_tree_cert(ball: BallView) -> bool:
    own = ball.own_label(0)
    if not isinstance(own, TreeCert):
        return False
    for w in ball.neighbours(ball.centre):
        other = ball.label(0, w)
        if not isinstance(other, TreeCert) or other.root != own.root:
            return False
    x = ball.own_input
    if not isinstance(x, Ptr):
        return False
    if x.to is None:
        return own.dist == 0 and ball.own_id == own.root
    if own.dist == 0:
        return False
    target = ball.node_of(x.to)
    if target is None:
        return False
    claimed = ball.label(0, target)
    return isinstance(claimed, TreeCert) and claimed.dist == own.dist - 1


# ---------------------------------------------------------------------------
# size certificates


def build_size_cert(instance: Instance, tree: frozenset[Edge], root: int) -> Labelling:
    if not oracle_spanning_tree(instance.graph, tree):
        raise SchemeError("edge set is not a spanning tree")
    parent, dist = _tree_in_subgraph(instance, tree, root)
    size = [1] * instance.n
    for v in sorted(range(instance.n), key=dist.__getitem__, reverse=True):
        if parent[v] is not None:
            size[parent[v]] += size[v]
    rid = instance.id_of(root)
    return Labelling(
        SizeCert(rid, None if parent[v] is None else instance.id_of(parent[v]), size[v])
        for v in range(instance.n))


def verify_size_cert(ball: BallView) -> bool:
    own = ball.own_label(0)
    x = ball.own_input
    if not isinstance(own, SizeCert) or not isinstance(x, int):
        return False
    for w in ball.neighbours(ball.centre):
        other = ball.label(0, w)
        if not isinstance(other, SizeCert) or other.root != own.root:
            return False
        if ball.input_of(w) != x:
            return False
    if own.parent is None:
        if ball.own_id != own.root or own.size != x:
            return False
    else:
        target = ball.node_of(own.parent)
        if target is None or not ball.has_edge(ball.centre, target):
            return False
    total = 1
    for w in ball.neighbours(ball.centre):
        if ball.label(0, w).parent == ball.own_id:
            total += ball.label(0, w).size
    return own.size == total


# ---------------------------------------------------------------------------
# gathering certificates


def _combine(op: str, own_value: int, child_aggs: Sequence[int]) -> int:
    if op == "sum":
        return own_value + sum(child_aggs)
    if op == "min":
        return min([own_value, *child_aggs])
    return max([own_value, *child_aggs])


def build_gathering_cert(instance: Instance, tree: frozenset[Edge], root: int,
                         values: Sequence[int], op: str) -> Labelling:
    if op not in GATHER_OPS:
        raise SchemeError(f"unknown aggregation op {op!r}")
    if not oracle_spanning_tree(instance.graph, tree):
        raise SchemeError("edge set is not a spanning tree")
    values = tuple(values)
    if len(values) != instance.n:
        raise SchemeError("one value per node required")
    cap = 2 * instance.N * instance.n
    for v, val in enumerate(values):
        if not isinstance(val, int) or not 0 <= val <= cap:
            raise SchemeError(f"value {val!r} at node {v} outside [0, {cap}]")
    if op == "sum" and sum(values) > cap:
        raise SchemeError(f"aggregate {sum(values)} exceeds the certifiable cap {cap}")
    parent, dist = _tree_in_subgraph(instance, tree, root)
    agg = list(values)
    order = sorted(range(instance.n), key=dist.__getitem__, reverse=True)
    kids: list[list[int]] = [[] for _ in range(instance.n)]
    for v in range(instance.n):
        if parent[v] is not None:
            kids[parent[v]].append(v)
    for v in order:
        agg[v] = _combine(op, values[v], [agg[w] for w in kids[v]])
    rid = instance.id_of(root)
    return Labelling(
        GatherCert(rid, None if parent[v] is None else instance.id_of(parent[v]),
                   dist[v], agg[v])
        for v in range(instance.n))


def verify_gathering_cert(ball: BallView, op: str,
                          value_of: Callable[[BallView], int],
                          at_root: Callable[[int], bool]) -> bool:
    def triple(v: int):
        val = ball.label(0, v)
        return (val.root, val.parent, val.dist) if isinstance(val, GatherCert) \
            else _MALFORMED

    if not _cert_tree_ok(ball, triple):
        return False
    own = ball.own_label(0)
    try:
        value = value_of(ball)
    except (ValueError, TypeError, KeyError):
        return False
    child_aggs = [ball.label(0, w).agg for w in ball.neighbours(ball.centre)
                  if ball.label(0, w).parent == ball.own_id]
    if own.agg != _combine(op, value, child_aggs):
        return False
    return own.parent is not None or bool(at_root(own.agg))


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
    tree = build_bfs_tree(instance, root)
    rid = instance.id_of(root)
    return Labelling(
        HamCert(rid, None if tree.parent[v] is None else instance.id_of(tree.parent[v]),
                tree.dist[v], pos[v])
        for v in range(instance.n))


def _marked_nodes(ball: BallView, v: int) -> Optional[list[int]]:
    """The two cycle-neighbours of v per its Marks input, if well formed."""
    x = ball.input_of(v)
    if not isinstance(x, Marks) or len(x.ids) != 2:
        return None
    out = []
    for ident in sorted(x.ids):
        w = ball.node_of(ident)
        if w is None:
            return None
        out.append(w)
    return out


def verify_hamiltonian_cert(ball: BallView) -> bool:
    def triple(v: int):
        val = ball.label(0, v)
        return (val.root, val.parent, val.dist) if isinstance(val, HamCert) \
            else _MALFORMED

    if not _cert_tree_ok(ball, triple):
        return False
    own = ball.own_label(0)
    marked = _marked_nodes(ball, ball.centre)
    if marked is None:
        return False
    for w in marked:
        # Cycle edges must be marked symmetrically.
        back = ball.input_of(w)
        if not isinstance(back, Marks) or ball.own_id not in back.ids:
            return False
        if not isinstance(ball.label(0, w), HamCert):
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


def _pointer_structure(instance: Instance) -> tuple[list[Optional[int]], frozenset[Edge]]:
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


def _components(n: int, adj: Sequence[Sequence[int]]) -> list[list[int]]:
    comp: list[list[int]] = []
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        group = []
        queue = [start]
        seen[start] = True
        while queue:
            v = queue.pop()
            group.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        comp.append(sorted(group))
    return comp


def _tree_fields(instance: Instance, root: int) -> list[tuple]:
    t = build_bfs_tree(instance, root)
    return [(instance.id_of(root),
             None if t.parent[v] is None else instance.id_of(t.parent[v]),
             t.dist[v]) for v in range(instance.n)]


def build_non_spanning_tree_cert(instance: Instance,
                                 fset: frozenset[Edge]) -> Labelling:
    n = instance.n
    targets, pointer_edges = _pointer_structure(instance)
    if frozenset(fset) != pointer_edges:
        raise SchemeError("edge set disagrees with the pointer inputs")

    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in pointer_edges:
        adj[u].append(v)
        adj[v].append(u)

    unspanned = [v for v in range(n) if not adj[v]]
    if unspanned and n > 1:
        root = min(unspanned, key=instance.id_of)
        tree = _tree_fields(instance, root)
        return Labelling(NSTCert(0, 1, *tree[v], None, None, *tree[v])
                         for v in range(n))

    cycle = _pointer_cycle(instance, targets)
    if cycle is not None:
        root = cycle[0]
        cpos: list[Optional[int]] = [None] * n
        for i, v in enumerate(cycle):
            cpos[v] = i
        tree = _tree_fields(instance, root)
        return Labelling(NSTCert(1, 1, *tree[v], cpos[v], len(cycle), *tree[v])
                         for v in range(n))

    comps = _components(n, adj)
    if len(comps) < 2:
        raise SchemeError("pointer inputs encode a spanning tree; no defect to certify")
    comps.sort(key=lambda group: min(instance.id_of(v) for v in group))
    idx = [0] * n
    for i, group in enumerate(comps):
        for v in group:
            idx[v] = i + 1
    root1 = min(comps[0], key=instance.id_of)
    root2 = min(comps[1], key=instance.id_of)
    tree1 = _tree_fields(instance, root1)
    tree2 = _tree_fields(instance, root2)
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


def verify_non_spanning_tree_cert(ball: BallView) -> bool:
    own = ball.own_label(0)
    if not isinstance(own, NSTCert):
        return False
    for w in ball.neighbours(ball.centre):
        other = ball.label(0, w)
        if not isinstance(other, NSTCert) or other.flag != own.flag:
            return False

    def triple1(v: int):
        val = ball.label(0, v)
        return (val.root1, val.parent1, val.dist1) if isinstance(val, NSTCert) \
            else _MALFORMED

    def triple2(v: int):
        val = ball.label(0, v)
        return (val.root2, val.parent2, val.dist2) if isinstance(val, NSTCert) \
            else _MALFORMED

    if not _cert_tree_ok(ball, triple1):
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

    if not _cert_tree_ok(ball, triple2):
        return False
    if own.parent1 is None and own.idx != 1:
        return False
    if own.parent2 is None and own.idx != 2:
        return False
    return all(ball.label(0, w).idx == own.idx for w in fnbrs)


# ---------------------------------------------------------------------------
# non-Hamiltonian-cycle certificates (cycle edges read from Marks inputs)
#
# An input encodes a Hamiltonian cycle when every node marks exactly two
# neighbours, every mark is reciprocated, and the marked edges form one cycle.
# The defects mirror the non-spanning-tree flags: a node whose marks are not a
# reciprocated pair, or marked edges split into several cycles.


def _mutual_pair(instance: Instance, v: int) -> Optional[tuple[int, int]]:
    """The two nodes v marks, when both marks are reciprocated."""
    x = instance.input_of(v)
    if not isinstance(x, Marks) or len(x.ids) != 2:
        return None
    vid = instance.id_of(v)
    out = []
    for ident in sorted(x.ids):
        w = instance.node_of(ident)
        if w is None:
            return None
        back = instance.input_of(w)
        if not isinstance(back, Marks) or vid not in back.ids:
            return None
        out.append(w)
    return out[0], out[1]


def build_non_hamiltonian_cert(instance: Instance) -> Labelling:
    n = instance.n
    pairs = [_mutual_pair(instance, v) for v in range(n)]
    defective = [v for v in range(n) if pairs[v] is None]
    if defective:
        root = min(defective, key=instance.id_of)
        tree = _tree_fields(instance, root)
        return Labelling(NonHamCert(0, 1, *tree[v], *tree[v]) for v in range(n))

    # Reciprocated pairs everywhere: the marked edges split V into cycles.
    comps = _components(n, [list(pairs[v]) for v in range(n)])
    if len(comps) < 2:
        raise SchemeError("marks encode a Hamiltonian cycle; no defect to certify")
    comps.sort(key=lambda group: min(instance.id_of(v) for v in group))
    idx = [0] * n
    for i, group in enumerate(comps):
        for v in group:
            idx[v] = i + 1
    root1 = min(comps[0], key=instance.id_of)
    root2 = min(comps[1], key=instance.id_of)
    tree1 = _tree_fields(instance, root1)
    tree2 = _tree_fields(instance, root2)
    return Labelling(NonHamCert(1, idx[v], *tree1[v], *tree2[v]) for v in range(n))


def _mutual_marks(ball: BallView, v: int) -> Optional[list[int]]:
    """Like _marked_nodes, but every mark must be reciprocated."""
    marked = _marked_nodes(ball, v)
    if marked is None:
        return None
    vid = ball.id_of(v)
    for w in marked:
        back = ball.input_of(w)
        if not isinstance(back, Marks) or vid not in back.ids:
            return None
    return marked


def verify_non_hamiltonian_cert(ball: BallView) -> bool:
    own = ball.own_label(0)
    if not isinstance(own, NonHamCert):
        return False
    for w in ball.neighbours(ball.centre):
        other = ball.label(0, w)
        if not isinstance(other, NonHamCert) or other.flag != own.flag:
            return False

    def triple1(v: int):
        val = ball.label(0, v)
        return (val.root1, val.parent1, val.dist1) if isinstance(val, NonHamCert) \
            else _MALFORMED

    def triple2(v: int):
        val = ball.label(0, v)
        return (val.root2, val.parent2, val.dist2) if isinstance(val, NonHamCert) \
            else _MALFORMED

    if not _cert_tree_ok(ball, triple1):
        return False

    if own.flag == 0:
        if own.parent1 is None:
            # Claimed defective: own marks must not be a reciprocated pair.
            return _mutual_marks(ball, ball.centre) is None
        return True

    marked = _mutual_marks(ball, ball.centre)
    if marked is None:
        return False
    if not _cert_tree_ok(ball, triple2):
        return False
    if own.parent1 is None and own.idx != 1:
        return False
    if own.parent2 is None and own.idx != 2:
        return False
    return all(ball.label(0, w).idx == own.idx for w in marked)
