"""Centralized ground-truth computations for test-scale instances.

Everything here is global and exhaustive on purpose: these functions
are the reference answers that the local machinery is measured
against, so they favour the most direct enumeration that fits the
size guards.
"""
from __future__ import annotations

from functools import cache
from itertools import combinations, permutations, product
from typing import Collection, Iterable, Iterator, Optional

from .formulas import Formula
from .graphs import Edge, Graph, norm_edge


# ---------------------------------------------------------------- trees

def components(n: int, edges: Iterable[Edge]) -> list[list[int]]:
    """Connected components of the graph on nodes 0..n-1 with these
    edges, each in node order, ordered by their smallest node."""
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for (u, v) in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return list(groups.values())


def _spans(n: int, edges: Collection[Edge]) -> bool:
    """Do the edges form a spanning tree: n - 1 edges and one component?"""
    return len(edges) == n - 1 and len(components(n, edges)) == 1


def oracle_spanning_tree(graph: Graph, fset: frozenset[Edge]) -> bool:
    for (u, v) in fset:
        if not graph.has_edge(u, v):
            raise ValueError(f"edge {(u, v)} not in the graph")
    return _spans(graph.n, fset)


def spanning_trees(graph: Graph) -> Iterator[frozenset[Edge]]:
    if graph.n == 1:
        yield frozenset()
        return
    for combo in combinations(sorted(graph.edges), graph.n - 1):
        if _spans(graph.n, combo):
            yield frozenset(combo)


# ---------------------------------------------------------------- cycles

def simple_cycles(graph: Graph) -> list[tuple[int, ...]]:
    """All simple cycles of length >= 3, each once.

    A cycle comes back as a node tuple starting at its smallest node;
    of the two directions the one with the smaller second node is kept.
    """
    out: list[tuple[int, ...]] = []
    for start in range(graph.n):
        stack: list[tuple[int, ...]] = [(start,)]
        while stack:
            path = stack.pop()
            for w in graph.neighbours(path[-1]):
                if w == start and len(path) >= 3:
                    if path[1] < path[-1]:
                        out.append(path)
                elif w > start and w not in path:
                    stack.append(path + (w,))
    out.sort()
    return out


def hamiltonian_cycles(graph: Graph) -> list[tuple[int, ...]]:
    return [c for c in simple_cycles(graph) if len(c) == graph.n]


def cycle_node_sets(graph: Graph) -> list[frozenset[int]]:
    return sorted(set(frozenset(c) for c in simple_cycles(graph)), key=sorted)


def cycle_vc_witness(graph: Graph, k: int) -> Optional[frozenset[int]]:
    """The first X with |X| >= k such that every S inside X lies on a
    cycle that avoids the rest of X, or None.  Sizes run upwards from k and
    each size in ``combinations`` order; the empty S asks for nothing, so
    k = 0 gives the empty set."""
    if k < 0:
        raise ValueError("k must be >= 0")
    cycles = cycle_node_sets(graph)
    for r in range(k, graph.n + 1):
        for xs in combinations(range(graph.n), r):
            xset = frozenset(xs)
            if all(any(sset <= c and not (xset - sset) & c for c in cycles)
                   for m in range(1, r + 1)
                   for sset in map(frozenset, combinations(xs, m))):
                return xset
    return None


def oracle_cycle_vc(graph: Graph, k: int) -> bool:
    """Is there an X with |X| >= k such that every S inside X lies on a
    cycle that avoids the rest of X?"""
    return cycle_vc_witness(graph, k) is not None


# ---------------------------------------------------------------- matchings

def is_matching(edges: frozenset[Edge]) -> bool:
    seen: set[int] = set()
    for (u, v) in edges:
        if u in seen or v in seen:
            return False
        seen.add(u)
        seen.add(v)
    return True


# ---------------------------------------------------------------- symmetry

def oracle_automorphisms(graph: Graph) -> list[tuple[int, ...]]:
    if graph.n > 8:
        raise ValueError("automorphism search is capped at 8 nodes")
    return [perm for perm in permutations(range(graph.n))
            if all(graph.has_edge(perm[u], perm[v]) for (u, v) in graph.edges)]


def has_nontrivial_automorphism(graph: Graph) -> bool:
    ident = tuple(range(graph.n))
    return any(p != ident for p in oracle_automorphisms(graph))


# ---------------------------------------------------------------- formulas

def oracle_qbf(formula: Formula) -> bool:
    names = formula.variables()
    if len(names) > 12:
        raise ValueError("qbf evaluation is capped at 12 variables")
    val: dict[str, bool] = {}

    def clause_true(cl: frozenset) -> bool:
        return any(val[v] == (s > 0) for (v, s) in cl)

    def go(bi: int) -> bool:
        if bi == len(formula.blocks):
            return all(clause_true(cl) for cl in formula.clauses)
        exist = bi % 2 == 0
        block = formula.blocks[bi]
        for bits in product((False, True), repeat=len(block)):
            for v, b in zip(block, bits):
                val[v] = b
            r = go(bi + 1)
            if r == exist:
                return exist
        return not exist

    return go(0)


# ------------------------------------------------------- graph enumeration

def connected_graphs(n: int) -> Iterator[Graph]:
    """Every connected graph on nodes 0..n-1, one per labelled edge set."""
    all_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(all_edges)):
        chosen = [e for i, e in enumerate(all_edges) if mask >> i & 1]
        if len(components(n, chosen)) == 1:
            yield Graph(n, frozenset(chosen))


@cache
def iso_representatives(n: int) -> tuple[Graph, ...]:
    """One connected graph per isomorphism class, smallest labelling first."""
    perms = list(permutations(range(n)))
    seen: set[frozenset[Edge]] = set()
    reps: list[Graph] = []
    for g in connected_graphs(n):
        canon = min(
            (frozenset(norm_edge(p[u], p[v]) for (u, v) in g.edges) for p in perms),
            key=sorted)
        if canon not in seen:
            seen.add(canon)
            reps.append(Graph(n, canon))
    reps.sort(key=lambda g: (len(g.edges), sorted(g.edges)))
    return tuple(reps)
