"""Deterministic builders for the standard test graphs and formulas."""
from __future__ import annotations

import random
from typing import Optional

from .formulas import Formula
from .graphs import Edge, Graph


def path_graph(n: int) -> Graph:
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 nodes")
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)) | {(0, n - 1)})


def clique_graph(n: int) -> Graph:
    return Graph(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n)))


def star_graph(n: int) -> Graph:
    return Graph(n, frozenset((0, v) for v in range(1, n)))


def grid_graph(rows: int, cols: int) -> Graph:
    def at(r: int, c: int) -> int:
        return r * cols + c
    edges: set[Edge] = set()
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.add((at(r, c), at(r, c + 1)))
            if r + 1 < rows:
                edges.add((at(r, c), at(r + 1, c)))
    return Graph(rows * cols, frozenset(edges))


EXTRA_EDGE_PROB = 0.3  # chance of each non-tree edge in a random graph


def random_connected_graph(n: int, seed: int) -> Graph:
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    edges: set[Edge] = set()
    for i in range(1, n):
        a, b = order[i], order[rng.randrange(i)]
        edges.add((a, b) if a < b else (b, a))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < EXTRA_EDGE_PROB:
                edges.add((u, v))
    return Graph(n, frozenset(edges))


def with_random_weights(graph: Graph, seed: int, hi: Optional[int] = None) -> Graph:
    rng = random.Random(seed)
    top = graph.n if hi is None else hi
    return Graph(graph.n, graph.edges,
                 {e: rng.randint(1, max(1, top)) for e in sorted(graph.edges)})


def random_formula(seed: int, max_vars: int = 4, max_clauses: int = 3,
                   k: int = 2) -> Formula:
    rng = random.Random(seed)
    nv = rng.randint(max(1, k), max_vars)
    names = [f"y{i + 1}" for i in range(nv)]
    # Cut the variable list into k non-empty blocks.
    cuts = sorted(rng.sample(range(1, nv), k - 1)) if k > 1 else []
    bounds = [0, *cuts, nv]
    blocks = tuple(tuple(names[bounds[i]:bounds[i + 1]]) for i in range(k))
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        width = rng.randint(1, min(3, nv))
        chosen = rng.sample(names, width)
        clauses.append(frozenset((v, rng.choice((1, -1))) for v in chosen))
    return Formula(blocks, tuple(clauses))
