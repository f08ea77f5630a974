"""Shared builders for the test suite."""
from __future__ import annotations

import random

from locdec.formulas import parse_formula
from locdec.gen import clique_graph, cycle_graph, path_graph
from locdec.graphs import (Graph, IdAssignment, InputAssignment, Instance,
                           Marks, Ptr)
from locdec.labels import Labelling
from locdec.protocols.qbf import encode_qbf


def default_ids(n: int) -> IdAssignment:
    """Identities 1..n out of N = n * n (at least 1)."""
    return IdAssignment(tuple(range(1, n + 1)), max(1, n * n))


def with_label(labelling, v: int, value: object) -> Labelling:
    """``labelling`` with node ``v`` relabelled ``value``."""
    return Labelling(value if u == v else x for u, x in enumerate(labelling))


def plain_instance(graph: Graph, ids: IdAssignment | None = None) -> Instance:
    return Instance(graph,
                    ids if ids is not None else default_ids(graph.n),
                    InputAssignment((None,) * graph.n))


def asymmetric6() -> Graph:
    # Five-node path with a pendant attached to its second and third nodes.
    return Graph(6, frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (2, 5)}))


def id_variants(n: int, seed: int = 0) -> list[IdAssignment]:
    """Three distinct identity assignments for the same n nodes."""
    N = max(n * n, 3)  # even a single node gets three choices
    first = IdAssignment(tuple(range(1, n + 1)), N)
    second = IdAssignment(tuple(range(N, N - n, -1)), N)
    rng = random.Random(seed)
    while True:
        sampled = tuple(rng.sample(range(1, N + 1), n))
        if sampled not in (first.ids, second.ids):
            break
    third = IdAssignment(sampled, N)
    return [first, second, third]


def p3() -> Graph:
    return path_graph(3)

def c4() -> Graph:
    return cycle_graph(4)

def k4() -> Graph:
    return clique_graph(4)


# Transformed protocols that the sweeps over ``protocols.names()`` add.
TRANSFORMS = ("lift:3col", "unanimous:spanning-tree+non-spanning-tree",
              "collapse:qbf")


def small_instances(name: str) -> list[Instance]:
    """Three-node instances, inside and outside the language where the
    inputs allow both, whose inputs the protocol reads as intended."""
    if name.endswith("qbf"):
        return [encode_qbf(parse_formula(f"Ey1 Ay2: (y1 | y2) & ({c} | y2)"))
                for c in ("y1", "~y1")]
    graphs = [path_graph(3), clique_graph(3)]
    tree, two_roots = (Ptr(None), Ptr(1), Ptr(2)), (Ptr(None), Ptr(1), Ptr(None))
    if name in ("mst", "tsp"):
        weights = {(0, 1): 1, (0, 2): 2, (1, 2): 3}
        graphs = [Graph(3, frozenset(weights), weights)]
    inputs = {
        "3col": [(1, 2, 1), (1, 1, 2)], "lift:3col": [(1, 2, 1), (1, 1, 2)],
        "size": [(3, 3, 3), (4, 3, 3)], "cycle-vc": [(2, 2, 2), (1, 1, 1)],
        "matching": [(Ptr(2), Ptr(1), Ptr(None)), (Ptr(None),) * 3],
        "mst": [(Ptr(None), Ptr(1), Ptr(1)), tree],
        "tsp": [(Marks({2, 3}), Marks({1, 3}), Marks({1, 2})),
                (Marks({2}), Marks({1}), Marks(()))],
        "nta": [(None,) * 3],
    }.get(name, [(1, 0, 1), (0, 1, 1)] if name in ("mis", "mds", "maxcut", "mincut")
          else [tree, two_roots])
    return [Instance(g, IdAssignment((1, 2, 3), 9), InputAssignment(x))
            for g in graphs for x in inputs]
