"""Centralized ground truth: frozen answers and self-consistency."""
from __future__ import annotations

from itertools import combinations, product

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import asymmetric6, c4, k4, p3, plain_instance
from locdec.formulas import parse_formula
from locdec.gen import cycle_graph, path_graph, with_random_weights
from locdec.graphs import Graph, IdAssignment, InputAssignment, Instance, Ptr
from locdec.oracles import (
    components, connected_graphs, hamiltonian_cycles,
    has_nontrivial_automorphism, is_matching, iso_representatives,
    oracle_automorphisms, oracle_cycle_vc, oracle_qbf, oracle_spanning_tree,
    simple_cycles, spanning_trees,
)
from locdec.protocols.basic import spanning_tree_inputs

from reference import (cut_size, is_dominating, is_independent,
                       oracle_max_cut, oracle_max_independent,
                       oracle_max_matching, oracle_min_cut,
                       oracle_min_dominating, oracle_mst_weight,
                       oracle_tsp_weight, subsets)


TRIANGLE = cycle_graph(3)


def test_spanning_tree_frozen():
    assert oracle_spanning_tree(TRIANGLE, frozenset({(0, 1), (1, 2)}))
    assert not oracle_spanning_tree(TRIANGLE, frozenset(TRIANGLE.edges))
    p4 = path_graph(4)
    assert not oracle_spanning_tree(p4, frozenset({(0, 1), (2, 3)}))
    with pytest.raises(ValueError, match="not in the graph"):
        oracle_spanning_tree(p4, frozenset({(0, 3)}))


def test_spanning_tree_agrees_with_definition():
    # Cross-check against a direct reachability computation on every subset.
    for n in range(1, 5):
        for g in iso_representatives(n):
            for r in range(len(g.edges) + 1):
                for combo in combinations(sorted(g.edges), r):
                    expected = (len(combo) == g.n - 1
                                and _reaches_all(g.n, combo))
                    assert oracle_spanning_tree(g, frozenset(combo)) == expected


def _reaches_all(n, edges):
    seen = {0}
    changed = True
    while changed:
        changed = False
        for (u, v) in edges:
            if (u in seen) != (v in seen):
                seen |= {u, v}
                changed = True
    return len(seen) == n


@st.composite
def edge_subsets(draw):
    """n in 1..8 and any subset of the complete graph's edges on n nodes."""
    n = draw(st.integers(1, 8))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return n, [e for i, e in enumerate(pairs) if mask >> i & 1]


@settings(deadline=None)
@given(edge_subsets())
def test_components_match_networkx(case):
    n, edges = case
    reference = nx.Graph()
    reference.add_nodes_from(range(n))
    reference.add_edges_from(edges)
    groups = components(n, edges)
    assert all(group == sorted(group) for group in groups)
    assert {frozenset(group) for group in groups} \
        == {frozenset(c) for c in nx.connected_components(reference)}


def test_spanning_tree_counts():
    assert len(list(spanning_trees(TRIANGLE))) == 3
    assert len(list(spanning_trees(c4()))) == 4
    assert len(list(spanning_trees(k4()))) == 16
    assert list(spanning_trees(Graph(1, frozenset()))) == [frozenset()]


def test_mst_frozen():
    t = Graph(3, frozenset({(0, 1), (0, 2), (1, 2)}),
              {(0, 1): 1, (0, 2): 2, (1, 2): 3})
    assert oracle_mst_weight(t) == 3
    single = Graph(2, frozenset({(0, 1)}), {(0, 1): 5})
    assert oracle_mst_weight(single) == 5
    p = Graph(3, frozenset({(0, 1), (1, 2)}), {(0, 1): 2, (1, 2): 2})
    assert oracle_mst_weight(p) == 4


def test_mst_self_consistent():
    for n in range(2, 6):
        for i, g in enumerate(iso_representatives(n)):
            w = with_random_weights(g, seed=100 + i)
            best = min(sum(w.weight(u, v) for (u, v) in t)
                       for t in spanning_trees(w))
            assert oracle_mst_weight(w) == best


def test_automorphism_frozen():
    assert len(oracle_automorphisms(path_graph(2))) == 2
    assert len(oracle_automorphisms(TRIANGLE)) == 6
    assert oracle_automorphisms(asymmetric6()) == [tuple(range(6))]
    assert not has_nontrivial_automorphism(asymmetric6())
    assert has_nontrivial_automorphism(c4())


def _automorphisms_by_product(graph: Graph) -> list[tuple[int, ...]]:
    """The reference: every n-tuple over the nodes, kept when it is a
    bijection that maps edges to edges."""
    return [perm for perm in product(range(graph.n), repeat=graph.n)
            if len(set(perm)) == graph.n
            and all(graph.has_edge(perm[u], perm[v]) for (u, v) in graph.edges)]


def test_automorphisms_equal_the_product_filter_in_order():
    graphs = [g for n in range(1, 6) for g in iso_representatives(n)]
    for g in graphs + [asymmetric6(), cycle_graph(6)]:
        assert oracle_automorphisms(g) == _automorphisms_by_product(g)
    assert len(oracle_automorphisms(cycle_graph(6))) == 12


def test_automorphism_group_laws():
    for n in range(1, 5):
        for g in iso_representatives(n):
            perms = set(oracle_automorphisms(g))
            ident = tuple(range(n))
            assert ident in perms
            for p in perms:
                inv = tuple(sorted(range(n), key=lambda v: p[v]))
                assert inv in perms
                for q in perms:
                    assert tuple(p[q[v]] for v in range(n)) in perms


def test_qbf_frozen():
    assert oracle_qbf(parse_formula("∃y:(y)"))
    assert not oracle_qbf(parse_formula("∃y:(y)∧(¬y)"))
    assert oracle_qbf(parse_formula("∃y1∀y2:(y1∨y2)∧(y1∨¬y2)"))
    assert not oracle_qbf(parse_formula("∃y1∀y2:(y2)"))
    assert oracle_qbf(parse_formula("∃y1∀y2∃y3:(y2∨y3)∧(¬y2∨¬y3)"))


def test_cycles_frozen():
    assert simple_cycles(p3()) == []
    assert simple_cycles(TRIANGLE) == [(0, 1, 2)]
    assert simple_cycles(c4()) == [(0, 1, 2, 3)]
    assert len(simple_cycles(k4())) == 7  # four triangles, three squares
    assert hamiltonian_cycles(c4()) == [(0, 1, 2, 3)]
    assert len(hamiltonian_cycles(k4())) == 3
    assert hamiltonian_cycles(p3()) == []


def test_tsp_frozen():
    t = Graph(3, frozenset({(0, 1), (0, 2), (1, 2)}),
              {(0, 1): 1, (0, 2): 2, (1, 2): 3})
    assert oracle_tsp_weight(t) == 6
    sq = Graph(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}),
               {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): 1})
    assert oracle_tsp_weight(sq) == 4
    assert oracle_tsp_weight(with_random_weights(path_graph(3), 1)) is None


def test_cycle_vc_frozen():
    assert oracle_cycle_vc(p3(), 0)
    assert not oracle_cycle_vc(p3(), 1)
    assert oracle_cycle_vc(TRIANGLE, 1)
    assert not oracle_cycle_vc(TRIANGLE, 2)
    assert oracle_cycle_vc(c4(), 1)
    assert not oracle_cycle_vc(c4(), 2)
    # Chorded square: X = the two degree-2 corners.  Each corner alone lies
    # on its own triangle, and the outer square carries both at once.
    diamond = Graph(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)}))
    assert oracle_cycle_vc(diamond, 2)
    assert not oracle_cycle_vc(diamond, 3)
    # Two triangles sharing a node: no cycle carries one corner of each.
    bowtie = Graph(5, frozenset({(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)}))
    assert oracle_cycle_vc(bowtie, 1)
    assert not oracle_cycle_vc(bowtie, 2)


def test_set_problem_frozen():
    assert oracle_max_independent(p3()) == 2
    assert oracle_max_independent(c4()) == 2
    assert oracle_max_independent(k4()) == 1
    assert oracle_min_dominating(p3()) == 1
    assert oracle_min_dominating(c4()) == 2
    assert oracle_min_dominating(k4()) == 1
    assert oracle_max_matching(p3()) == 1
    assert oracle_max_matching(c4()) == 2
    assert oracle_max_matching(k4()) == 2
    assert oracle_max_cut(p3()) == 2
    assert oracle_max_cut(c4()) == 4
    assert oracle_max_cut(k4()) == 4
    assert oracle_min_cut(p3()) == 0
    assert oracle_min_cut(k4()) == 0


def test_set_problem_predicates():
    g = c4()
    assert is_independent(g, frozenset({0, 2}))
    assert not is_independent(g, frozenset({0, 1}))
    assert is_dominating(g, frozenset({0, 2}))
    assert not is_dominating(g, frozenset({0}))
    assert is_matching(frozenset({(0, 1), (2, 3)}))
    assert not is_matching(frozenset({(0, 1), (1, 2)}))
    assert cut_size(g, frozenset({0, 2})) == 4
    assert cut_size(g, frozenset()) == 0
    assert len(list(subsets(3))) == 8


def test_spanning_tree_inputs():
    inst = plain_instance(p3())
    assert spanning_tree_inputs(inst.with_inputs([Ptr(2), Ptr(None), Ptr(2)]))
    assert not spanning_tree_inputs(
        inst.with_inputs([Ptr(None), Ptr(1), Ptr(None)]))
    assert not spanning_tree_inputs(inst.with_inputs([None, Ptr(None), Ptr(2)]))
    tri = plain_instance(TRIANGLE)
    assert not spanning_tree_inputs(tri.with_inputs([Ptr(2), Ptr(3), Ptr(1)]))
    one = Instance(Graph(1, frozenset()), IdAssignment((1,), 1),
                   InputAssignment((Ptr(None),)))
    assert spanning_tree_inputs(one)


def test_graph_enumeration_counts():
    labelled = [len(list(connected_graphs(n))) for n in range(1, 5)]
    assert labelled == [1, 1, 4, 38]
    reps = [len(iso_representatives(n)) for n in range(1, 6)]
    assert reps == [1, 1, 2, 6, 21]
