from __future__ import annotations

import random
from itertools import product

import pytest

from locdec.gen import path_graph, random_connected_graph, star_graph
from locdec.graphs import Graph, IdAssignment, Marks, Ptr
from locdec.labels import (DomainError, GatherCert, HamCert, Labelling,
                           NSTCert, SizeCert, TreeCert, gather_cert_domain,
                           ham_cert_domain, non_ham_cert_domain,
                           nst_cert_domain, size_cert_domain,
                           tree_cert_domain)
from locdec.protocols import names, resolve
from locdec.runtime import LocalVerifier, ViewStore, evaluate
from locdec.schemes import (SchemeError, build_gathering_cert,
                            build_hamiltonian_cert, build_non_hamiltonian_cert,
                            build_non_spanning_tree_cert, build_size_cert,
                            build_spanning_tree_cert, sum_ok, tree_ok,
                            tree_reader, verify_hamiltonian_cert,
                            verify_non_hamiltonian_cert,
                            verify_non_spanning_tree_cert, verify_size_cert,
                            verify_spanning_tree_cert)

from corpus import TRANSFORMS, c4, plain_instance, with_label

ST = LocalVerifier(1, 1, verify_spanning_tree_cert)
SIZE = LocalVerifier(1, 1, verify_size_cert)
HAM = LocalVerifier(1, 1, verify_hamiltonian_cert)
NST = LocalVerifier(1, 1, verify_non_spanning_tree_cert)
NONHAM = LocalVerifier(1, 1, verify_non_hamiltonian_cert)


READ_GATHER = tree_reader(GatherCert)


def gather_verifier(value_of, at_root):
    """A gathering certificate in layer 0, checked as a protocol checks
    one: ``tree_ok``, then ``sum_ok`` over the node's value."""
    return LocalVerifier(1, 1, lambda b: (
        tree_ok(b, 0, READ_GATHER)
        and sum_ok(b, 0, READ_GATHER, value_of(b), at_root)))


def p3_pointer_instance():
    # a--b--c rooted at a: b and c point towards a.
    g = path_graph(3)
    return plain_instance(g).with_inputs((Ptr(None), Ptr(1), Ptr(2)))


# ---------------------------------------------------------------------------
# spanning-tree certificates


def test_build_tree_cert_p3():
    inst = p3_pointer_instance()
    cert = build_spanning_tree_cert(inst, frozenset({(0, 1), (1, 2)}), 0)
    assert tuple(cert) == (TreeCert(1, None, 0), TreeCert(1, 1, 1), TreeCert(1, 2, 2))


def test_build_tree_cert_star_leaves():
    inst = plain_instance(star_graph(4))
    cert = build_spanning_tree_cert(inst, frozenset({(0, 1), (0, 2), (0, 3)}), 0)
    assert [c.dist for c in cert] == [0, 1, 1, 1]


def test_build_tree_cert_c4_chord_distances():
    inst = plain_instance(c4())
    tree = frozenset({(0, 1), (1, 2), (0, 3)})
    cert = build_spanning_tree_cert(inst, tree, 0)
    assert [c.dist for c in cert] == [0, 1, 2, 1]


def test_build_tree_cert_rejects_non_tree():
    inst = plain_instance(c4())
    with pytest.raises(SchemeError, match="not a spanning tree"):
        build_spanning_tree_cert(inst, frozenset({(0, 1), (1, 2)}), 0)


def test_tree_cert_honest_accepts():
    inst = p3_pointer_instance()
    cert = build_spanning_tree_cert(inst, frozenset({(0, 1), (1, 2)}), 0)
    assert evaluate(ST, inst, (cert,)).verdict is True


def test_tree_cert_distance_jump_rejects():
    inst = p3_pointer_instance()
    cert = build_spanning_tree_cert(inst, frozenset({(0, 1), (1, 2)}), 0)
    bad = with_label(cert, 2, TreeCert(1, 2, 5))
    d = evaluate(ST, inst, (bad,))
    assert d.accepts[2] is False and d.verdict is False


def test_tree_cert_parent_must_be_the_pointer_target():
    # On C4 node 2 points to node 1; node 3 sits at the same distance, so
    # a parent field naming node 3 passes every distance check.
    inst = plain_instance(c4()).with_inputs((Ptr(None), Ptr(1), Ptr(2), Ptr(1)))
    cert = build_spanning_tree_cert(inst, frozenset({(0, 1), (1, 2), (0, 3)}), 0)
    assert evaluate(ST, inst, (cert,)).verdict is True
    bad = with_label(cert, 2, TreeCert(1, 4, 2))
    assert evaluate(ST, inst, (bad,)).rejecting_nodes == (2,)


def test_tree_cert_two_roots_always_rejected():
    # Input with two pointer roots on P3; no root/distance labelling survives.
    g = path_graph(3)
    inst = plain_instance(g).with_inputs((Ptr(None), Ptr(1), Ptr(None)))
    views = ViewStore(inst, ST.radius)
    for combo in product(product(range(1, 10), range(3)), repeat=3):
        lab = Labelling(TreeCert(r, None, d) for r, d in combo)
        assert views.first_rejection(ST.decide, (lab,)) is not None


def test_tree_cert_pointer_cycle_always_rejected():
    g = path_graph(3)
    inst = plain_instance(g).with_inputs((Ptr(2), Ptr(1), Ptr(2)))
    views = ViewStore(inst, ST.radius)
    for combo in product(product(range(1, 10), range(3)), repeat=3):
        lab = Labelling(TreeCert(r, None, d) for r, d in combo)
        assert views.first_rejection(ST.decide, (lab,)) is not None


# ---------------------------------------------------------------------------
# size certificates


def test_build_size_cert_chain():
    inst = plain_instance(path_graph(3))
    cert = build_size_cert(inst)
    assert [c.size for c in cert] == [3, 2, 1]


def test_build_size_cert_star():
    inst = plain_instance(star_graph(4))
    cert = build_size_cert(inst)
    assert [c.size for c in cert] == [4, 1, 1, 1]


def test_build_size_cert_binary_tree():
    g = Graph(5, frozenset({(0, 1), (0, 2), (1, 3), (1, 4)}))
    inst = plain_instance(g)
    cert = build_size_cert(inst)
    assert [c.size for c in cert] == [5, 3, 1, 1, 1]


def test_size_cert_honest_accepts():
    inst = plain_instance(path_graph(3)).with_inputs((3, 3, 3))
    cert = build_size_cert(inst)
    assert evaluate(SIZE, inst, (cert,)).verdict is True


def test_size_cert_wrong_count_rejects_at_root():
    inst = plain_instance(path_graph(3)).with_inputs((4, 4, 4))
    cert = build_size_cert(inst)
    d = evaluate(SIZE, inst, (cert,))
    assert d.rejecting_nodes == (0,)


def test_size_cert_wrong_count_always_rejected():
    # Tight identity space keeps the full structured domain enumerable.
    g = path_graph(3)
    inst = plain_instance(g, IdAssignment((1, 2, 3), 3)).with_inputs((4, 4, 4))
    parents = (None, 1, 2, 3)
    per_node = [SizeCert(r, p, s)
                for r in range(1, 4) for p in parents for s in range(1, 4)]
    views = ViewStore(inst, SIZE.radius)
    for combo in product(per_node, repeat=3):
        assert views.first_rejection(SIZE.decide, (Labelling(combo),)) is not None


def test_size_cert_ghost_parent_rejected():
    # A parent id naming no neighbour must not slip past the sum check.
    inst = plain_instance(path_graph(3)).with_inputs((2, 2, 2))
    lab = Labelling((SizeCert(5, 7, 1), SizeCert(5, 7, 1), SizeCert(5, 7, 1)))
    assert not evaluate(SIZE, inst, (lab,)).verdict


# ---------------------------------------------------------------------------
# gathering certificates


def test_build_gather_star_sum():
    inst = plain_instance(star_graph(4))
    cert = build_gathering_cert(inst, (1, 1, 1, 1))
    assert cert[0].agg == 4
    assert [c.agg for c in cert][1:] == [1, 1, 1]


def test_build_gather_chain_sum():
    inst = plain_instance(path_graph(3))
    cert = build_gathering_cert(inst, (5, 1, 7))
    assert [c.agg for c in cert] == [13, 8, 7]
    assert [c.dist for c in cert] == [0, 1, 2]


def test_build_gather_zeroes():
    inst = plain_instance(path_graph(4))
    cert = build_gathering_cert(inst, (0, 0, 0, 0))
    assert [c.agg for c in cert] == [0, 0, 0, 0]


def test_gather_sum_honest_accepts():
    inst = plain_instance(star_graph(4)).with_inputs((1, 1, 1, 1))
    cert = build_gathering_cert(inst, (1, 1, 1, 1))
    v = gather_verifier(lambda b: b.own_input, lambda agg: agg == 4)
    assert evaluate(v, inst, (cert,)).verdict is True


def test_gather_tampered_child_rejects_parent():
    inst = plain_instance(star_graph(4)).with_inputs((1, 1, 1, 1))
    cert = build_gathering_cert(inst, (1, 1, 1, 1))
    bad = with_label(cert, 2, GatherCert(cert[2].root, cert[2].parent, cert[2].dist, 2))
    v = gather_verifier(lambda b: b.own_input, lambda agg: agg == 4)
    d = evaluate(v, inst, (bad,))
    assert d.accepts[0] is False


def test_gather_sum_matches_direct_sum_on_random_trees():
    for seed in range(8):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        g = random_connected_graph(n, seed)
        values = tuple(rng.randint(0, n * n) for _ in range(n))
        inst = plain_instance(g).with_inputs(values)
        cert = build_gathering_cert(inst, values)
        assert cert[0].agg == sum(values)
        v = gather_verifier(lambda b: b.own_input,
                            lambda agg: agg == sum(values))
        assert evaluate(v, inst, (cert,)).verdict is True


def test_gather_value_overflow():
    inst = plain_instance(path_graph(2))
    with pytest.raises(SchemeError, match="outside"):
        build_gathering_cert(inst, (1, 99))


# ---------------------------------------------------------------------------
# Hamiltonian-cycle certificates


def triangle_cycle_instance():
    g = Graph(3, frozenset({(0, 1), (1, 2), (0, 2)}))
    inst = plain_instance(g)
    return inst.with_inputs((Marks((2, 3)), Marks((1, 3)), Marks((1, 2))))


def c4_cycle_instance():
    inst = plain_instance(c4())
    # C4 node v has cycle neighbours v-1 and v+1.
    return inst.with_inputs((Marks((2, 4)), Marks((1, 3)), Marks((2, 4)), Marks((1, 3))))


def test_build_ham_triangle_positions():
    inst = triangle_cycle_instance()
    cert = build_hamiltonian_cert(inst, inst.graph.edges, 0)
    assert [c.pos for c in cert] == [0, 1, 2]


def test_build_ham_c4_positions():
    inst = c4_cycle_instance()
    cert = build_hamiltonian_cert(inst, inst.graph.edges, 0)
    assert [c.pos for c in cert] == [0, 1, 2, 3]


def test_build_ham_c5_mid_root():
    from locdec.gen import cycle_graph
    g = cycle_graph(5)
    inst = plain_instance(g)
    cert = build_hamiltonian_cert(inst, g.edges, 2)
    # Orientation walks towards the smaller-id cycle neighbour of the root.
    assert [c.pos for c in cert] == [2, 1, 0, 4, 3]


def test_ham_honest_accepts():
    inst = c4_cycle_instance()
    cert = build_hamiltonian_cert(inst, inst.graph.edges, 0)
    assert evaluate(HAM, inst, (cert,)).verdict is True


def test_ham_position_gap_rejects():
    inst = c4_cycle_instance()
    cert = build_hamiltonian_cert(inst, inst.graph.edges, 0)
    bad = with_label(cert, 2, HamCert(cert[2].root, cert[2].parent, cert[2].dist, 3))
    d = evaluate(HAM, inst, (bad,))
    assert d.verdict is False
    assert 3 in d.rejecting_nodes


def test_ham_two_disjoint_triangles_always_rejected():
    # Two triangles joined by one bridge; the marks describe both triangles.
    g = Graph(6, frozenset({(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)}))
    inst = plain_instance(g).with_inputs((
        Marks((2, 3)), Marks((1, 3)), Marks((1, 2)),
        Marks((5, 6)), Marks((4, 6)), Marks((4, 5))))
    from locdec.labels import build_bfs_tree
    # Position checks read only positions and the root pin, so any labelling
    # whose tree fields verify is covered by pairing one honest tree per root
    # with every position map; the root's own position is pinned to 0 by its
    # verifier clause, checked separately below.
    for root in range(6):
        t = build_bfs_tree(inst, root)
        rid = inst.id_of(root)
        base = [(rid, None if t.parent[v] is None else inst.id_of(t.parent[v]),
                 t.dist[v]) for v in range(6)]
        others = [v for v in range(6) if v != root]
        views = ViewStore(inst, HAM.radius)
        for ps in product(range(6), repeat=5):
            pos = [0] * 6
            for v, p in zip(others, ps):
                pos[v] = p
            lab = Labelling(HamCert(*base[v], pos[v]) for v in range(6))
            assert views.first_rejection(HAM.decide, (lab,)) is not None
        # Nonzero root positions die at the root's own clause.
        lab = Labelling(HamCert(*base[v], 1 if v == root else 0) for v in range(6))
        assert evaluate(HAM, inst, (lab,)).accepts[root] is False


def test_ham_rejects_tiny_cycles():
    inst = plain_instance(path_graph(2))
    with pytest.raises(SchemeError, match="at least 3"):
        build_hamiltonian_cert(inst, frozenset({(0, 1)}), 0)
    with pytest.raises(SchemeError, match="not a Hamiltonian cycle"):
        build_hamiltonian_cert(plain_instance(c4()), frozenset({(0, 1), (1, 2), (2, 3)}), 0)


# ---------------------------------------------------------------------------
# non-spanning-tree certificates


def test_build_nst_empty_f_on_p2():
    inst = plain_instance(path_graph(2)).with_inputs((Ptr(None), Ptr(None)))
    cert = build_non_spanning_tree_cert(inst)
    assert [c.flag for c in cert] == [0, 0]
    assert cert[0].parent1 is None and cert[0].root1 == 1
    assert evaluate(NST, inst, (cert,)).verdict is True


def test_build_nst_triangle_cycle():
    g = Graph(3, frozenset({(0, 1), (1, 2), (0, 2)}))
    inst = plain_instance(g).with_inputs((Ptr(2), Ptr(3), Ptr(1)))
    cert = build_non_spanning_tree_cert(inst)
    assert [c.flag for c in cert] == [1, 1, 1]
    assert [c.cpos for c in cert] == [0, 1, 2]
    assert [c.clen for c in cert] == [3, 3, 3]
    assert evaluate(NST, inst, (cert,)).verdict is True


def test_build_nst_mutual_pair_cycle():
    # Both endpoints of P2 pointing at each other is a length-2 pointer cycle
    # even though the undirected pointer edge set spans the path.
    inst = plain_instance(path_graph(2)).with_inputs((Ptr(2), Ptr(1)))
    cert = build_non_spanning_tree_cert(inst)
    assert [c.flag for c in cert] == [1, 1]
    assert [c.cpos for c in cert] == [0, 1]
    assert [c.clen for c in cert] == [2, 2]
    assert evaluate(NST, inst, (cert,)).verdict is True


def test_build_nst_partial_cycle_tail():
    # Node c points into a mutual a<->b cycle; c itself is off the cycle.
    inst = plain_instance(path_graph(3)).with_inputs((Ptr(2), Ptr(1), Ptr(2)))
    cert = build_non_spanning_tree_cert(inst)
    assert [c.flag for c in cert] == [1, 1, 1]
    assert [c.cpos for c in cert] == [0, 1, None]
    assert [c.clen for c in cert] == [2, 2, 2]
    assert evaluate(NST, inst, (cert,)).verdict is True


def test_build_nst_two_component_forest():
    inst = plain_instance(path_graph(4)).with_inputs(
        (Ptr(None), Ptr(1), Ptr(None), Ptr(3)))
    cert = build_non_spanning_tree_cert(inst)
    assert [c.flag for c in cert] == [2, 2, 2, 2]
    assert [c.idx for c in cert] == [1, 1, 2, 2]
    assert cert[0].parent1 is None and cert[2].parent2 is None
    assert evaluate(NST, inst, (cert,)).verdict is True


def test_build_nst_rejects_spanning_tree():
    inst = plain_instance(path_graph(3)).with_inputs((Ptr(None), Ptr(1), Ptr(2)))
    with pytest.raises(SchemeError, match="encode a spanning tree"):
        build_non_spanning_tree_cert(inst)


def test_build_nst_rejects_non_pointer_inputs():
    inst = plain_instance(path_graph(3))
    with pytest.raises(SchemeError, match="non-pointer input"):
        build_non_spanning_tree_cert(inst)


def test_nst_mixed_flags_reject():
    inst = plain_instance(path_graph(2)).with_inputs((Ptr(None), Ptr(None)))
    cert = build_non_spanning_tree_cert(inst)
    mixed = with_label(cert, 1, NSTCert(1, *tuple(cert[1])[1:]))
    d = evaluate(NST, inst, (mixed,))
    assert d.accepts[0] is False


def test_nst_flag0_rejects_when_spanned():
    # Honest-shaped flag-0 cert on a spanning-tree input: the root is spanned.
    inst = plain_instance(path_graph(2)).with_inputs((Ptr(None), Ptr(1)))
    unspanned_shape = build_non_spanning_tree_cert(
        plain_instance(path_graph(2)).with_inputs((Ptr(None), Ptr(None))))
    d = evaluate(NST, inst, (unspanned_shape,))
    assert d.accepts[0] is False


def test_nst_flag2_rejects_on_connected_pointers():
    # Flag-2 shape borrowed from a forest input, replayed on a spanning tree.
    forest = plain_instance(path_graph(4)).with_inputs(
        (Ptr(None), Ptr(1), Ptr(None), Ptr(3)))
    cert = build_non_spanning_tree_cert(forest)
    st = plain_instance(path_graph(4)).with_inputs(
        (Ptr(None), Ptr(1), Ptr(2), Ptr(3)))
    assert not evaluate(NST, st, (cert,)).verdict


def triangle_pointer_cycle():
    g = Graph(3, frozenset({(0, 1), (1, 2), (0, 2)}))
    inst = plain_instance(g).with_inputs((Ptr(2), Ptr(3), Ptr(1)))
    return inst, build_non_spanning_tree_cert(inst)


def test_nst_clen_disagreement_rejects():
    inst, cert = triangle_pointer_cycle()
    bad = with_label(cert, 1, cert[1]._replace(clen=2))
    d = evaluate(NST, inst, (bad,))
    assert d.accepts[0] is False


def test_nst_cycle_position_break_rejects():
    inst, cert = triangle_pointer_cycle()
    bad = with_label(cert, 2, cert[2]._replace(cpos=None))
    d = evaluate(NST, inst, (bad,))
    # Node b expects its pointer target to carry the next position.
    assert d.accepts[1] is False


# ---------------------------------------------------------------------------
# non-Hamiltonian-cycle certificates


def two_triangles_instance():
    g = Graph(6, frozenset({(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)}))
    return plain_instance(g).with_inputs((
        Marks((2, 3)), Marks((1, 3)), Marks((1, 2)),
        Marks((5, 6)), Marks((4, 6)), Marks((4, 5))))


def test_build_non_ham_two_triangles():
    inst = two_triangles_instance()
    cert = build_non_hamiltonian_cert(inst)
    assert [c.flag for c in cert] == [1] * 6
    assert [c.idx for c in cert] == [1, 1, 1, 2, 2, 2]
    assert cert[0].parent1 is None and cert[3].parent2 is None
    assert evaluate(NONHAM, inst, (cert,)).verdict is True


def test_build_non_ham_degree_defect():
    inst = plain_instance(c4()).with_inputs(
        (Marks((2, 4)), Marks((1, 3)), Marks((2, 4)), Marks((1,))))
    cert = build_non_hamiltonian_cert(inst)
    assert [c.flag for c in cert] == [0] * 4
    # Node c is the smallest-id node whose marks are not reciprocated.
    assert cert[0].root1 == 3
    assert evaluate(NONHAM, inst, (cert,)).verdict is True


def test_non_ham_builder_rejects_cycle():
    g = Graph(3, frozenset({(0, 1), (1, 2), (0, 2)}))
    inst = plain_instance(g).with_inputs((Marks((2, 3)), Marks((1, 3)), Marks((1, 2))))
    with pytest.raises(SchemeError, match="encode a Hamiltonian cycle"):
        build_non_hamiltonian_cert(inst)


def test_non_ham_idx_mutations_reject():
    inst = two_triangles_instance()
    cert = build_non_hamiltonian_cert(inst)
    pinned = with_label(cert, 3, cert[3]._replace(idx=1))
    assert evaluate(NONHAM, inst, (pinned,)).accepts[3] is False
    crossed = with_label(cert, 4, cert[4]._replace(idx=1))
    assert evaluate(NONHAM, inst, (crossed,)).accepts[4] is False


def test_non_ham_flag0_rejects_on_proper_marks():
    # Honest flag-0 shape replayed where every node is properly paired.
    defect = plain_instance(c4()).with_inputs(
        (Marks((2, 4)), Marks((1, 3)), Marks((2, 4)), Marks((1,))))
    cert = build_non_hamiltonian_cert(defect)
    proper = plain_instance(c4()).with_inputs(
        (Marks((2, 4)), Marks((1, 3)), Marks((2, 4)), Marks((1, 3))))
    assert not evaluate(NONHAM, proper, (cert,)).verdict


# ---------------------------------------------------------------------------
# bit budgets and decode totality


def scheme_factories():
    return [(tree_cert_domain, "tree"), (size_cert_domain, "size"),
            (gather_cert_domain, "gather"), (ham_cert_domain, "ham"),
            (nst_cert_domain, "nst"), (non_ham_cert_domain, "non-ham")]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_domain_budgets(n):
    inst = plain_instance(path_graph(n)) if n > 1 else plain_instance(Graph(1, frozenset()))
    for factory, _name in scheme_factories():
        dom = factory(inst.n, inst.N)
        assert dom.width <= dom.budget


@pytest.mark.parametrize("name", (*names(), *TRANSFORMS, "lift:nta"))
def test_every_level_domain_builds_at_n_and_n_squared_identities(name):
    # The paper's O(log n)-bit certificates hold under any identity bound
    # N >= n; N = n is the tightest.  A domain over budget raises
    # DomainError when it is built.
    for level in resolve(name).levels:
        for n in range(2, 65):
            for N in (n, n * n):
                dom = level.domain_of(n, N)
                assert dom.width <= dom.budget, (n, N)


def test_built_certs_fit_domains():
    inst = p3_pointer_instance()
    tree = frozenset({(0, 1), (1, 2)})
    dom = tree_cert_domain(inst.n, inst.N)
    for value in build_spanning_tree_cert(inst, tree, 0):
        bits = dom.encode(value)
        assert dom.decode(bits) == value
    sdom = size_cert_domain(inst.n, inst.N)
    for value in build_size_cert(inst):
        assert sdom.decode(sdom.encode(value)) == value


def test_a_domain_refuses_values_of_another_class():
    # A verifier reads a label by its class, so a plain tuple, a list or
    # a label of another class with the same components is no tree
    # certificate.
    dom = tree_cert_domain(4, 5)
    dom.encode(TreeCert(1, None, 0))
    for value in ((1, None, 0), [1, None, 0], SizeCert(1, None, 0)):
        with pytest.raises(DomainError, match="is not a TreeCert"):
            dom.encode(value)
        with pytest.raises(DomainError, match="not in domain tree-cert"):
            dom.check_labelling([TreeCert(1, None, 0)] * 3 + [value])


def test_decode_total_on_small_domain():
    inst = plain_instance(path_graph(2))
    dom = tree_cert_domain(inst.n, inst.N)
    structured = set(dom.values())
    seen = set()
    from locdec.labels import INVALID
    for bits in range(1 << dom.width):
        value = dom.decode(bits)
        if value is not INVALID:
            assert dom.encode(value) == bits
            seen.add(value)
    assert seen == structured
    assert len(structured) == dom.size
