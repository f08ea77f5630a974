"""Optimality-complement protocols: flagged branches, substitutes, gathering."""

from itertools import product

import pytest

from locdec.engine import CONSTRUCTIVE, check_protocol, game_evaluate
from locdec.gen import cycle_graph, path_graph
from locdec.graphs import (Cls, Graph, IdAssignment, InputAssignment, Instance,
                           Marks, Ptr, id_width)
from locdec.labels import INVALID, LabelDomain, TreeCert, input_value_field
from locdec.protocol import ProtocolError
from locdec.protocols import names, opt, resolve
from locdec.protocols.basic import (non_spanning_tree_inputs,
                                    spanning_tree_inputs)
from locdec.protocols.opt import (hamiltonian_inputs,
                                  protocol_hamiltonian_cycle,
                                  protocol_non_hamiltonian, protocol_opt,
                                  protocol_set_problem, _marked_cycle_edges)

from reference import (cut_size, is_dominating, is_independent,
                       oracle_max_cut, oracle_max_independent,
                       oracle_max_matching, oracle_min_cut,
                       oracle_min_dominating, oracle_mst_weight,
                       oracle_tsp_weight)


WEIGHTED_TRIANGLE = Graph(3, frozenset({(0, 1), (0, 2), (1, 2)}),
                          {(0, 1): 1, (0, 2): 2, (1, 2): 3})

WEIGHTED_K4 = Graph(4, frozenset({(0, 1), (0, 2), (0, 3),
                                  (1, 2), (1, 3), (2, 3)}),
                    {(0, 1): 1, (0, 2): 2, (0, 3): 4,
                     (1, 2): 5, (1, 3): 3, (2, 3): 6})


def triangle_instance(inputs):
    return Instance(WEIGHTED_TRIANGLE, IdAssignment((1, 2, 3), 5),
                    InputAssignment(tuple(inputs)))


def k4_instance(inputs):
    return Instance(WEIGHTED_K4, IdAssignment((1, 2, 3, 4), 6),
                    InputAssignment(tuple(inputs)))


def pointer_pools(graph, ids):
    return [[Ptr(None)] + [Ptr(ids[w]) for w in sorted(graph.neighbours(v))]
            for v in range(graph.n)]


# ---------------------------------------------------------------------------
# minimum spanning tree


class TestMinimumSpanningTree:
    def test_registered(self):
        p = resolve("mst")
        assert p.name == "mst"
        assert p.level_count == 1
        assert p.verifier.radius == 1

    def test_heavy_tree_beaten_by_lighter_one(self):
        # x = {ab, bc} with weight 4; the tree {ab, ac} weighs 3.
        inst = triangle_instance((Ptr(None), Ptr(1), Ptr(2)))
        out = game_evaluate(resolve("mst"), inst)
        assert out.verdict is True
        move = out.line[0]
        assert all(lbl.flag == 1 for lbl in move)
        assert tuple(lbl.xprime for lbl in move) == (Ptr(None), Ptr(1), Ptr(1))
        # Doubled objective totals at the shared gathering root.
        assert move[0].agg_x.parent is None
        assert move[0].agg_x.agg == 8
        assert move[0].agg_xp.agg == 6
        # Substitute admissibility rides the same certificate scheme.
        assert move[1].yes_xp == TreeCert(1, 1, 1)
        assert move[2].yes_xp == TreeCert(1, 1, 1)

    def test_minimum_tree_has_no_certificate(self):
        inst = triangle_instance((Ptr(None), Ptr(1), Ptr(1)))
        assert game_evaluate(resolve("mst"), inst).verdict is False

    def test_non_tree_accepted_through_defect_branch(self):
        inst = triangle_instance((Ptr(None), Ptr(None), Ptr(None)))
        out = game_evaluate(resolve("mst"), inst)
        assert out.verdict is True
        assert all(lbl.flag == 0 for lbl in out.line[0])

    def test_constructive_matches_exhaustive_on_examples(self):
        p = resolve("mst")
        for inputs in [(Ptr(None), Ptr(1), Ptr(2)),
                       (Ptr(None), Ptr(1), Ptr(1)),
                       (Ptr(None), Ptr(None), Ptr(None)),
                       (Ptr(2), Ptr(1), Ptr(2))]:
            inst = triangle_instance(inputs)
            exh = game_evaluate(p, inst).verdict
            con = game_evaluate(p, inst, CONSTRUCTIVE).verdict
            assert exh == con
            assert exh == p.language.oracle(inst)

    def test_every_pointer_assignment_against_brute_force(self):
        p4 = Graph(4, frozenset({(0, 1), (1, 2), (2, 3)}),
                   {(0, 1): 2, (1, 2): 1, (2, 3): 2})
        proto = resolve("mst")
        for graph, ids in [(WEIGHTED_TRIANGLE, (1, 2, 3)), (p4, (4, 1, 3, 2))]:
            ida = IdAssignment(ids, 6)
            wmin = oracle_mst_weight(graph)
            for xs in product(*pointer_pools(graph, ids)):
                inst = Instance(graph, ida, InputAssignment(xs))
                got = game_evaluate(proto, inst).verdict
                if spanning_tree_inputs(inst):
                    edges = set()
                    for v, x in enumerate(xs):
                        if x.to is not None:
                            w = inst.node_of(x.to)
                            edges.add((min(v, w), max(v, w)))
                    weight = sum(graph.weight(u, v) for (u, v) in edges)
                    want = weight > wmin
                else:
                    want = non_spanning_tree_inputs(inst)
                assert got == want, (ids, xs)

    def test_single_node_tree_is_optimal(self):
        lone = Instance(Graph(1, frozenset(), {}), IdAssignment((3,), 4),
                        InputAssignment((Ptr(None),)))
        assert game_evaluate(resolve("mst"), lone).verdict is False
        assert resolve("mst").language.oracle(lone) is False

    def test_unweighted_instance_rejected_everywhere(self):
        bare = Instance(path_graph(3), IdAssignment((1, 2, 3), 5),
                        InputAssignment((Ptr(None), Ptr(1), Ptr(2))))
        p = resolve("mst")
        assert p.language.oracle(bare) is False
        assert game_evaluate(p, bare).verdict is False


# ---------------------------------------------------------------------------
# travelling salesman


class TestTravellingSalesman:
    # Tour costs on WEIGHTED_K4: 0-1-2-3-0 is 16, 0-2-1-3-0 is 14,
    # 0-1-3-2-0 is 12 and minimal.
    HEAVY = (Marks((2, 4)), Marks((1, 3)), Marks((2, 4)), Marks((1, 3)))
    BEST = (Marks((2, 3)), Marks((1, 4)), Marks((1, 4)), Marks((2, 3)))

    def test_heavy_tour_beaten(self):
        out = game_evaluate(resolve("tsp"), k4_instance(self.HEAVY))
        assert out.verdict is True
        move = out.line[0]
        assert all(lbl.flag == 1 for lbl in move)
        assert move[0].agg_x.agg == 32
        assert move[0].agg_xp.agg == 24
        assert tuple(lbl.xprime for lbl in move) == self.BEST

    def test_minimal_tour_not_certifiable(self):
        inst = k4_instance(self.BEST)
        assert game_evaluate(resolve("tsp"), inst).verdict is False
        assert game_evaluate(resolve("tsp"), inst, CONSTRUCTIVE).verdict is False

    def test_cycle_free_marks_accepted_through_defect_branch(self):
        inst = k4_instance((Marks(()),) * 4)
        out = game_evaluate(resolve("tsp"), inst)
        assert out.verdict is True
        assert all(lbl.flag == 0 for lbl in out.line[0])

    def test_every_marks_assignment_against_brute_force(self):
        proto = resolve("tsp")
        wopt = oracle_tsp_weight(WEIGHTED_K4)
        ids = (1, 2, 3, 4)

        def pool(v):
            nbr = sorted(ids[w] for w in WEIGHTED_K4.neighbours(v))
            singles = [Marks((i,)) for i in nbr]
            pairs = [Marks((i, j)) for a, i in enumerate(nbr)
                     for j in nbr[a + 1:]]
            return [Marks(())] + singles + pairs

        for xs in product(*[pool(v) for v in range(4)]):
            inst = k4_instance(xs)
            got = game_evaluate(proto, inst).verdict
            if hamiltonian_inputs(inst):
                edges = _marked_cycle_edges(inst)
                weight = sum(WEIGHTED_K4.weight(u, v) for (u, v) in edges)
                want = weight > wopt
            else:
                want = True
            assert got == want, xs

    def test_hamiltonian_marks_predicate(self):
        assert hamiltonian_inputs(k4_instance(self.BEST)) is True
        assert hamiltonian_inputs(k4_instance((Marks(()),) * 4)) is False
        tiny = Instance(path_graph(2), IdAssignment((1, 2), 3),
                        InputAssignment((Marks((2,)), Marks((1,)))))
        assert hamiltonian_inputs(tiny) is False

    def test_cycle_protocol_pair_negate_each_other(self):
        ham = protocol_hamiltonian_cycle()
        non = protocol_non_hamiltonian()
        for inputs in [self.HEAVY, self.BEST, (Marks(()),) * 4,
                       (Marks((2, 4)), Marks((1,)), Marks((2, 4)),
                        Marks((1, 3)))]:
            inst = k4_instance(inputs)
            a = game_evaluate(ham, inst).verdict
            b = game_evaluate(non, inst).verdict
            assert a != b
            assert a == ham.language.oracle(inst)


# ---------------------------------------------------------------------------
# vertex-subset problems


class TestSetProblems:
    def c4_instance(self, inputs):
        return Instance(cycle_graph(4), IdAssignment((1, 2, 3, 4), 6),
                        InputAssignment(tuple(inputs)))

    def test_mis_single_node_not_maximum(self):
        out = game_evaluate(resolve("mis"), self.c4_instance((1, 0, 0, 0)))
        assert out.verdict is True
        assert all(lbl.flag == 1 for lbl in out.line[0])

    def test_mis_opposite_pair_is_maximum(self):
        inst = self.c4_instance((1, 0, 1, 0))
        assert game_evaluate(resolve("mis"), inst).verdict is False

    def test_mis_adjacent_pair_goes_through_defect_branch(self):
        out = game_evaluate(resolve("mis"), self.c4_instance((1, 1, 0, 0)))
        assert out.verdict is True
        assert all(lbl.flag == 0 for lbl in out.line[0])

    def test_all_bit_assignments_against_brute_force(self):
        tri = Graph(3, frozenset({(0, 1), (0, 2), (1, 2)}))
        for graph, ids in [(cycle_graph(4), (1, 2, 3, 4)), (tri, (3, 1, 2))]:
            ida = IdAssignment(ids, 6)
            kinds = {k: resolve(k) for k in ("mis", "mds", "maxcut", "mincut")}
            best_mis = oracle_max_independent(graph)
            best_mds = oracle_min_dominating(graph)
            best_max = oracle_max_cut(graph)
            best_min = oracle_min_cut(graph)
            for xs in product((0, 1), repeat=graph.n):
                inst = Instance(graph, ida, InputAssignment(xs))
                chosen = frozenset(v for v in range(graph.n) if xs[v] == 1)
                want = {
                    "mis": (len(chosen) < best_mis
                            if is_independent(graph, chosen) else True),
                    "mds": (len(chosen) > best_mds
                            if is_dominating(graph, chosen) else True),
                    "maxcut": cut_size(graph, chosen) < best_max,
                    "mincut": cut_size(graph, chosen) > best_min,
                }
                for kind, proto in kinds.items():
                    got = game_evaluate(proto, inst).verdict
                    assert got == want[kind], (kind, ids, xs)

    def test_mds_triangle_trio(self):
        def tri(xs):
            return Instance(Graph(3, frozenset({(0, 1), (0, 2), (1, 2)})),
                            IdAssignment((1, 2, 3), 5), InputAssignment(xs))
        mds = resolve("mds")
        assert game_evaluate(mds, tri((1, 0, 0))).verdict is False
        assert game_evaluate(mds, tri((1, 1, 0))).verdict is True
        out = game_evaluate(mds, tri((0, 0, 0)))
        assert out.verdict is True
        assert out.line[0][0].flag == 0

    def test_untyped_input_is_inadmissible(self):
        inst = self.c4_instance((None, 0, 1, 0))
        out = game_evaluate(resolve("mis"), inst)
        assert out.verdict is True
        assert all(lbl.flag == 0 for lbl in out.line[0])

    def test_matching_on_path(self):
        mat = resolve("matching")

        def p3(xs):
            return Instance(path_graph(3), IdAssignment((1, 2, 3), 5),
                            InputAssignment(xs))

        empty = p3((Ptr(None), Ptr(None), Ptr(None)))
        assert game_evaluate(mat, empty).verdict is True
        maximal = p3((Ptr(2), Ptr(1), Ptr(None)))
        assert game_evaluate(mat, maximal).verdict is False
        dangling = p3((Ptr(2), Ptr(None), Ptr(None)))
        out = game_evaluate(mat, dangling)
        assert out.verdict is True
        assert out.line[0][0].flag == 0

    def test_matching_every_assignment_against_brute_force(self):
        graph = path_graph(4)
        ids = (2, 4, 1, 3)
        ida = IdAssignment(ids, 6)
        proto = resolve("matching")
        best = oracle_max_matching(graph)
        for xs in product(*pointer_pools(graph, ids)):
            inst = Instance(graph, ida, InputAssignment(xs))
            edges = set()
            admissible = True
            for v, x in enumerate(xs):
                if x.to is None:
                    continue
                w = inst.node_of(x.to)
                if w is None or not graph.has_edge(v, w) or xs[w].to != ids[v]:
                    admissible = False
                    break
                edges.add((min(v, w), max(v, w)))
            got = game_evaluate(proto, inst).verdict
            want = (len(edges) < best) if admissible else True
            assert got == want, xs

    def test_rival_scan_asks_admissibility_of_better_candidates_only(
            self, monkeypatch):
        # No cut is smaller than the empty one, so none of the 16 subsets
        # is asked whether it is admissible: 4 views each to score it, and
        # 12 for the two admissibility oracles and the input's own total.
        views = []
        build = opt.ball

        def counted_ball(*args):
            views.append(args)
            return build(*args)

        monkeypatch.setattr(opt, "ball", counted_ball)
        assert resolve("mincut").language.oracle(
            self.c4_instance((0, 0, 0, 0))) is False
        assert len(views) == 16 * 4 + 12

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError, match="unknown set problem"):
            protocol_set_problem("vertex-cover")


# ---------------------------------------------------------------------------
# construction rules and error paths


class TestProtocolOptConstruction:
    def test_registry_carries_all_kinds(self):
        for key in ("mst", "tsp", "mis", "mds", "matching", "maxcut",
                    "mincut"):
            assert key in names()
            assert resolve(key).name == key

    def test_sense_must_be_min_or_max(self):
        mis = protocol_set_problem("mis")
        with pytest.raises(ProtocolError, match="objective sense"):
            protocol_opt(mis, mis, lambda b: 0, "least",
                         candidates=lambda inst: (), name="least")

    def test_admissibility_protocols_must_be_single_level(self):
        with pytest.raises(ProtocolError, match="single-level"):
            protocol_opt(resolve("lift:spanning-tree"),
                         resolve("non-spanning-tree"), lambda b: 0, "min",
                         candidates=lambda inst: (), name="lifted")

    def test_a_searched_admissibility_part_leaves_no_strategy(self):
        # The strategy calls both admissibility strategies; qbf-1's level
        # has none, so the optimality level has none and is searched.
        searched = protocol_opt(resolve("qbf-1"), resolve("non-spanning-tree"),
                                lambda b: 0, "min", candidates=lambda inst: (),
                                name="searched")
        assert searched.levels[0].strategy is None

    def test_admissibility_protocols_must_declare_a_language(self):
        # A unanimous combination declares no language; the strategy and
        # the oracle both need one, so the build refuses it on either side.
        combined = resolve("unanimous:spanning-tree+non-spanning-tree")
        assert combined.language is None
        for pair in ((combined, resolve("non-spanning-tree")),
                     (resolve("spanning-tree"), combined)):
            with pytest.raises(ProtocolError, match="declares none"):
                protocol_opt(*pair, lambda b: 0, "min",
                             candidates=lambda inst: (), name="bare")

    def test_identity_relabelling_preserves_verdicts(self):
        inst = triangle_instance((Ptr(None), Ptr(1), Ptr(2)))
        report = check_protocol(resolve("mst"), [inst])
        assert not report.disagreements
        assert report.total_runs == 3

    def test_packed_label_round_trips_through_domain(self):
        inst = triangle_instance((Ptr(None), Ptr(1), Ptr(2)))
        proto = resolve("mst")
        domain = proto.levels[0].domain_of(inst.n, inst.N)
        assert domain.width <= domain.c * id_width(inst.N)
        move = game_evaluate(proto, inst).line[0]
        domain.check_labelling(move)
        for lbl in move:
            assert domain.decode(domain.encode(lbl)) == lbl


# ---------------------------------------------------------------------------
# the input-value field


class TestInputValueField:
    def field(self, n=3, N=5):
        graph = path_graph(n)
        inst = Instance(graph, IdAssignment(tuple(range(1, n + 1)), N),
                        InputAssignment((None,) * n))
        return input_value_field("x", N), inst

    def test_round_trips_every_enumerated_value(self):
        spec, inst = self.field()
        seen = set()
        count = 0
        for value in spec.values():
            raw = spec.encode(value)
            assert raw < (1 << spec.width)
            assert spec.decode(raw) == value
            assert raw not in seen
            seen.add(raw)
            count += 1
        assert count == spec.count

    def test_marks_encoding_is_order_insensitive(self):
        spec, _ = self.field()
        assert spec.encode(Marks((4, 2))) == spec.encode(Marks((2, 4)))

    def test_junk_patterns_decode_to_invalid(self):
        # Routed through a domain: unused bit patterns must read as INVALID.
        import collections
        spec, inst = self.field()
        Wrapped = collections.namedtuple("Wrapped", "x")
        domain = LabelDomain("inp", 6, inst.n, inst.N, (spec,), Wrapped)
        valid = {domain.encode(Wrapped(v)) for v in spec.values()}
        assert len(valid) == spec.count
        for raw in range(1 << spec.width):
            got = domain.decode(raw)
            if raw in valid:
                assert domain.encode(got) == raw
            else:
                assert got is INVALID

    def test_out_of_range_values_rejected(self):
        from locdec.labels import DomainError
        spec, inst = self.field()
        for bad in (Ptr(9), inst.N * inst.N + 1, -1, Marks((1, 9)),
                    Marks((1, 2, 3)), True, Cls(), "x"):
            with pytest.raises(DomainError):
                spec.encode(bad)
