"""Symmetry detection: image level, defect certificates, full games."""

from dataclasses import replace

import pytest

from locdec import gen
from locdec.engine import (CONSTRUCTIVE, EXHAUSTIVE, check_protocol,
                           game_evaluate)
from locdec.graphs import (Graph, IdAssignment, InputAssignment, Instance,
                           id_width)
from locdec.labels import INVALID, DomainError, LabelDomain, Labelling
from locdec.oracles import has_nontrivial_automorphism
from locdec.protocol import all_invalid_labelling
from locdec.protocols import resolve
from locdec.protocols.nta import (GAINED_EDGE, IDENTITY_MAP, LOST_EDGE,
                                  MapDefect, NodeImage, SHARED_IMAGE,
                                  map_defect_domain, map_defect_exists,
                                  node_image_domain, protocol_map_defect)
from locdec.runtime import evaluate
from locdec.schemes import honest_tree

from corpus import asymmetric6, plain_instance

ASYMMETRIC_6 = Graph(6, frozenset({(0, 1), (0, 2), (0, 3),
                                   (1, 2), (1, 4), (3, 5)}))

# nta's prover levels are 1 and 3: every one is played from its strategy,
# while the disprover's level 2 is searched.
MIXED = CONSTRUCTIVE


def inst_of(graph, ids, N, inputs=None):
    if inputs is None:
        inputs = (None,) * graph.n
    return Instance(graph, IdAssignment(ids, N), InputAssignment(inputs))


def tree(instance, root):
    return list(honest_tree(instance, root))


# ---------------------------------------------------------------------------
# defect certificates against fixed maps


class TestMapDefect:
    def map_instance(self, graph, ids, N, images):
        return inst_of(graph, ids, N, tuple(images))

    def first_move(self, inst):
        return next(iter(protocol_map_defect().levels[0].cover(inst, ())))

    def test_identity_map_is_a_defect(self):
        inst = self.map_instance(gen.path_graph(3), (2, 1, 3), 5, (2, 1, 3))
        assert map_defect_exists(inst)
        move = self.first_move(inst)
        assert all(lbl.flag == IDENTITY_MAP for lbl in move)
        assert evaluate(protocol_map_defect().verifier, inst, (move,)).verdict

    def test_true_automorphism_has_no_defect(self):
        # path 0-1-2 with ids (2,1,3): swapping the endpoints fixes edges
        inst = self.map_instance(gen.path_graph(3), (2, 1, 3), 5, (3, 1, 2))
        assert not map_defect_exists(inst)
        assert list(protocol_map_defect().levels[0].cover(inst, ())) == []

    def test_shared_image_certificate(self):
        inst = self.map_instance(gen.path_graph(3), (2, 1, 3), 5, (1, 1, 3))
        move = self.first_move(inst)
        assert all(lbl.flag == SHARED_IMAGE for lbl in move)
        assert evaluate(protocol_map_defect().verifier, inst, (move,)).verdict

    def test_lost_edge_certificate(self):
        # the edge from the middle to one end maps onto the end pair
        inst = self.map_instance(gen.path_graph(3), (2, 1, 3), 5, (2, 3, 1))
        move = self.first_move(inst)
        assert all(lbl.flag == LOST_EDGE for lbl in move)
        assert evaluate(protocol_map_defect().verifier, inst, (move,)).verdict

    def test_gained_edge_certificate(self):
        # ends map onto an edge; the middle's image names no node, which
        # shields both path edges from the lost-edge branch
        inst = self.map_instance(gen.path_graph(3), (2, 1, 3), 5, (2, 4, 1))
        move = self.first_move(inst)
        assert all(lbl.flag == GAINED_EDGE for lbl in move)
        assert evaluate(protocol_map_defect().verifier, inst, (move,)).verdict

    def test_unmapped_shared_images_are_not_certifiable(self):
        # the image tree roots at the shared image, so a collision on an
        # identity that names no node cannot be witnessed
        inst = self.map_instance(gen.path_graph(3), (2, 1, 3), 5, (4, 5, 4))
        assert not map_defect_exists(inst)

    def test_shared_image_needs_only_the_collision_to_be_real(self):
        inst = self.map_instance(gen.path_graph(3), (2, 1, 3), 5, (1, 1, 5))
        move = self.first_move(inst)
        assert all(lbl.flag == SHARED_IMAGE for lbl in move)
        assert evaluate(protocol_map_defect().verifier, inst, (move,)).verdict

    def test_dangling_images_without_collision_leave_no_defect(self):
        inst = self.map_instance(gen.path_graph(3), (2, 1, 3), 5, (4, 5, 1))
        assert not map_defect_exists(inst)

    def test_forged_lost_edge_with_stacked_roots_is_rejected(self):
        # reflection of the path: ends swap, middle is fixed.  The forged
        # certificate roots the witness and image trees at the fixed node,
        # whose witness duty passes; the co-located image-side duty fails.
        inst = self.map_instance(gen.path_graph(3), (2, 1, 3), 5, (3, 1, 2))
        ta, tc = tree(inst, 1), tree(inst, 1)
        tb, td = tree(inst, 0), tree(inst, 2)
        forged = Labelling(
            MapDefect(LOST_EDGE, ta[v], tb[v], tc[v], td[v])
            for v in range(3))
        decision = evaluate(protocol_map_defect().verifier, inst, (forged,))
        assert not decision.verdict
        assert decision.rejecting_nodes == (1,)

    def test_witness_roots_must_differ(self):
        inst = self.map_instance(gen.path_graph(3), (2, 1, 3), 5, (3, 1, 2))
        t0 = tree(inst, 0)
        forged = Labelling(
            MapDefect(LOST_EDGE, t0[v], t0[v], t0[v], t0[v])
            for v in range(3))
        decision = evaluate(protocol_map_defect().verifier, inst, (forged,))
        assert decision.rejecting_nodes == (0, 1, 2)

    def test_mixed_flags_are_rejected_everywhere(self):
        inst = self.map_instance(gen.path_graph(3), (2, 1, 3), 5, (2, 1, 3))
        move = self.first_move(inst)
        broken = move.replace(1, move[1]._replace(flag=GAINED_EDGE))
        decision = evaluate(protocol_map_defect().verifier, inst, (broken,))
        assert decision.rejecting_nodes == (0, 1, 2)


# ---------------------------------------------------------------------------
# full games


class TestGames:
    def test_single_edge_accepts_with_swapped_identities(self):
        inst = inst_of(Graph(2, frozenset({(0, 1)})), (1, 2), 3)
        out = game_evaluate(resolve("nta"), inst, EXHAUSTIVE)
        assert out.verdict
        assert list(out.line[0]) == [NodeImage(2), NodeImage(1)]

    def test_path_end_swap_accepts(self):
        inst = inst_of(gen.path_graph(3), (2, 1, 3), 5)
        out = game_evaluate(resolve("nta"), inst, EXHAUSTIVE)
        assert out.verdict
        # the reflection is the only nontrivial symmetry of the path
        assert list(out.line[0]) == [NodeImage(3), NodeImage(1), NodeImage(2)]

    def test_cycle_and_clique_accept(self):
        for graph, ids, N in ((gen.cycle_graph(4), (1, 2, 3, 4), 6),
                              (gen.clique_graph(4), (4, 2, 3, 1), 6)):
            inst = inst_of(graph, ids, N)
            assert game_evaluate(resolve("nta"), inst, EXHAUSTIVE).verdict
            assert game_evaluate(resolve("nta"), inst, MIXED).verdict

    def test_asymmetric_graph_rejects_exhaustively(self):
        inst = inst_of(ASYMMETRIC_6, (1, 2, 3, 4, 5, 6), 9)
        assert not has_nontrivial_automorphism(ASYMMETRIC_6)
        assert not game_evaluate(resolve("nta"), inst, EXHAUSTIVE).verdict

    def test_asymmetric_graph_rejects_in_mixed_mode(self):
        inst = inst_of(ASYMMETRIC_6, (6, 2, 4, 1, 5, 3), 9)
        out = game_evaluate(resolve("nta"), inst, MIXED)
        assert not out.verdict

    def test_constructive_matches_exhaustive_on_corpus(self):
        corpus = [
            inst_of(Graph(2, frozenset({(0, 1)})), (1, 2), 3),
            inst_of(gen.path_graph(3), (2, 1, 3), 5),
            inst_of(gen.cycle_graph(4), (1, 2, 3, 4), 6),
            inst_of(gen.star_graph(4), (3, 1, 4, 2), 6),
        ]
        for inst in corpus:
            a = game_evaluate(resolve("nta"), inst, EXHAUSTIVE).verdict
            b = game_evaluate(resolve("nta"), inst, CONSTRUCTIVE).verdict
            assert a == b == has_nontrivial_automorphism(inst.graph)

    def test_verdicts_are_identity_invariant(self):
        corpus = [
            inst_of(gen.path_graph(3), (2, 1, 3), 9),
            inst_of(gen.cycle_graph(4), (1, 2, 3, 4), 9),
            inst_of(ASYMMETRIC_6, (1, 2, 3, 4, 5, 6), 12),
        ]
        report = check_protocol(resolve("nta"), corpus, mode=MIXED)
        assert report.ok, report.disagreements

    # A node whose image is not a `NodeImage` rejects, so a map with
    # unreadable images claims no symmetry.  Otherwise the lifted defect
    # check reads such a map as one with no defect.

    @pytest.mark.parametrize("mode", (EXHAUSTIVE, CONSTRUCTIVE))
    def test_lifted_nta_refutes_an_unreadable_map(self, mode):
        inst = plain_instance(asymmetric6())
        assert inst.N == 36
        protocol = resolve("lift:nta")
        assert protocol.language.oracle(inst) is True
        assert game_evaluate(protocol, inst, mode).verdict is True

    def test_an_unreadable_map_is_no_symmetry(self):
        inst = plain_instance(asymmetric6())
        nta = resolve("nta")
        image, *rest = nta.levels
        unreadable = replace(nta, levels=(replace(
            image, cover=lambda instance, earlier: [
                all_invalid_labelling(instance.n)]), *rest))
        assert nta.language.oracle(inst) is False
        assert game_evaluate(unreadable, inst, EXHAUSTIVE).verdict is False


# ---------------------------------------------------------------------------
# domains


class TestDomains:
    def test_image_domain_covers_exactly_the_identifier_space(self):
        inst = inst_of(gen.path_graph(3), (2, 1, 3), 5)
        dom = node_image_domain(inst.n, inst.N)
        decoded = [dom.decode(r) for r in range(1 << dom.width)]
        valid = {lbl for lbl in decoded if lbl is not INVALID}
        assert valid == {NodeImage(i) for i in range(1, 6)}
        for lbl in valid:
            assert dom.decode(dom.encode(lbl)) == lbl

    def test_defect_domain_round_trip(self):
        inst = inst_of(gen.path_graph(3), (2, 1, 3), 5)
        dom = map_defect_domain(inst.n, inst.N)
        t = tree(inst, 0)
        lbl = MapDefect(LOST_EDGE, t[0], t[1], t[2], t[0])
        assert dom.decode(dom.encode(lbl)) == lbl
        assert dom.has_invalid

    def test_defect_domain_fits_the_width_budget(self):
        for graph, ids, N in ((Graph(2, frozenset({(0, 1)})), (1, 2), 3),
                              (ASYMMETRIC_6, (1, 2, 3, 4, 5, 6), 9)):
            inst = inst_of(graph, ids, N)
            idb = id_width(inst.N)
            assert map_defect_domain(inst.n, inst.N).width <= 14 * idb

    def test_defect_domain_fits_the_smallest_identifier_space(self):
        # At n = N = 2 each identity takes one bit, and the four trees'
        # parent flags are the four bits over 14 of them.
        dom = map_defect_domain(2, 2)
        assert dom.width == dom.budget == 14 + 4
        with pytest.raises(DomainError):
            LabelDomain(dom.name, dom.c, 2, 2, dom.fields, dom.make)
