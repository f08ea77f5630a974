"""Threshold claims, challenges and cycle responses."""

import pytest

from locdec import gen
from locdec.engine import (CONSTRUCTIVE, EXHAUSTIVE, check_protocol,
                           game_evaluate)
from locdec.graphs import Graph, IdAssignment, InputAssignment, Instance
from locdec.labels import Labelling
from locdec.oracles import oracle_cycle_vc
from locdec.protocol import all_invalid_labelling
from locdec.protocols import resolve
from locdec.protocols.cyclevc import (CycleResponse, SPick, XClaim,
                                      _honest_claim, _response,
                                      cycle_response_domain,
                                      uniform_threshold, x_claim_domain)
from locdec.runtime import evaluate

TWO_TRIANGLES = Graph(6, frozenset({(0, 1), (0, 2), (1, 2),
                                    (2, 3), (3, 4), (3, 5), (4, 5)}))


def inst_of(graph, ids, N, k):
    return Instance(graph, IdAssignment(ids, N),
                    InputAssignment((k,) * graph.n))


def picks(n, chosen):
    return Labelling(SPick(1 if v in chosen else 0) for v in range(n))


# ---------------------------------------------------------------------------
# full games


class TestGames:
    def test_clique_with_threshold_two_accepts(self):
        inst = inst_of(gen.clique_graph(4), (1, 2, 3, 4), 6, 2)
        assert game_evaluate(resolve("cycle-vc"), inst, EXHAUSTIVE).verdict
        assert game_evaluate(resolve("cycle-vc"), inst, CONSTRUCTIVE).verdict

    def test_clique_with_threshold_three_rejects(self):
        inst = inst_of(gen.clique_graph(4), (1, 2, 3, 4), 6, 3)
        assert not oracle_cycle_vc(inst.graph, 3)
        assert not game_evaluate(resolve("cycle-vc"), inst,
                                 EXHAUSTIVE).verdict

    def test_acyclic_graph_rejects_any_positive_threshold(self):
        inst = inst_of(gen.path_graph(3), (2, 1, 3), 5, 1)
        assert not game_evaluate(resolve("cycle-vc"), inst,
                                 EXHAUSTIVE).verdict

    def test_threshold_zero_accepts_with_empty_set(self):
        inst = inst_of(gen.star_graph(4), (3, 1, 4, 2), 6, 0)
        out = game_evaluate(resolve("cycle-vc"), inst, EXHAUSTIVE)
        assert out.verdict
        assert [lbl.member for lbl in out.line[0]] == [0, 0, 0, 0]

    def test_plain_cycle_supports_one_node_but_not_two(self):
        g = gen.cycle_graph(4)
        accept = inst_of(g, (4, 1, 3, 2), 6, 1)
        reject = inst_of(g, (4, 1, 3, 2), 6, 2)
        assert game_evaluate(resolve("cycle-vc"), accept, EXHAUSTIVE).verdict
        assert not game_evaluate(resolve("cycle-vc"), reject,
                                 EXHAUSTIVE).verdict

    @pytest.mark.parametrize("graph, ids, k", (
        (gen.clique_graph(4), (1, 2, 3, 4), 2),
        (gen.cycle_graph(4), (4, 1, 3, 2), 1)))
    def test_constructive_play_searches_the_response(self, graph, ids, k):
        # Yes-instances, so the game reaches the response level, which has
        # no strategy: constructive play searches it as exhaustive play does.
        inst = inst_of(graph, ids, 6, k)
        full = game_evaluate(resolve("cycle-vc"), inst, EXHAUSTIVE)
        played = game_evaluate(resolve("cycle-vc"), inst, CONSTRUCTIVE)
        assert full.verdict is played.verdict is True
        assert played.line == full.line
        assert played.stats.leaf_evaluations == full.stats.leaf_evaluations

    def test_verdict_matches_oracle_across_corpus(self):
        corpus = [
            (gen.clique_graph(4), (1, 2, 3, 4), 6),
            (gen.cycle_graph(4), (4, 1, 3, 2), 6),
            (gen.cycle_graph(3), (1, 3, 2), 5),
            (Graph(4, frozenset({(0, 1), (0, 2), (1, 2), (2, 3)})),
             (2, 4, 1, 3), 6),
            (Graph(1, frozenset()), (1,), 2),
        ]
        for g, ids, N in corpus:
            for k in range(g.n + 2):
                inst = inst_of(g, ids, N, k)
                want = oracle_cycle_vc(g, k)
                got = game_evaluate(resolve("cycle-vc"), inst,
                                    EXHAUSTIVE).verdict
                assert got == want, (g.edges, k)

    def test_mixed_thresholds_reject(self):
        inst = Instance(gen.cycle_graph(3), IdAssignment((1, 2, 3), 5),
                        InputAssignment((1, 1, 2)))
        assert uniform_threshold(inst) is None
        assert not game_evaluate(resolve("cycle-vc"), inst,
                                 EXHAUSTIVE).verdict

    def test_verdict_is_identity_invariant(self):
        corpus = [inst_of(gen.clique_graph(4), (1, 2, 3, 4), 9, 2),
                  inst_of(gen.path_graph(3), (2, 1, 3), 9, 1)]
        report = check_protocol(resolve("cycle-vc"), corpus)
        assert not report.disagreements, report.disagreements


# ---------------------------------------------------------------------------
# verifier readings


class TestVerifier:
    def setup_method(self):
        self.inst = inst_of(gen.clique_graph(4), (1, 2, 3, 4), 6, 2)
        self.verifier = resolve("cycle-vc").verifier
        self.claim = _honest_claim(self.inst, frozenset({0, 1}))

    def test_challenge_outside_the_claim_reads_as_empty(self):
        outside = picks(4, {2})
        layers = (self.claim, outside,
                  _response(self.inst, (self.claim, outside), ()))
        assert evaluate(self.verifier, self.inst, layers).verdict

    def test_damaged_challenge_reads_as_empty(self):
        broken = all_invalid_labelling(4)
        layers = (self.claim, broken,
                  _response(self.inst, (self.claim, broken), ()))
        assert evaluate(self.verifier, self.inst, layers).verdict

    def test_real_challenge_needs_a_real_cycle(self):
        challenge = picks(4, {0, 1})
        empty = _response(self.inst, (self.claim, challenge), ())
        d = evaluate(self.verifier, self.inst,
                     (self.claim, challenge, empty))
        assert not d.verdict

    def test_cycle_through_the_challenge_is_accepted(self):
        challenge = picks(4, {0, 1})
        layers = (self.claim, challenge,
                  _response(self.inst, (self.claim, challenge), (0, 1, 2)))
        assert evaluate(self.verifier, self.inst, layers).verdict

    def test_cycle_through_unchallenged_members_is_rejected(self):
        challenge = picks(4, {0})
        resp = _response(self.inst, (self.claim, challenge), (0, 1, 2))
        d = evaluate(self.verifier, self.inst,
                     (self.claim, challenge, resp))
        assert not d.verdict
        assert 1 in d.rejecting_nodes

    def test_welded_cycles_fail_at_the_seam(self):
        inst = inst_of(TWO_TRIANGLES, (1, 2, 3, 4, 5, 6), 9, 2)
        claim = _honest_claim(inst, frozenset({0, 3}))
        challenge = picks(6, {0, 3})
        welded = _response(inst, (claim, challenge), (0, 1, 2, 3, 4, 5))
        d = evaluate(self.verifier, inst, (claim, challenge, welded))
        assert not d.verdict
        assert d.rejecting_nodes == (0, 5)

    def test_spliced_disjoint_cycles_are_rejected(self):
        inst = inst_of(TWO_TRIANGLES, (1, 2, 3, 4, 5, 6), 9, 2)
        claim = _honest_claim(inst, frozenset({0, 3}))
        challenge = picks(6, {0, 3})
        a = _response(inst, (claim, challenge), (0, 1, 2))
        b = _response(inst, (claim, challenge), (3, 4, 5))
        spliced = Labelling(b[v] if v >= 3 else a[v] for v in range(6))
        d = evaluate(self.verifier, inst, (claim, challenge, spliced))
        assert not d.verdict


# ---------------------------------------------------------------------------
# domains


class TestDomains:
    def test_claim_domain_round_trip(self):
        inst = inst_of(gen.clique_graph(4), (1, 2, 3, 4), 6, 2)
        dom = x_claim_domain(inst.n, inst.N)
        lbl = _honest_claim(inst, frozenset({1, 2}))[0]
        assert isinstance(lbl, XClaim)
        assert dom.decode(dom.encode(lbl)) == lbl

    def test_response_domain_round_trip(self):
        inst = inst_of(gen.clique_graph(4), (1, 2, 3, 4), 6, 2)
        dom = cycle_response_domain(inst.n, inst.N)
        claim = _honest_claim(inst, frozenset({0, 1}))
        resp = _response(inst, (claim, picks(4, {0, 1})), (0, 1, 2))
        for lbl in resp:
            assert isinstance(lbl, CycleResponse)
            assert dom.decode(dom.encode(lbl)) == lbl
        assert dom.has_invalid
