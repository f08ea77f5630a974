"""Formula encodings and the alternating truth game."""

from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locdec import gen
from locdec.engine import (CONSTRUCTIVE, EXHAUSTIVE, EvalMode, check_protocol,
                           game_evaluate, identity_variants)
from locdec.formulas import Formula, FormulaError, parse_formula
from locdec.graphs import (Cls, Graph, IdAssignment, InputAssignment,
                           Instance, InstanceError, Lit)
from locdec.labels import Labelling
from locdec.oracles import oracle_qbf
from locdec.protocol import ProtocolError, all_invalid_labelling
from locdec.protocols import resolve
from locdec.protocols.qbf import (TruthLabel, decode_qbf, encode_qbf,
                                  protocol_qbf_k)
from locdec.runtime import evaluate

from reference import formula_text

WIDE = EvalMode(node_cap=32)
WIDEST = EvalMode(node_cap=64)
WIDE_CONSTRUCTIVE = EvalMode(constructive=True, node_cap=64)


@cache
def wide_formula_games(k: int, square_ids: bool = False) -> tuple:
    """Connected formulas ``gen.random_formula(seed, max_vars=6,
    max_clauses=5, k=k)`` for seeds 0-149, each under two identity
    assignments; with ``square_ids`` the identity bound is n**2, not n."""
    games = []
    for seed in range(150):
        try:
            inst = encode_qbf(gen.random_formula(seed, max_vars=6,
                                                 max_clauses=5, k=k))
        except InstanceError:
            continue
        if square_ids:
            inst = Instance(inst.graph, IdAssignment(inst.ids.ids,
                                                     inst.n ** 2),
                            inst.inputs)
        games.extend(identity_variants(inst, 2))
    return tuple(games)


# ---------------------------------------------------------------------------
# encoding and decoding


class TestEncoding:
    def test_single_positive_clause(self):
        inst = encode_qbf(parse_formula("∃y:(y)"))
        assert inst.n == 3
        assert inst.graph.edges == frozenset({(0, 1), (0, 2)})
        assert inst.inputs.values == (Lit(1, 1), Lit(1, -1), Cls())

    def test_contradiction_pair(self):
        inst = encode_qbf(parse_formula("∃y:(y)∧(¬y)"))
        assert inst.n == 4
        assert inst.graph.edges == frozenset({(0, 1), (0, 2), (1, 3)})
        assert inst.inputs.values == (Lit(1, 1), Lit(1, -1), Cls(), Cls())

    def test_two_level_formula_marks_levels(self):
        inst = encode_qbf(parse_formula("∃y1∀y2:(y1∨y2)∧(y1∨¬y2)"))
        assert inst.inputs.values[:4] == (Lit(1, 1), Lit(1, -1),
                                          Lit(2, 1), Lit(2, -1))

    def test_empty_clause_is_unrepresentable(self):
        with pytest.raises(FormulaError):
            Formula((("y",),), (frozenset(),))

    def test_split_formula_has_no_connected_encoding(self):
        with pytest.raises(InstanceError):
            encode_qbf(parse_formula("∃a b:(a)∧(b)"))

    def test_decode_round_trip(self):
        f = parse_formula("∃y1∀y2:(y1∨y2)∧(y1∨¬y2)")
        g = decode_qbf(encode_qbf(f))
        assert tuple(len(b) for b in g.blocks) == (1, 1)
        assert oracle_qbf(g) == oracle_qbf(f)
        assert formula_text(g) == "∃x1 ∀x2: (x1 ∨ x2) ∧ (x1 ∨ ¬x2)"

    def test_decode_rejects_plain_graphs(self):
        inst = Instance(gen.path_graph(3), IdAssignment((1, 2, 3), 3),
                        InputAssignment((None, None, None)))
        with pytest.raises(FormulaError):
            decode_qbf(inst)

    def test_decode_rejects_unpartnered_literals(self):
        inst = Instance(Graph(2, frozenset({(0, 1)})),
                        IdAssignment((1, 2), 2),
                        InputAssignment((Lit(1, 1), Cls())))
        with pytest.raises(FormulaError):
            decode_qbf(inst)


# ---------------------------------------------------------------------------
# games


class TestGames:
    def test_single_clause_accepts_with_true(self):
        inst = encode_qbf(parse_formula("∃y:(y)"))
        out = game_evaluate(protocol_qbf_k(1), inst, EXHAUSTIVE)
        assert out.verdict
        assert list(out.line[0]) == [TruthLabel(1), TruthLabel(0),
                                     TruthLabel(None)]

    def test_contradiction_rejects_all_assignments(self):
        inst = encode_qbf(parse_formula("∃y:(y)∧(¬y)"))
        assert not game_evaluate(protocol_qbf_k(1), inst, EXHAUSTIVE).verdict

    def test_two_level_example_accepts(self):
        inst = encode_qbf(parse_formula("∃y1∀y2:(y1∨y2)∧(y1∨¬y2)"))
        assert game_evaluate(resolve("qbf"), inst, EXHAUSTIVE).verdict
        assert game_evaluate(resolve("qbf"), inst, CONSTRUCTIVE).verdict

    def test_deeper_formula_than_game_is_an_error(self):
        inst = encode_qbf(parse_formula("∃y1∀y2:(y1∨y2)∧(y1∨¬y2)"))
        with pytest.raises(ProtocolError):
            game_evaluate(protocol_qbf_k(1), inst, EXHAUSTIVE)

    def test_levels_beyond_depth_carry_blank_labels(self):
        inst = encode_qbf(parse_formula("∃y:(y)"))
        out = game_evaluate(protocol_qbf_k(3), inst, EXHAUSTIVE)
        assert out.verdict
        assert all(lbl == TruthLabel(None) for lbl in out.line[1])

    def test_verdict_matches_oracle_on_generated_formulas(self):
        p = resolve("qbf")
        tested = 0
        for seed in range(120):
            f = gen.random_formula(seed, max_vars=4, max_clauses=3, k=2)
            try:
                inst = encode_qbf(f)
            except InstanceError:
                continue
            tested += 1
            want = oracle_qbf(f)
            assert game_evaluate(p, inst, WIDE).verdict == want, formula_text(f)
        assert tested >= 40

    def test_collapsed_game_matches_oracle_on_generated_formulas(self):
        # The universal level is played inside each ball, on a domain the
        # verifier builds from the certified node count alone.
        corpus = []
        for seed in range(60):
            try:
                corpus.append(encode_qbf(
                    gen.random_formula(seed, max_vars=4, max_clauses=3, k=2)))
            except InstanceError:
                continue
            if len(corpus) == 15:
                break
        assert len(corpus) == 15
        report = check_protocol(resolve("collapse:qbf"), corpus, mode=WIDE)
        assert report.total_runs == 45
        assert not report.disagreements, report.disagreements

    @pytest.mark.parametrize("name, k", [("collapse:qbf", 2),
                                         ("collapse:qbf-4", 4)])
    def test_collapsed_game_matches_oracle_on_wider_formulas(self, name, k):
        # Up to 17 nodes.  A clause ball holds up to 4 members, and the
        # collapsed verifier branches only on the labels the clause reads.
        corpus, seed = [], 0
        while len(corpus) < 40:
            f = gen.random_formula(seed, max_vars=6, max_clauses=5, k=k)
            seed += 1
            try:
                corpus.append((encode_qbf(f), oracle_qbf(f)))
            except InstanceError:
                continue
        assert {want for _, want in corpus} == {True, False}
        report = check_protocol(resolve(name), [i for i, _ in corpus],
                                mode=WIDE, id_rounds=2)
        assert report.total_runs == 80
        assert not report.disagreements, report.disagreements

    def test_three_level_strategies_win_every_won_game(self):
        # qbf's prover levels carry no strategy, so constructive play
        # searches levels 1 and 3 over their covers, as exhaustive play
        # does; the level-3 search reads the literal truths the earlier
        # levels set.
        p = protocol_qbf_k(3)
        constructive = EvalMode(constructive=True, node_cap=32)
        formulas = []
        for seed in range(100):
            f = gen.random_formula(seed, max_vars=4, max_clauses=4, k=3)
            try:
                formulas.append((f, encode_qbf(f)))
            except InstanceError:
                continue
            if len(formulas) == 20:
                break
        assert len(formulas) == 20
        verdicts = []
        for f, inst in formulas:
            want = oracle_qbf(f)
            for variant in identity_variants(inst, 2):
                assert game_evaluate(p, variant, WIDE).verdict == want, formula_text(f)
                assert game_evaluate(p, variant, constructive).verdict == want, \
                    formula_text(f)
                verdicts.append(want)
        assert len(verdicts) == 40 and True in verdicts and False in verdicts

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_strategy_plays_the_exhaustive_line(self, k):
        # The prover's levels carry no strategy and are searched, so
        # constructive and exhaustive play give the same outcome: verdict,
        # principal line, leaf and stats.  Four levels need more seeds to
        # reach 40 games, as fewer formulas encode.
        p = protocol_qbf_k(k)
        games = 0
        for seed in range(120 if k == 4 else 60):
            try:
                inst = encode_qbf(gen.random_formula(seed, k=k))
            except InstanceError:
                continue
            for variant in identity_variants(inst, 2):
                built = game_evaluate(p, variant, CONSTRUCTIVE)
                searched = game_evaluate(p, variant, EXHAUSTIVE)
                assert built == searched, (seed, variant.ids)
                games += 1
        assert games >= 40

    def test_searched_levels_play_the_exhaustive_game_on_wider_formulas(self):
        # 488 games of up to 17 nodes: every depth k = 1-4, each connected
        # formula under two identity assignments.
        games = 0
        for k in (1, 2, 3, 4):
            p = protocol_qbf_k(k)
            for inst in wide_formula_games(k):
                assert game_evaluate(p, inst, WIDE_CONSTRUCTIVE) \
                    == game_evaluate(p, inst, WIDEST), inst.ids
                games += 1
        assert games == 488

    def test_collapsed_searched_level_plays_the_exhaustive_game(self):
        # collapse_last_universal leaves the widened level with no
        # strategy, so it is searched.
        p = resolve("collapse:qbf")
        for inst in wide_formula_games(2):
            assert game_evaluate(p, inst, WIDE_CONSTRUCTIVE) \
                == game_evaluate(p, inst, WIDEST), inst.ids

    def test_double_lift_searches_the_base_prover_levels(self):
        # lift:lift:qbf-3 gives qbf-3's levels back to the prover with no
        # strategy, so they are searched.  Its added final level plays
        # complement_lift's strategy, one move where the search tries roots
        # in identity order, so the stats differ; the outcome does not, and
        # the strategy tries no more leaves.
        p = resolve("lift:lift:qbf-3")
        verdicts = set()
        for k in (1, 2, 3):
            for inst in wide_formula_games(k, square_ids=True):
                built = game_evaluate(p, inst, WIDE_CONSTRUCTIVE)
                searched = game_evaluate(p, inst, WIDEST)
                assert (built.verdict, built.line, built.leaf) \
                    == (searched.verdict, searched.line, searched.leaf), \
                    inst.ids
                assert built.stats.leaf_evaluations \
                    <= searched.stats.leaf_evaluations
                verdicts.add(built.verdict)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("name,k,modes", [
        ("lift:qbf-1", 1, (WIDE_CONSTRUCTIVE, WIDEST)),
        ("lift:lift:qbf-3", 3, (WIDE_CONSTRUCTIVE,)),
    ], ids=["lift:qbf-1", "lift:lift:qbf-3"])
    def test_lifts_play_formula_encodings(self, name, k, modes):
        # encode_qbf bounds identities by the node count, N = n, the
        # tightest bound the tree certificate the lift adds must fit.
        p = resolve(name)
        verdicts = set()
        for inst in wide_formula_games(k):
            assert inst.N == inst.n
            for mode in modes:
                verdict = game_evaluate(p, inst, mode).verdict
                assert verdict is p.language.oracle(inst), inst.ids
                verdicts.add(verdict)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_every_depth_resolves_by_its_own_name(self, k):
        assert resolve(protocol_qbf_k(k).name).level_count == k

    def test_six_variable_two_block_formula(self):
        f = parse_formula("∃a b c∀d e f:(a∨d)∧(b∨¬e)∧(c∨f)∧(¬a∨¬d)"
                          "∧(a∨b∨¬c)∧(d∨e∨¬f)")
        inst = encode_qbf(f)
        assert not oracle_qbf(f)
        assert not game_evaluate(resolve("qbf"), inst, WIDE).verdict

    def test_verdict_is_identity_invariant(self):
        inst = encode_qbf(parse_formula("∃y1∀y2:(y1∨y2)∧(y1∨¬y2)"))
        report = check_protocol(resolve("qbf"), [inst])
        assert not report.disagreements, report.disagreements


# ---------------------------------------------------------------------------
# verifier readings


class TestVerifier:
    def setup_method(self):
        self.f = Formula((("a",), ("b",)),
                         (frozenset({("b", 1), ("b", -1)}),
                          frozenset({("a", 1), ("b", 1)})))
        self.inst = encode_qbf(self.f)
        self.verifier = resolve("qbf").verifier
        # nodes: a+ a- b+ b- c1 c2
        self.a_true = Labelling([TruthLabel(1), TruthLabel(0),
                                 TruthLabel(None), TruthLabel(None),
                                 TruthLabel(None), TruthLabel(None)])

    def test_consistent_universal_assignment_reads_as_played(self):
        b_false = Labelling([TruthLabel(None), TruthLabel(None),
                             TruthLabel(0), TruthLabel(1),
                             TruthLabel(None), TruthLabel(None)])
        d = evaluate(self.verifier, self.inst, (self.a_true, b_false))
        assert d.verdict

    def test_one_sided_universal_values_read_true(self):
        # both polarities false would falsify the tautological clause;
        # the clause node reads the broken pair as true instead
        b_broken = Labelling([TruthLabel(None), TruthLabel(None),
                              TruthLabel(0), TruthLabel(0),
                              TruthLabel(None), TruthLabel(None)])
        d = evaluate(self.verifier, self.inst, (self.a_true, b_broken))
        assert d.verdict

    def test_damaged_universal_level_reads_true(self):
        d = evaluate(self.verifier, self.inst,
                     (self.a_true, all_invalid_labelling(self.inst.n)))
        assert d.verdict

    def test_existential_nodes_enforce_opposite_values(self):
        a_doubled = Labelling([TruthLabel(1), TruthLabel(1),
                               TruthLabel(None), TruthLabel(None),
                               TruthLabel(None), TruthLabel(None)])
        b_false = Labelling([TruthLabel(None), TruthLabel(None),
                             TruthLabel(0), TruthLabel(1),
                             TruthLabel(None), TruthLabel(None)])
        d = evaluate(self.verifier, self.inst, (a_doubled, b_false))
        assert not d.verdict
        assert set(d.rejecting_nodes) == {0, 1}

    def test_true_literal_satisfies_its_clauses(self):
        b_true = Labelling([TruthLabel(None), TruthLabel(None),
                            TruthLabel(1), TruthLabel(0),
                            TruthLabel(None), TruthLabel(None)])
        a_false = Labelling([TruthLabel(0), TruthLabel(1),
                             TruthLabel(None), TruthLabel(None),
                             TruthLabel(None), TruthLabel(None)])
        d = evaluate(self.verifier, self.inst, (a_false, b_true))
        assert d.verdict


# ---------------------------------------------------------------------------
# graphs that encode no formula


@st.composite
def plain_graphs(draw):
    """A random connected graph with None inputs and random identities."""
    n = draw(st.integers(1, 5))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=n)))
    N = draw(st.integers(n, 2 * n + 1))
    ids = draw(st.permutations(range(1, N + 1)))[:n]
    return Instance(Graph(n, frozenset(edges)), IdAssignment(tuple(ids), N),
                    InputAssignment((None,) * n))


@settings(max_examples=40, deadline=None)
@given(inst=plain_graphs(), name=st.sampled_from(["qbf", "collapse:qbf"]),
       mode=st.sampled_from([EXHAUSTIVE, CONSTRUCTIVE]))
def test_plain_graphs_end_with_the_oracle_verdict(inst, name, mode):
    # Covers yield no move and strategies play the canonical labelling,
    # so the game is total and agrees with the oracle (False).
    protocol = resolve(name)
    assert game_evaluate(protocol, inst, mode).verdict \
        is protocol.language.oracle(inst) is False


def _malformed(inputs, edges):
    n = len(inputs)
    return Instance(Graph(n, frozenset(edges)),
                    IdAssignment(tuple(range(1, n + 1)), max(n, 3)),
                    InputAssignment(tuple(inputs)))


@pytest.mark.parametrize("inst", [
    _malformed([Lit(2, 1)], ()),
    _malformed([Lit(2, 1), Cls()], {(0, 1)}),
    _malformed([Lit(2, 1), Lit(2, -1)], {(0, 1)}),
    _malformed([None, Cls()], {(0, 1)}),
], ids=["lone-universal-literal", "unpartnered-literal-clause",
        "level-2-pair-without-level-1", "plain-node-beside-a-clause"])
@pytest.mark.parametrize("name", ["qbf", "collapse:qbf"])
@pytest.mark.parametrize("mode", [EXHAUSTIVE, CONSTRUCTIVE],
                         ids=["exhaustive", "constructive"])
def test_malformed_encodings_are_refused(inst, name, mode):
    # A radius-1 verifier cannot check partners or contiguous levels, so a
    # graph that carries literals or clauses must encode a formula.
    protocol = resolve(name)
    assert protocol.language.oracle(inst) is False
    with pytest.raises(FormulaError):
        game_evaluate(protocol, inst, mode)
