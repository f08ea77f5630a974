"""``LabelDomain.first`` and the domains it is asked of.

``first()`` must name the value ``values()`` yields first, without
enumerating anything: canonical labellings are built from it at every
size.  A level's domain is a function of the node count n and the
identity bound N, so each level builds it once per (n, N) and every game
of that size shares it.  Every bit pattern of a domain decodes to INVALID
or to a value whose encoding decodes back to it, nested INVALID included:
run reports carry labels as those patterns.
"""
from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locdec.engine import CONSTRUCTIVE, EXHAUSTIVE, game_evaluate
from locdec.formulas import parse_formula
from locdec.gen import path_graph
from locdec.graphs import (Graph, IdAssignment, InputAssignment, Instance, Marks,
                           Ptr)
from locdec.labels import INVALID, LabelDomain
from locdec.protocol import canonical_labelling
from locdec.protocols import names, resolve
from locdec.protocols.qbf import encode_qbf

from corpus import TRANSFORMS

PROTOCOLS = (*names(), *TRANSFORMS)

# A domain's values() materialises every field's values, so the direct
# comparison is only made where that stays cheap; past it the fields are
# compared one by one, which ``product`` order makes equivalent.
EAGER_LIMIT = 50_000


def level_domains(n: int, N: int):
    for name in PROTOCOLS:
        for i, level in enumerate(resolve(name).levels):
            yield f"{name}[{i}]", level.domain_of(n, N)


small_sizes = st.tuples(st.integers(1, 3), st.integers(5, 9))


@settings(deadline=None, max_examples=20)
@given(small_sizes)
def test_first_is_what_values_yields_first(size):
    for where, domain in level_domains(*size):
        for f in domain.fields:
            assert f.first == next(iter(f.values())), (where, f.name)
        if sum(f.count for f in domain.fields) <= EAGER_LIMIT:
            assert domain.first() == next(iter(domain.values())), where
        assert domain.contains(domain.first()), where


pattern_sizes = st.tuples(st.integers(1, 5), st.integers(5, 9))


@settings(deadline=None, max_examples=40)
@given(pattern_sizes, st.data())
def test_every_pattern_decodes_to_a_value_that_round_trips(size, data):
    for where, domain in level_domains(*size):
        bits = data.draw(st.integers(0, (1 << domain.width) - 1), label=where)
        value = domain.decode(bits)
        if value is not INVALID:
            assert domain.decode(domain.encode(value)) == value, (where, bits)


def test_canonical_labelling_never_enumerates_values(monkeypatch):
    def refuse(domain):
        raise AssertionError(f"values() called on {domain.name}")

    monkeypatch.setattr(LabelDomain, "values", refuse)
    n = 12
    seen = 0
    for where, domain in level_domains(n, n * n):
        labelling = canonical_labelling(domain)
        assert list(labelling) == [domain.first()] * n, where
        seen += 1
    assert seen == sum(len(resolve(name).levels) for name in PROTOCOLS)


def _same_size_pairs():
    weighted = Instance(Graph(3, frozenset({(0, 1), (0, 2), (1, 2)}),
                              {(0, 1): 1, (0, 2): 2, (1, 2): 3}),
                        IdAssignment((1, 2, 3), 5),
                        InputAssignment((Ptr(None), Ptr(1), Ptr(2))))
    path = Instance(Graph(3, frozenset({(0, 1), (1, 2)}),
                          {(0, 1): 4, (1, 2): 1}),
                    IdAssignment((5, 3, 1), 5),
                    InputAssignment((Ptr(3), Ptr(None), Ptr(3))))
    formulas = tuple(encode_qbf(parse_formula(text)) for text in (
        "Ey1 Ay2: (y1 | y2) & (y1 | ~y2)", "Ey1 Ay2: (y1 | ~y2) & (~y1 | y2)"))
    return (weighted, path), formulas


def _counted(level, counts: list, i: int):
    def domain_of(*args):
        counts[i] += 1
        return level.domain_of(*args)
    return dataclasses.replace(level, domain_of=domain_of)


@pytest.mark.parametrize("name", PROTOCOLS)
def test_level_domains_depend_on_n_and_N_only(name):
    # Two games on different instances of one (n, N) build each level's
    # domain once between them.
    plain, formulas = _same_size_pairs()
    pair = formulas if name.endswith("qbf") else plain
    assert len({(inst.n, inst.N) for inst in pair}) == 1
    protocol = resolve(name)
    counts = [0] * protocol.level_count
    counted = dataclasses.replace(protocol, levels=tuple(
        _counted(lv, counts, i) for i, lv in enumerate(protocol.levels)))
    for inst in pair:
        game_evaluate(counted, inst, CONSTRUCTIVE)
    assert counts == [1] * protocol.level_count, name
    n, N = pair[0].n, pair[0].N
    for lv in counted.levels:
        assert lv.domain_of(n, N) is lv.domain_of(n, N)


@pytest.mark.parametrize("name", (*PROTOCOLS, "lift:lift:spanning-tree"))
def test_every_level_reads_its_domain_through_one_cache(name):
    # A transform that reuses a built level's factory keeps its cache
    # instead of wrapping it in another one.
    for level in resolve(name).levels:
        factory, depth = level.domain_of, 0
        while hasattr(factory, "__wrapped__"):
            factory, depth = factory.__wrapped__, depth + 1
        assert depth == 1, name


def _fallback_cases():
    """Games whose moves come from a level's fallback: a map-defect filler
    tree (nta's identity image), a non-Hamiltonian certificate for a
    Hamiltonian input (tsp), and cycle-vc's canonical claim (thresholds
    that differ) and canonical response (a challenge no cycle covers)."""
    def inst(graph, inputs):
        return Instance(graph, IdAssignment((1, 2, 3), 9), InputAssignment(inputs))

    triangle = {(0, 1): 1, (0, 2): 2, (1, 2): 3}
    cycle = (Marks({2, 3}), Marks({1, 3}), Marks({1, 2}))
    return [
        pytest.param("nta", inst(path_graph(3), (None,) * 3), EXHAUSTIVE,
                     id="nta-filler"),
        pytest.param("tsp", inst(Graph(3, frozenset(triangle), triangle), cycle),
                     EXHAUSTIVE, id="tsp-hamiltonian"),
        pytest.param("cycle-vc", inst(path_graph(3), (1, 2, 1)), CONSTRUCTIVE,
                     id="cycle-vc-claim"),
        pytest.param("cycle-vc", inst(path_graph(3), (1, 1, 1)), CONSTRUCTIVE,
                     id="cycle-vc-response"),
    ]


@pytest.mark.parametrize("name, inst, mode", _fallback_cases())
def test_fallback_moves_read_the_level_domains(name, inst, mode, monkeypatch):
    # A second game of one size builds no domain at all, fallbacks included.
    protocol = resolve(name)
    game_evaluate(protocol, inst, mode)
    built = []
    post_init = LabelDomain.__post_init__

    def counted(self):
        built.append(self.name)
        post_init(self)

    monkeypatch.setattr(LabelDomain, "__post_init__", counted)
    game_evaluate(protocol, inst, mode)
    assert built == []
