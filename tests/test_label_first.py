"""``LabelDomain.first`` and the domains it is asked of.

``first()`` must name the value ``values()`` yields first, without
enumerating anything: canonical labellings are built from it at every
size.  Collapse builds the removed level's domain on a stand-in path with
the certified n and the instance's N, so every level domain must depend on
(n, N) alone.
"""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locdec import gen
from locdec.formulas import parse_formula
from locdec.graphs import Graph, IdAssignment, InputAssignment, Instance, Ptr
from locdec.labels import LabelDomain
from locdec.protocol import canonical_labelling
from locdec.protocols import names, resolve
from locdec.protocols.qbf import encode_qbf

TRANSFORMS = ("lift:3col", "unanimous:spanning-tree+non-spanning-tree",
              "collapse:qbf")
PROTOCOLS = (*names(), *TRANSFORMS)

# A domain's values() materialises every field's values, so the direct
# comparison is only made where that stays cheap; past it the fields are
# compared one by one, which ``product`` order makes equivalent.
EAGER_LIMIT = 50_000


def level_domains(instance: Instance):
    for name in PROTOCOLS:
        for i, level in enumerate(resolve(name).levels):
            yield f"{name}[{i}]", level.domain_of(instance)


def path_instance(n: int, N: int) -> Instance:
    return Instance(Graph(n, frozenset((v, v + 1) for v in range(n - 1))),
                    IdAssignment(tuple(range(1, n + 1)), N),
                    InputAssignment((None,) * n))


@st.composite
def small_instances(draw):
    n = draw(st.integers(1, 3))
    N = draw(st.integers(5, 9))
    graph = gen.random_connected_graph(n, draw(st.integers(0, 1000)))
    ids = draw(st.lists(st.integers(1, N), min_size=n, max_size=n, unique=True))
    return Instance(graph, IdAssignment(tuple(ids), N),
                    InputAssignment((None,) * n))


@settings(deadline=None, max_examples=20)
@given(small_instances())
def test_first_is_what_values_yields_first(inst):
    for where, domain in level_domains(inst):
        for f in domain.fields:
            assert f.first == next(iter(f.values())), (where, f.name)
        if sum(f.count for f in domain.fields) <= EAGER_LIMIT:
            assert domain.first() == next(iter(domain.values())), where
        assert domain.contains(domain.first()), where


def test_canonical_labelling_never_enumerates_values(monkeypatch):
    def refuse(domain):
        raise AssertionError(f"values() called on {domain.name}")

    monkeypatch.setattr(LabelDomain, "values", refuse)
    n = 12
    inst = Instance(gen.random_connected_graph(n, 3),
                    IdAssignment(tuple(range(1, n + 1)), n * n),
                    InputAssignment((None,) * n))
    seen = 0
    for where, domain in level_domains(inst):
        labelling = canonical_labelling(domain)
        assert list(labelling) == [domain.first()] * n, where
        seen += 1
    assert seen == sum(len(resolve(name).levels) for name in PROTOCOLS)


def _real_instances():
    weighted = Instance(Graph(3, frozenset({(0, 1), (0, 2), (1, 2)}),
                              {(0, 1): 1, (0, 2): 2, (1, 2): 3}),
                        IdAssignment((1, 2, 3), 5),
                        InputAssignment((Ptr(None), Ptr(1), Ptr(2))))
    plain = Instance(gen.random_connected_graph(4, 7),
                     IdAssignment((9, 2, 14, 5), 16),
                     InputAssignment((3, None, 3, 3)))
    formula = encode_qbf(parse_formula("Ey1 Ay2: (y1 | y2) & (y1 | ~y2)"))
    return weighted, plain, formula


@pytest.mark.parametrize("name", PROTOCOLS)
def test_level_domains_depend_on_n_and_N_only(name):
    weighted, plain, formula = _real_instances()
    for inst in ((formula,) if name.endswith("qbf") else (weighted, plain)):
        stand_in = path_instance(inst.n, inst.N)
        for i, level in enumerate(resolve(name).levels):
            real, path = level.domain_of(inst), level.domain_of(stand_in)
            got = (real.width, real.size, real.has_invalid, real.first())
            want = (path.width, path.size, path.has_invalid, path.first())
            assert got == want, (name, i)
