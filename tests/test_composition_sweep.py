"""Every composition of the registered protocols either is refused by name
or plays to its oracle's verdict.

The sweep resolves 294 names: the 14 registered ones, each of them under
one or two ``lift:``/``collapse:`` prefixes, and every ``unanimous:A+B``.
A transform must work on a protocol or refuse it when it is built, with
a ``ProtocolError``; no game is refused once it is built, since
constructive play searches a prover level with no strategy.  Each name
that builds is played, exhaustive and constructive, on the small corpus
instances of its left base name (the name with its prefixes dropped, or
``A`` of ``unanimous:A+B``), and every verdict of a protocol that
declares a language must be its oracle's.
"""
from __future__ import annotations

from itertools import product

from locdec.engine import CONSTRUCTIVE, EXHAUSTIVE, game_evaluate
from locdec.protocol import ProtocolError
from locdec.protocols import names, resolve

from corpus import small_instances

PREFIXES = ("lift:", "collapse:")


def composed_names() -> list[str]:
    base = names()
    return [*base,
            *(p + b for p in PREFIXES for b in base),
            *(p + q + b for p, q in product(PREFIXES, PREFIXES) for b in base),
            *(f"unanimous:{a}+{b}" for a, b in product(base, base))]


def left_base(name: str) -> str:
    left = name.removeprefix("unanimous:").partition("+")[0]
    while left.startswith(PREFIXES):
        left = left.partition(":")[2]
    return left


def test_the_sweep_names_each_composition_once():
    swept = composed_names()
    assert len(swept) == len(set(swept)) == 14 + 28 + 56 + 196
    assert {left_base(name) for name in swept} == set(names())


def test_compositions_are_refused_by_name_or_play_their_oracles():
    built, refused, games, disagreements = [], [], 0, []
    for name in composed_names():
        try:
            protocol = resolve(name)
        except ProtocolError:
            refused.append(name)
            continue
        built.append(name)
        oracle = protocol.language and protocol.language.oracle
        for inst in small_instances(left_base(name)):
            for mode in (EXHAUSTIVE, CONSTRUCTIVE):
                # Any error, a ProtocolError among them, fails the sweep.
                outcome = game_evaluate(protocol, inst, mode)
                games += 1
                if oracle and outcome.verdict != oracle(inst):
                    disagreements.append((name, mode.constructive, inst))
    assert (len(built), len(refused)) == (142, 152)
    # Every game that starts ends: `lift:cycle-vc` and `lift:nta` hand
    # the base's disprover level to the prover with no strategy, and
    # constructive play searches it.
    assert games == 1_008
    assert disagreements == []
