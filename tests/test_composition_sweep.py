"""Every composition of the registered protocols either is refused by name
or plays to its oracle's verdict.

The sweep resolves 294 names: the 14 registered ones, each of them under
one or two ``lift:``/``collapse:`` prefixes, and every ``unanimous:A+B``.
A transform must work on a protocol or refuse it when it is built, with
a ``ProtocolError``; the one other refusal allowed is at game start, when
constructive play reaches a level with no strategy.  Each name that
builds is played, exhaustive and constructive, on the small corpus
instances of its left base name (the name with its prefixes dropped, or
``A`` of ``unanimous:A+B``), and every verdict of a protocol that
declares a language must be its oracle's.
"""
from __future__ import annotations

import re
from itertools import product

from locdec.engine import CONSTRUCTIVE, EXHAUSTIVE, game_evaluate
from locdec.protocol import ProtocolError
from locdec.protocols import names, resolve

from corpus import small_instances

PREFIXES = ("lift:", "collapse:")
NO_STRATEGY = re.compile(r"(.+): level (\d+) has no strategy for"
                         r" constructive play")


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
    built, refused, games = [], [], 0
    start_refusals, disagreements = [], []
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
                try:
                    outcome = game_evaluate(protocol, inst, mode)
                except ProtocolError as exc:
                    match = NO_STRATEGY.fullmatch(str(exc))
                    assert match and mode is CONSTRUCTIVE, (name, str(exc))
                    start_refusals.append((match[1], int(match[2])))
                    continue
                games += 1
                if oracle and outcome.verdict != oracle(inst):
                    disagreements.append((name, mode.constructive, inst))
    assert (len(built), len(refused)) == (142, 152)
    assert (games, len(start_refusals)) == (1_002, 6)
    # `complement_lift` hands the base's disprover level to the prover
    # with no strategy, so constructive play cannot start it.
    assert set(start_refusals) == {("lift:cycle-vc", 2), ("lift:nta", 2)}
    assert disagreements == []
