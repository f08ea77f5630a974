"""Named protocol registry with transform prefixes.

``resolve`` turns a name into a protocol.  Plain names come from the
registry table, and ``qbf-<k>`` for k >= 1 is the k-level truth game
(``qbf`` is k = 2, the name it gives itself); the prefixes ``lift:``,
``collapse:`` and ``unanimous:A+B`` apply the corresponding transform of
``transforms`` to resolved names, recursively.  No protocol module imports the game in
``engine``.
"""

from __future__ import annotations

import re
from functools import partial
from typing import Callable

from ..protocol import Protocol, ProtocolError
from ..transforms import collapse_last_universal, complement_lift, unanimous_combine
from . import basic, cyclevc, nta, opt, qbf

_FACTORIES: dict[str, Callable[[], Protocol]] = {
    "3col": basic.protocol_proper_3colouring,
    "spanning-tree": basic.protocol_spanning_tree,
    "size": basic.protocol_size,
    "non-spanning-tree": basic.protocol_non_spanning_tree,
    "nta": nta.protocol_nontrivial_automorphism,
    "qbf": partial(qbf.protocol_qbf_k, 2),
    "cycle-vc": cyclevc.protocol_cycle_vc,
    "mst": opt.protocol_minimum_spanning_tree,
    "tsp": opt.protocol_travelling_salesman,
    "mis": partial(opt.protocol_set_problem, "mis"),
    "mds": partial(opt.protocol_set_problem, "mds"),
    "matching": partial(opt.protocol_set_problem, "matching"),
    "maxcut": partial(opt.protocol_set_problem, "maxcut"),
    "mincut": partial(opt.protocol_set_problem, "mincut"),
}


def names() -> tuple[str, ...]:
    return tuple(sorted(_FACTORIES))


def resolve(name: str) -> Protocol:
    if name.startswith("lift:"):
        return complement_lift(resolve(name[len("lift:"):]))
    if name.startswith("collapse:"):
        return collapse_last_universal(resolve(name[len("collapse:"):]))
    if name.startswith("unanimous:"):
        rest = name[len("unanimous:"):]
        left, sep, right = rest.partition("+")
        if not sep or not left or not right:
            raise ProtocolError(
                f"unanimous needs two protocol names joined by '+', got {rest!r}")
        return unanimous_combine(resolve(left), resolve(right))
    depth = re.fullmatch(r"qbf-([1-9][0-9]*)", name)
    if depth:
        return qbf.protocol_qbf_k(int(depth[1]))
    try:
        return _FACTORIES[name]()
    except KeyError:
        raise ProtocolError(f"unknown protocol {name!r}") from None
