"""Strategy audit: wherever exhaustive play wins for the prover,
constructive play wins too.

Every registered protocol, the transformed protocols of
``corpus.TRANSFORMS`` and the double lift ``lift:lift:X`` of every
registered X but ``qbf`` (whose lift is refused) play each of their small
instances under three identity assignments, once over the covers and once
from the strategies.  A double lift plays its base protocol's instances.
"""
from __future__ import annotations

import pytest

from locdec.engine import CONSTRUCTIVE, EXHAUSTIVE, game_evaluate, identity_variants
from locdec.graphs import Ptr
from locdec.protocols import names, resolve

from corpus import TRANSFORMS, small_instances

DOUBLE_LIFT = "lift:lift:"
UNANIMOUS = "unanimous:spanning-tree+non-spanning-tree"
TWO_ROOTS = (Ptr(None), Ptr(1), Ptr(None))

# The standing unanimous defect: the cover's all-no move over INVALID
# no-labels wins at every node, so exhaustive play accepts, while the
# strategy's no-branch plays non-spanning-tree's honest certificate,
# which the combined verifier negates, so constructive play rejects.
DEFECT = pytest.mark.xfail(
    strict=True, reason="unanimous: exhaustive True, constructive False on"
    " a two-root pointer input")


def _instances(name):
    return small_instances(name.removeprefix(DOUBLE_LIFT))


def _cases():
    lifts = [DOUBLE_LIFT + name for name in names() if name != "qbf"]
    for name in (*names(), *TRANSFORMS, *lifts):
        for i, inst in enumerate(_instances(name)):
            marks = [DEFECT] if (name == UNANIMOUS
                                 and inst.inputs.values == TWO_ROOTS) else []
            for j in range(3):
                yield pytest.param(name, i, j, marks=marks,
                                   id=f"{name}-{i}-ids{j}")


@pytest.mark.parametrize("name,index,variant", _cases())
def test_an_exhaustive_win_is_a_constructive_win(name, index, variant):
    protocol = resolve(name)
    inst = identity_variants(_instances(name)[index])[variant]
    if game_evaluate(protocol, inst, EXHAUSTIVE).verdict:
        assert game_evaluate(protocol, inst, CONSTRUCTIVE).verdict
