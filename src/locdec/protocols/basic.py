"""Single-level protocols for the directly certified languages.

Each certified protocol wraps one certificate scheme through
``protocol.certificate_protocol``: the honest builder is the prover's only
move (none when it has no witness to encode), and the verifier is the
scheme's.
"""

from __future__ import annotations

from typing import Optional

from ..graphs import Instance, Ptr
from ..labels import Labelling, nst_cert_domain, size_cert_domain, tree_cert_domain
from ..oracles import oracle_spanning_tree
from ..protocol import PROVER, LanguageSpec, Protocol, certificate_protocol
from ..runtime import LocalVerifier
from ..schemes import (SchemeError, build_non_spanning_tree_cert, build_size_cert,
                       build_spanning_tree_cert, pointer_structure,
                       verify_non_spanning_tree_cert, verify_size_cert,
                       verify_spanning_tree_cert)


# ---------------------------------------------------------------------------
# proper 3-colouring: no labels at all, the input is the whole story


def properly_three_coloured(instance: Instance) -> bool:
    colours = [instance.input_of(v) for v in range(instance.n)]
    if any(not isinstance(c, int) or not 1 <= c <= 3 for c in colours):
        return False
    return all(colours[u] != colours[v] for u, v in instance.graph.edges)


def _colour_check(ball) -> bool:
    inputs = ball.inputs_in
    centre = ball.centre
    own = inputs[centre]
    if not isinstance(own, int) or not 1 <= own <= 3:
        return False
    for w in ball.adj_in[centre]:
        if inputs[w] == own:
            return False
    return True


def protocol_proper_3colouring() -> Protocol:
    return Protocol(
        "3col", PROVER, (),
        LocalVerifier(1, 0, _colour_check),
        LanguageSpec(properly_three_coloured))


# ---------------------------------------------------------------------------
# spanning tree encoded by the pointer inputs


def _pointer_tree(instance: Instance):
    """Pointer edge set and the unique root, or SchemeError."""
    targets, edges = pointer_structure(instance)
    roots = [v for v in range(instance.n) if targets[v] is None]
    if len(roots) != 1:
        raise SchemeError("pointer inputs need exactly one root")
    return edges, roots[0]


def spanning_tree_inputs(instance: Instance) -> bool:
    """Do the pointer inputs encode a spanning tree rooted at their one
    bottom node?"""
    try:
        edges, _root = _pointer_tree(instance)
    except SchemeError:
        return False
    return oracle_spanning_tree(instance.graph, edges)


def protocol_spanning_tree() -> Protocol:
    def honest(instance: Instance) -> Optional[Labelling]:
        try:
            edges, root = _pointer_tree(instance)
            return build_spanning_tree_cert(instance, edges, root)
        except SchemeError:
            return None

    return certificate_protocol("spanning-tree", tree_cert_domain, honest,
                                verify_spanning_tree_cert,
                                spanning_tree_inputs)


# ---------------------------------------------------------------------------
# every node's input equals the node count


def inputs_equal_size(instance: Instance) -> bool:
    return all(instance.input_of(v) == instance.n
               for v in range(instance.n))


def protocol_size() -> Protocol:
    return certificate_protocol("size", size_cert_domain, build_size_cert,
                                verify_size_cert, inputs_equal_size)


# ---------------------------------------------------------------------------
# the complement: pointer inputs that fail to encode a spanning tree


def non_spanning_tree_inputs(instance: Instance) -> bool:
    """All inputs are pointers but they do not encode a spanning tree."""
    if any(not isinstance(instance.input_of(v), Ptr)
           for v in range(instance.n)):
        return False
    return not spanning_tree_inputs(instance)


def protocol_non_spanning_tree() -> Protocol:
    def honest(instance: Instance) -> Optional[Labelling]:
        try:
            return build_non_spanning_tree_cert(instance)
        except SchemeError:
            return None

    return certificate_protocol("non-spanning-tree", nst_cert_domain, honest,
                                verify_non_spanning_tree_cert,
                                non_spanning_tree_inputs)
