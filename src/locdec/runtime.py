"""Local verifier execution: per-node decisions over ball views, conjunct verdict."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .graphs import BallView, Instance, ball


class VerifierError(ValueError):
    """Raised when a verifier is run against mismatched labellings."""


@dataclass(frozen=True)
class LocalVerifier:
    """A radius-``t`` decision rule applied independently at every node.

    ``decide`` must be pure: equal ball views yield equal decisions, and it
    may only inspect what the view exposes.
    """

    radius: int
    layer_count: int
    decide: Callable[[BallView], bool]

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise VerifierError(f"radius must be non-negative, got {self.radius}")
        if self.layer_count < 0:
            raise VerifierError(f"layer count must be non-negative, got {self.layer_count}")


@dataclass(frozen=True)
class Decision:
    """Per-node accept/reject outcomes; the verdict is their conjunction."""

    accepts: tuple[bool, ...]

    @property
    def verdict(self) -> bool:
        return all(self.accepts)

    def at(self, v: int) -> bool:
        return self.accepts[v]

    @property
    def rejecting_nodes(self) -> tuple[int, ...]:
        return tuple(v for v, ok in enumerate(self.accepts) if not ok)


def _check_layers(verifier: LocalVerifier, instance: Instance,
                  labellings: Sequence[Sequence[object]]) -> None:
    if len(labellings) != verifier.layer_count:
        raise VerifierError(
            f"verifier reads {verifier.layer_count} labelling layers, got {len(labellings)}")
    for i, lab in enumerate(labellings):
        if len(lab) != instance.n:
            raise VerifierError(
                f"labelling {i} covers {len(lab)} nodes, instance has {instance.n}")


def evaluate(verifier: LocalVerifier, instance: Instance,
             labellings: Sequence[Sequence[object]] = ()) -> Decision:
    """Run the verifier at every node and collect the full decision map."""
    labellings = tuple(labellings)
    _check_layers(verifier, instance, labellings)
    accepts = tuple(
        bool(verifier.decide(ball(instance, labellings, v, verifier.radius)))
        for v in range(instance.n))
    return Decision(accepts)


def evaluate_verdict(verifier: LocalVerifier, instance: Instance,
                     labellings: Sequence[Sequence[object]] = (),
                     charge: Optional[Callable[[], None]] = None) -> bool:
    """Verdict-only evaluation, stopping at the first rejecting node.

    ``charge`` is invoked once per node evaluation; callers use it to meter
    work or abort long runs.
    """
    labellings = tuple(labellings)
    _check_layers(verifier, instance, labellings)
    for v in range(instance.n):
        if charge is not None:
            charge()
        if not verifier.decide(ball(instance, labellings, v, verifier.radius)):
            return False
    return True
