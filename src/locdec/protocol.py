"""Alternating labelling protocols: typed label levels plus a local verifier.

A protocol fixes k label layers, claimed alternately by two players, and a
radius-t verifier run at every node once all layers are down.  The prover
wants every node to accept; the disprover wants one rejection.  A level's
move space is the same whoever owns it: every labelling that puts one
decodable label at each node, that is, a domain value or, when the
encoding has spare bit patterns, ``INVALID``.  Each level describes that
space twice: a label domain (what one node may carry) and a cover (which
whole labellings the evaluator tries).  The cover defaults to the full
product over the domain; a hand-written cover must contain a winning move
for the level's owner whenever the product does, so substituting it never
changes the verdict.

A level's moves follow one rule, stated in ``engine.game_evaluate``: the
checked strategy move on a prover level in constructive play, else the
cover (plus the disprover's all-``INVALID`` forfeit), else the forced
canonical labelling.  A strategy with no better move to make plays
``first_move``, the cover's first move or else the canonical labelling.
A prover level with no strategy is searched in constructive play too:
the paper's prover is unbounded, so a search is a fair strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional, TypeVar

from .graphs import BallView, Instance
from .labels import INVALID, LabelDomain, Labelling
from .runtime import LocalVerifier

PROVER = "prover"
DISPROVER = "disprover"

T = TypeVar("T")


class ProtocolError(ValueError):
    """Raised for ill-formed protocols or unsupported transformations."""


def other_side(side: str) -> str:
    return DISPROVER if side == PROVER else PROVER


def pattern_tag(first: str, k: int) -> str:
    """Quantifier-pattern tag: who moves first and how many levels."""
    if k == 0:
        return "decision-0"
    return f"{'existential' if first == PROVER else 'universal'}-{k}"


# Called as domain_of(n, N): the domain depends on nothing else.
DomainFactory = Callable[[int, int], LabelDomain]
Cover = Callable[[Instance, tuple[Labelling, ...]], Iterable[Labelling]]
Strategy = Callable[[Instance, tuple[Labelling, ...]], Labelling]


@dataclass(frozen=True)
class Level:
    """One labelling round: its domain, move cover and optional strategy.

    ``domain_of(n, N)`` gives the level's domain for n nodes under identity
    bound N.  The level caches it per (n, N), the one place domains are
    cached, so every game of one size shares one domain object.  A factory
    taken from another built level already has that cache and is kept as
    it is, so transforms stacked on one level still read one cache.
    ``cover`` left out (None) binds the full product over that cached
    domain, so a built level always has a cover; the product is drawn
    lazily, and the engine refuses it only once more than ``move_cap``
    moves have been drawn.  ``strategy`` picks the honest move during
    constructive play; left out (None), constructive play searches the
    cover, as exhaustive play does.  It is only consulted on prover
    levels.
    """

    domain_of: DomainFactory
    cover: Optional[Cover] = None
    strategy: Optional[Strategy] = None

    def __post_init__(self) -> None:
        domain_of = self.domain_of
        if not hasattr(domain_of, "cache_info"):
            domain_of = cache(domain_of)
            object.__setattr__(self, "domain_of", domain_of)

        def full_product(instance: Instance, earlier) -> Iterator[Labelling]:
            return product_cover(instance, domain_of(instance.n, instance.N))

        object.__setattr__(self, "cover", self.cover or full_product)


@dataclass(frozen=True)
class LanguageSpec:
    """The graph language a protocol claims to decide, given by its
    oracle.  Its place in the hierarchy is not restated here: it is
    ``pattern_tag(first, level_count)`` of the protocol that decides it."""

    oracle: Callable[[Instance], bool]


@dataclass(frozen=True)
class Protocol:
    name: str
    first: str
    levels: tuple[Level, ...]
    verifier: LocalVerifier
    language: Optional[LanguageSpec] = None

    def __post_init__(self) -> None:
        if self.first not in (PROVER, DISPROVER):
            raise ProtocolError(f"unknown first mover {self.first!r}")
        if self.verifier.layer_count != len(self.levels):
            raise ProtocolError(
                f"{self.name}: verifier reads {self.verifier.layer_count} layers,"
                f" protocol has {len(self.levels)} levels")

    @property
    def level_count(self) -> int:
        return len(self.levels)

    def owner(self, i: int) -> str:
        """Side that places level ``i`` (1-based); strict alternation."""
        if not 1 <= i <= len(self.levels):
            raise ProtocolError(f"{self.name} has no level {i}")
        return self.first if i % 2 == 1 else other_side(self.first)


def certificate_protocol(name: str, domain_of: DomainFactory,
                         honest: Callable[[Instance], Optional[Labelling]],
                         decide: Callable[[BallView], bool],
                         oracle: Callable[[Instance], bool]) -> Protocol:
    """Single prover level whose only move is one honest certificate.

    ``honest(instance)`` builds the certificate, or returns None when there
    is no witness to encode: the cover is then empty, and the strategy
    plays ``first_move``, the canonical labelling.  ``decide`` is the
    radius-1 verifier.
    """

    def cover(instance: Instance, earlier) -> Iterator[Labelling]:
        move = honest(instance)
        if move is not None:
            yield move

    level = Level(domain_of, cover,
                  lambda instance, earlier: first_move(level, instance, earlier))
    return Protocol(name, PROVER, (level,),
                    LocalVerifier(1, 1, decide),
                    LanguageSpec(oracle))


# ---------------------------------------------------------------------------
# default move enumeration


def canonical_labelling(domain: LabelDomain) -> Labelling:
    """First structured value of the domain at every node."""
    return Labelling((domain.first(),) * domain.n)


def first_move(level: Level, instance: Instance,
               earlier: tuple[Labelling, ...] = ()) -> Labelling:
    """The level's cover's first move, else its canonical labelling."""
    for move in level.cover(instance, earlier):
        return move
    return canonical_labelling(level.domain_of(instance.n, instance.N))


def keep_last(fn: Callable[..., T]) -> Callable[..., T]:
    """``fn`` with its last result kept, keyed on the identity of its
    arguments.  The levels of one game pass every cover and strategy the
    same instance object, so a fact a protocol derives from it (a decoded
    encoding, a mapped instance) is derived once per game.  The entry
    holds the arguments, so none can be freed and its id reused while it
    is kept.  A call that raises keeps nothing."""
    last: Optional[tuple] = None  # (arguments, result)

    def call(*args):
        nonlocal last
        if last is None or any(a is not b for a, b in zip(args, last[0])):
            last = (args, fn(*args))
        return last[1]

    return call


def all_invalid_labelling(n: int) -> Labelling:
    return Labelling((INVALID,) * n)


def product_cover(instance: Instance, domain: LabelDomain) -> Iterator[Labelling]:
    """Every labelling over the domain, lexicographic in identity order.

    The node with the smallest identity is the most significant position,
    and each node runs through ``domain.axis()``, read at most one label per
    move drawn, so the move cap also bounds the memory of a huge product.
    """
    order = sorted(range(instance.n), key=instance.id_of)
    labels = domain.axis()
    axis: list[object] = []
    slot: list[object] = [None] * instance.n

    def has(j: int) -> bool:
        if j == len(axis):
            axis.extend(islice(labels, 1))
        return j < len(axis)

    def fill(i: int) -> Iterator[Labelling]:
        if i == len(order):
            yield Labelling(tuple(slot))
            return
        j = 0
        while has(j):
            slot[order[i]] = axis[j]
            yield from fill(i + 1)
            j += 1

    return fill(0)
