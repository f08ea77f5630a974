"""Label values and bit-accounted label domains.

A labelling assigns one value per node, drawn from a domain of structured
values plus a shared ``INVALID`` token.  Domains carry a fixed-width binary
encoding so certificate sizes can be audited against a per-node budget of
c * ceil(log2 N) bits.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .graphs import C_IN, MAX_MARKS, Instance, Marks, Ptr


class DomainError(ValueError):
    """Raised for values outside a label domain or malformed labellings."""


class _InvalidToken:
    _instance: Optional["_InvalidToken"] = None

    def __new__(cls) -> "_InvalidToken":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INVALID"


INVALID = _InvalidToken()

# Note: internal decode-failure marker; never escapes this module.
_BAD = object()


@dataclass(frozen=True)
class Labelling:
    """Total map node -> label value, stored positionally."""

    values: tuple[object, ...]

    def __init__(self, values) -> None:
        object.__setattr__(self, "values", tuple(values))

    def __getitem__(self, v: int) -> object:
        return self.values[v]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def replace(self, v: int, value: object) -> "Labelling":
        vals = list(self.values)
        vals[v] = value
        return Labelling(vals)


class TreeCert(NamedTuple):
    root: int
    parent: Optional[int]
    dist: int


class SizeCert(NamedTuple):
    root: int
    parent: Optional[int]
    size: int


class GatherCert(NamedTuple):
    root: int
    parent: Optional[int]
    dist: int
    agg: int


class HamCert(NamedTuple):
    root: int
    parent: Optional[int]
    dist: int
    pos: int


class NSTCert(NamedTuple):
    flag: int
    idx: int
    root1: int
    parent1: Optional[int]
    dist1: int
    cpos: Optional[int]
    clen: Optional[int]
    root2: int
    parent2: Optional[int]
    dist2: int


class NonHamCert(NamedTuple):
    flag: int
    idx: int
    root1: int
    parent1: Optional[int]
    dist1: int
    root2: int
    parent2: Optional[int]
    dist2: int


@dataclass(frozen=True)
class FieldSpec:
    """One fixed-width component of a structured label value."""

    name: str
    width: int
    count: int
    encode: Callable[[object], int]
    decode: Callable[[int], object]
    values: Callable[[], Iterator[object]]

    @property
    def exact(self) -> bool:
        # Every bit pattern of this field decodes to a structured value.
        return self.count == 1 << self.width


def range_field(name: str, lo: int, hi: int, width: Optional[int] = None) -> FieldSpec:
    """Integers lo..hi inclusive; wider storage may be forced via ``width``."""
    if hi < lo:
        raise DomainError(f"empty range for field {name}: [{lo}, {hi}]")
    need = (hi - lo).bit_length()
    if width is None:
        width = need
    elif width < need:
        raise DomainError(f"field {name} needs {need} bits, given {width}")

    def enc(v: object) -> int:
        if not isinstance(v, int) or isinstance(v, bool) or not lo <= v <= hi:
            raise DomainError(f"field {name}: {v!r} outside [{lo}, {hi}]")
        return v - lo

    def dec(raw: int) -> object:
        return lo + raw if raw <= hi - lo else _BAD

    return FieldSpec(name, width, hi - lo + 1, enc, dec,
                     lambda: iter(range(lo, hi + 1)))


def id_field(name: str, N: int) -> FieldSpec:
    return range_field(name, 1, N)


def optional_id_field(name: str, N: int) -> FieldSpec:
    """An identity in [1, N] or None, with a presence flag in the top bit."""
    idw = (N - 1).bit_length()

    def enc(v: object) -> int:
        if v is None:
            return 0
        if not isinstance(v, int) or isinstance(v, bool) or not 1 <= v <= N:
            raise DomainError(f"field {name}: {v!r} is neither None nor an id in [1, {N}]")
        return (1 << idw) | (v - 1)

    def dec(raw: int) -> object:
        if raw >> idw == 0:
            return None if raw == 0 else _BAD
        payload = raw & ((1 << idw) - 1)
        return payload + 1 if payload < N else _BAD

    def vals() -> Iterator[object]:
        yield None
        yield from range(1, N + 1)

    return FieldSpec(name, idw + 1, N + 1, enc, dec, vals)


def flag_field(name: str, count: int) -> FieldSpec:
    """Small enumerated tag 0..count-1."""
    return range_field(name, 0, count - 1)


def optional_range_field(name: str, lo: int, hi: int) -> FieldSpec:
    """An integer in lo..hi or None, with a presence flag in the top bit."""
    base = (hi - lo).bit_length()

    def enc(v: object) -> int:
        if v is None:
            return 0
        if not isinstance(v, int) or isinstance(v, bool) or not lo <= v <= hi:
            raise DomainError(f"field {name}: {v!r} is neither None nor in [{lo}, {hi}]")
        return (1 << base) | (v - lo)

    def dec(raw: int) -> object:
        if raw >> base == 0:
            return None if raw == 0 else _BAD
        payload = raw & ((1 << base) - 1)
        return lo + payload if payload <= hi - lo else _BAD

    def vals() -> Iterator[object]:
        yield None
        yield from range(lo, hi + 1)

    return FieldSpec(name, base + 1, hi - lo + 2, enc, dec, vals)


def input_value_field(name: str, instance: Instance) -> FieldSpec:
    """A node input value (None, bounded int, pointer or marks).

    Two tag bits select the shape; the payload reuses the instance's input
    budget of C_IN identity-sized units, so any value a node of this
    instance could carry as input is encodable.
    """
    idb = instance.id_bits
    N = instance.N
    payload = C_IN * idb
    id_mask = (1 << idb) - 1
    hi_int = N * N

    def enc(v: object) -> int:
        if v is None:
            return 0
        if isinstance(v, int) and not isinstance(v, bool) and 0 <= v <= hi_int:
            return (1 << payload) | v
        if isinstance(v, Ptr):
            if v.to is None:
                return 2 << payload
            if isinstance(v.to, int) and 1 <= v.to <= N:
                return (2 << payload) | v.to
        if isinstance(v, Marks):
            ids = sorted(v.ids)
            if (len(ids) <= MAX_MARKS
                    and all(isinstance(i, int) and 1 <= i <= N for i in ids)):
                raw = len(ids)
                for pos, ident in enumerate(ids):
                    raw |= (ident - 1) << (2 + pos * idb)
                return (3 << payload) | raw
        raise DomainError(f"field {name}: {v!r} is not an encodable input value")

    def dec(raw: int) -> object:
        tag, body = raw >> payload, raw & ((1 << payload) - 1)
        if tag == 0:
            return None if body == 0 else _BAD
        if tag == 1:
            return body if body <= hi_int else _BAD
        if tag == 2:
            if body == 0:
                return Ptr(None)
            return Ptr(body) if body <= N else _BAD
        cnt = body & 3
        if cnt > MAX_MARKS or body >> (2 + cnt * idb):
            return _BAD
        ids = [((body >> (2 + pos * idb)) & id_mask) + 1 for pos in range(cnt)]
        # Ascending slots keep the encoding canonical.
        if any(ids[i] >= ids[i + 1] for i in range(cnt - 1)):
            return _BAD
        if any(i > N for i in ids):
            return _BAD
        return Marks(ids)

    def vals() -> Iterator[object]:
        yield None
        yield from range(hi_int + 1)
        yield Ptr(None)
        for i in range(1, N + 1):
            yield Ptr(i)
        yield Marks(())
        for i in range(1, N + 1):
            yield Marks((i,))
        for i in range(1, N + 1):
            for j in range(i + 1, N + 1):
                yield Marks((i, j))

    count = (1 + (hi_int + 1) + (N + 1)
             + 1 + N + N * (N - 1) // 2)
    return FieldSpec(name, 2 + payload, count, enc, dec, vals)


def sub_field(name: str, domain: "LabelDomain") -> FieldSpec:
    """Embeds another domain as one component; bad patterns carry INVALID."""

    def enc(v: object) -> int:
        if v is INVALID:
            raise DomainError(f"field {name}: INVALID has no canonical encoding")
        return domain.encode(v)

    def dec(raw: int) -> object:
        return domain.decode(raw)

    spare = domain.size < 1 << domain.width

    def vals() -> Iterator[object]:
        yield from domain.values()
        if spare:
            yield INVALID

    return FieldSpec(name, domain.width, domain.size + (1 if spare else 0),
                     enc, dec, vals)


@dataclass(frozen=True)
class LabelDomain:
    """Finite set of structured label values with a fixed-width encoding.

    ``decode`` is total on width-bit integers: patterns that fit no structured
    value yield INVALID.  The budget is c * ceil(log2 N) bits (floored at c),
    and the packed width never exceeds it.
    """

    name: str
    c: int
    instance: Instance
    fields: tuple[FieldSpec, ...]
    make: Callable[..., object]

    def __post_init__(self) -> None:
        if self.width > self.budget:
            raise DomainError(
                f"domain {self.name}: width {self.width} exceeds budget {self.budget}"
                f" (c={self.c}, N={self.instance.N})")

    @cached_property
    def width(self) -> int:
        return sum(f.width for f in self.fields)

    @cached_property
    def budget(self) -> int:
        return self.c * max(1, (self.instance.N - 1).bit_length())

    @cached_property
    def size(self) -> int:
        total = 1
        for f in self.fields:
            total *= f.count
        return total

    @property
    def has_invalid(self) -> bool:
        # Spare bit patterns exist, so INVALID is a playable label value.
        return self.size < 1 << self.width

    def bit_size(self, value: object) -> int:
        if value is INVALID:
            raise DomainError("INVALID has no encoded size")
        return self.width

    def encode(self, value: object) -> int:
        if value is INVALID:
            raise DomainError("INVALID has no canonical encoding")
        parts = tuple(value)
        if len(parts) != len(self.fields):
            raise DomainError(
                f"domain {self.name}: value {value!r} has {len(parts)} components,"
                f" expected {len(self.fields)}")
        bits = 0
        for f, part in zip(self.fields, parts):
            bits = (bits << f.width) | f.encode(part)
        return bits

    def decode(self, bits: int) -> object:
        if not 0 <= bits < 1 << self.width:
            raise DomainError(f"domain {self.name}: {bits} is not a {self.width}-bit pattern")
        parts = []
        for f in reversed(self.fields):
            raw = bits & ((1 << f.width) - 1)
            bits >>= f.width
            part = f.decode(raw)
            if part is _BAD:
                return INVALID
            parts.append(part)
        return self.make(*reversed(parts))

    def values(self) -> Iterator[object]:
        for combo in product(*(tuple(f.values()) for f in self.fields)):
            yield self.make(*combo)

    def contains(self, value: object) -> bool:
        if value is INVALID:
            return True
        try:
            self.encode(value)
        except (DomainError, TypeError):
            return False
        return True

    def check_labelling(self, labelling: Sequence[object]) -> None:
        if len(labelling) != self.instance.n:
            raise DomainError(
                f"labelling covers {len(labelling)} nodes, instance has {self.instance.n}")
        for v, value in enumerate(labelling):
            if not self.contains(value):
                raise DomainError(f"node {v}: {value!r} not in domain {self.name}")


class BFSTree(NamedTuple):
    root: int
    parent: tuple[Optional[int], ...]
    dist: tuple[int, ...]
    order: tuple[int, ...]


def build_bfs_tree(instance: Instance, root: int) -> BFSTree:
    """Breadth-first spanning tree, neighbours explored by increasing identity."""
    n = instance.n
    if not 0 <= root < n:
        raise DomainError(f"root {root} not a node of the instance")
    parent: list[Optional[int]] = [None] * n
    dist = [-1] * n
    dist[root] = 0
    order = [root]
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in sorted(instance.graph.neighbours(v), key=instance.id_of):
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                parent[w] = v
                order.append(w)
                queue.append(w)
    return BFSTree(root, tuple(parent), tuple(dist), tuple(order))


def count_width(instance: Instance) -> int:
    # Aggregates range over [0, 2*N*n]: doubled objective totals peak at
    # twice the weight of an n-edge tour with every weight at the cap N.
    return max(1, (2 * instance.N * instance.n).bit_length())


def tree_cert_domain(instance: Instance) -> LabelDomain:
    n, N = instance.n, instance.N
    fields = (id_field("root", N),
              optional_id_field("parent", N),
              range_field("dist", 0, n - 1))
    return LabelDomain("tree-cert", 3, instance, fields, TreeCert)


def size_cert_domain(instance: Instance) -> LabelDomain:
    n, N = instance.n, instance.N
    fields = (id_field("root", N),
              optional_id_field("parent", N),
              range_field("size", 1, n, width=count_width(instance)))
    return LabelDomain("size-cert", 5, instance, fields, SizeCert)


def gather_cert_domain(instance: Instance) -> LabelDomain:
    n, N = instance.n, instance.N
    fields = (id_field("root", N),
              optional_id_field("parent", N),
              range_field("dist", 0, n - 1),
              range_field("agg", 0, 2 * N * n, width=count_width(instance)))
    return LabelDomain("gather-cert", 6, instance, fields, GatherCert)


def ham_cert_domain(instance: Instance) -> LabelDomain:
    n, N = instance.n, instance.N
    fields = (id_field("root", N),
              optional_id_field("parent", N),
              range_field("dist", 0, n - 1),
              range_field("pos", 0, n - 1))
    return LabelDomain("ham-cert", 4, instance, fields, HamCert)


def nst_cert_domain(instance: Instance) -> LabelDomain:
    n, N = instance.n, instance.N
    fields = (flag_field("flag", 3),
              range_field("idx", 1, max(2, n)),
              id_field("root1", N),
              optional_id_field("parent1", N),
              range_field("dist1", 0, n - 1),
              optional_range_field("cpos", 0, n - 1),
              optional_range_field("clen", 2, max(2, n)),
              id_field("root2", N),
              optional_id_field("parent2", N),
              range_field("dist2", 0, n - 1))
    return LabelDomain("nst-cert", 11, instance, fields, NSTCert)


def non_ham_cert_domain(instance: Instance) -> LabelDomain:
    n, N = instance.n, instance.N
    fields = (flag_field("flag", 2),
              range_field("idx", 1, max(2, n)),
              id_field("root1", N),
              optional_id_field("parent1", N),
              range_field("dist1", 0, n - 1),
              id_field("root2", N),
              optional_id_field("parent2", N),
              range_field("dist2", 0, n - 1))
    return LabelDomain("non-ham-cert", 8, instance, fields, NonHamCert)
