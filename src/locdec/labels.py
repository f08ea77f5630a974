"""Label values and bit-accounted label domains.

A labelling assigns one value per node, drawn from a domain of structured
values plus a shared ``INVALID`` token.  Domains carry a fixed-width binary
encoding so certificate sizes can be audited against a per-node budget of
c * ceil(log2 N) + d bits, for a constant d per domain.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .graphs import C_IN, MAX_MARKS, Edge, Instance, Marks, Ptr, id_width


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


class Labelling(tuple):
    """Total map node -> label value: the tuple of the nodes' labels, in
    node order.  It equals, and hashes as, that plain tuple, and it is the
    row a verifier layer reads."""

    __slots__ = ()

    @property
    def values(self) -> "Labelling":
        """The labelling itself, which is its own tuple of labels."""
        return self


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
    # The value ``values()`` yields first, known without enumerating.
    first: object
    # One raw value that ``decode`` maps to a bad pattern, or None.
    spare: Optional[int] = None


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

    count = hi - lo + 1
    return FieldSpec(name, width, count, enc, dec,
                     lambda: iter(range(lo, hi + 1)), lo,
                     count if count < 1 << width else None)


def id_field(name: str, N: int) -> FieldSpec:
    return range_field(name, 1, N)


def optional_id_field(name: str, N: int) -> FieldSpec:
    """An identity in [1, N] or None, with a presence flag in the top bit."""
    return optional_range_field(name, 1, N)


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

    # With a payload, presence flag 0 over a non-zero payload is bad.
    return FieldSpec(name, base + 1, hi - lo + 2, enc, dec, vals, None,
                     1 if base else None)


def input_value_field(name: str, N: int) -> FieldSpec:
    """A node input value (None, bounded int, pointer or marks).

    Two tag bits select the shape; the payload reuses the input budget of
    C_IN identity-sized units, so any value a node could carry as input
    under the identity bound N is encodable.
    """
    idb = id_width(N)
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
    return FieldSpec(name, 2 + payload, count, enc, dec, vals, None, 1)


def sub_field(name: str, domain: "LabelDomain") -> FieldSpec:
    """Embeds another domain as one component; bad patterns carry INVALID,
    which encodes as the domain's ``spare`` pattern."""

    def enc(v: object) -> int:
        if v is not INVALID:
            return domain.encode(v)
        if domain.spare is None:
            raise DomainError(
                f"field {name}: domain {domain.name} has no pattern for INVALID")
        return domain.spare

    return FieldSpec(name, domain.width, domain.size + int(domain.has_invalid),
                     enc, domain.decode, domain.axis, domain.first())


@dataclass(frozen=True)
class LabelDomain:
    """Finite set of structured label values with a fixed-width encoding.

    ``decode`` is total on width-bit integers: patterns that fit no structured
    value yield INVALID.  The budget is c * ceil(log2 N) + d bits (the log
    floored at 1), and the packed width never exceeds it.  ``c`` counts the
    identity-sized fields; ``d`` counts the bits that do not scale with
    log N: the presence flag of an optional identity, and the carry of a
    count that reaches 2Nn.  Each scheme's ``d`` is the least that holds
    for every N >= n >= 2, the tightest case being N = n; a domain built
    from others adds up their ``d``.  A domain is a function of the node
    count ``n`` and the identity bound ``N`` alone: no instance goes into
    it, so one domain serves every instance of that size.
    """

    name: str
    c: int
    n: int
    N: int
    fields: tuple[FieldSpec, ...]
    make: Callable[..., object]
    d: int = 0

    def __post_init__(self) -> None:
        if self.width > self.budget:
            raise DomainError(
                f"domain {self.name}: width {self.width} exceeds budget {self.budget}"
                f" (c={self.c}, d={self.d}, N={self.N})")

    @cached_property
    def width(self) -> int:
        return sum(f.width for f in self.fields)

    @cached_property
    def budget(self) -> int:
        return self.c * id_width(self.N) + self.d

    @cached_property
    def size(self) -> int:
        total = 1
        for f in self.fields:
            total *= f.count
        return total

    @cached_property
    def spare(self) -> Optional[int]:
        # The pattern for INVALID: the first spare raw value, other fields 0.
        shift = self.width
        for f in self.fields:
            shift -= f.width
            if f.spare is not None:
                return f.spare << shift
        return None

    @property
    def has_invalid(self) -> bool:
        # Spare bit patterns exist, so INVALID is a playable label value.
        return self.size < 1 << self.width

    def encode(self, value: object) -> int:
        if value is INVALID:
            raise DomainError("INVALID has no canonical encoding")
        if type(value) is not self.make:  # verifiers read labels by class
            raise DomainError(f"domain {self.name}: {value!r} is not a"
                              f" {self.make.__name__}")
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
        """Every structured value, the last field varying fastest.

        This materialises every field's values (nested domains included)
        before yielding anything, so it is for full enumerations only;
        use ``first`` for a single value.
        """
        for combo in product(*(tuple(f.values()) for f in self.fields)):
            yield self.make(*combo)

    def axis(self) -> Iterator[object]:
        """One node's labels: every structured value in ``values`` order,
        then INVALID when the encoding has spare patterns."""
        yield from self.values()
        if self.has_invalid:
            yield INVALID

    def first(self) -> object:
        """The value ``values()`` yields first, in O(number of fields)."""
        return self.make(*(f.first for f in self.fields))

    def check_labelling(self, labelling: Sequence[object]) -> None:
        if len(labelling) != self.n:
            raise DomainError(
                f"labelling covers {len(labelling)} nodes, domain has {self.n}")
        for v, value in enumerate(labelling):
            if value is INVALID:
                continue
            try:
                self.encode(value)
            except (DomainError, TypeError) as exc:
                raise DomainError(f"node {v}: {value!r} not in domain"
                                  f" {self.name}: {exc}") from exc


class BFSTree(NamedTuple):
    root: int
    parent: tuple[Optional[int], ...]
    dist: tuple[int, ...]
    order: tuple[int, ...]


def build_bfs_tree(instance: Instance, root: int,
                   edges: Optional[Iterable[Edge]] = None) -> BFSTree:
    """Breadth-first tree from ``root``, neighbours explored by increasing identity.

    With ``edges`` the search only follows those edges, so a spanning tree
    given as an edge set comes back as its parent/distance arrays.
    """
    n = instance.n
    if not 0 <= root < n:
        raise DomainError(f"root {root} not a node of the instance")
    neighbours: Callable[[int], Iterable[int]] = instance.graph.neighbours
    if edges is not None:
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        neighbours = adj.__getitem__
    ids = instance.ids.ids
    parent: list[Optional[int]] = [None] * n
    dist = [-1] * n
    dist[root] = 0
    order = [root]
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in sorted(neighbours(v), key=ids.__getitem__):
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                parent[w] = v
                order.append(w)
                queue.append(w)
    return BFSTree(root, tuple(parent), tuple(dist), tuple(order))


def count_width(n: int, N: int) -> int:
    # Aggregates range over [0, 2*N*n]: doubled objective totals peak at
    # twice the weight of an n-edge tour with every weight at the cap N.
    # That is at most 2 * ceil(log2 N) + 2 bits when n <= N.
    return max(1, (2 * N * n).bit_length())


def tree_field_specs(n: int, N: int, suffix: str = "") -> tuple[FieldSpec, ...]:
    """The (root, parent, dist) fields of a rooted-tree certificate:
    3 * ceil(log2 N) + 1 bits when n <= N, the parent's presence flag
    being the one bit over its identity-sized fields."""
    return (id_field("root" + suffix, N),
            optional_id_field("parent" + suffix, N),
            range_field("dist" + suffix, 0, n - 1))


def tree_cert_domain(n: int, N: int) -> LabelDomain:
    return LabelDomain("tree-cert", 3, n, N, tree_field_specs(n, N), TreeCert,
                       1)


def size_cert_domain(n: int, N: int) -> LabelDomain:
    fields = (*tree_field_specs(n, N)[:2],
              range_field("size", 1, n, width=count_width(n, N)))
    return LabelDomain("size-cert", 5, n, N, fields, SizeCert, 2)


def gather_cert_domain(n: int, N: int) -> LabelDomain:
    fields = (*tree_field_specs(n, N),
              range_field("agg", 0, 2 * N * n, width=count_width(n, N)))
    return LabelDomain("gather-cert", 6, n, N, fields, GatherCert, 2)


def ham_cert_domain(n: int, N: int) -> LabelDomain:
    fields = (*tree_field_specs(n, N), range_field("pos", 0, n - 1))
    return LabelDomain("ham-cert", 4, n, N, fields, HamCert, 1)


def nst_cert_domain(n: int, N: int) -> LabelDomain:
    fields = (flag_field("flag", 3),
              range_field("idx", 1, max(2, n)),
              *tree_field_specs(n, N, "1"),
              optional_range_field("cpos", 0, n - 1),
              optional_range_field("clen", 2, max(2, n)),
              *tree_field_specs(n, N, "2"))
    return LabelDomain("nst-cert", 11, n, N, fields, NSTCert, 3)


def non_ham_cert_domain(n: int, N: int) -> LabelDomain:
    fields = (flag_field("flag", 2),
              range_field("idx", 1, max(2, n)),
              *tree_field_specs(n, N, "1"),
              *tree_field_specs(n, N, "2"))
    return LabelDomain("non-ham-cert", 8, n, N, fields, NonHamCert, 2)
