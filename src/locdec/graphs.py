"""Graphs, identities, inputs, instances and ball views.

Everything downstream works on a connected graph whose nodes carry a
unique identity from [1, N] and a local input value.  Verifiers never
see the instance directly: they get a BallView, the self-contained
radius-t neighbourhood of one node, with identities, inputs, edge
weights and any labelling layers restricted to it.

Nodes are integers 0..n-1 in file order; identities live in a separate
assignment so the same (graph, input) pair can be re-run under many
identity assignments.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, NamedTuple, Optional, Sequence, Union


class InstanceError(ValueError):
    """Raised for malformed or invariant-breaking instance data."""


Edge = tuple[int, int]


def _is_int(x) -> bool:
    """A true int.  `bool` is an int subclass, but JSON renders it `true`."""
    return type(x) is int


def norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


# ---------------------------------------------------------------------------
# Input values.  A node input is one of:
#   None           -- no input (the bottom value)
#   int            -- a number (colour, set-membership bit, cut side, k, ...)
#   Ptr(to)        -- a parent pointer: a neighbour identity, or None for a root
#   Marks(ids)     -- incident selected edges, named by neighbour identity
#   Lit(level, sign) / Cls() -- role tags for formula graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ptr:
    to: Optional[int]


@dataclass(frozen=True)
class Marks:
    ids: frozenset[int]

    def __init__(self, ids) -> None:
        object.__setattr__(self, "ids", frozenset(ids))


@dataclass(frozen=True)
class Lit:
    level: int
    sign: int


@dataclass(frozen=True)
class Cls:
    pass


InputValue = Union[None, int, Ptr, Marks, Lit, Cls]

# Every input fits in C_IN identity-sized units by construction: at most
# MAX_MARKS marks, integers up to N^2 and one identity per pointer.
# ``labels.input_value_field`` sizes its payload by this budget.
C_IN = 4

MAX_MARKS = 2  # marks beyond two per node never change admissibility


def id_width(N: int) -> int:
    """Bits per identity under the identity bound N (at least one)."""
    return max(1, (N - 1).bit_length())


@dataclass(frozen=True)
class Graph:
    """Connected simple graph on nodes 0..n-1, optionally edge-weighted."""

    n: int
    edges: frozenset[Edge]
    weights: Optional[dict[Edge, int]] = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InstanceError("graph needs at least one node")
        for (u, v) in self.edges:
            if not (0 <= u < v < self.n):
                raise InstanceError(f"bad edge ({u}, {v})")
        if self.weights == {} and not self.edges:
            # An edgeless graph's empty weight map has no place in the
            # instance file, so it is stored as no weights at all.
            object.__setattr__(self, "weights", None)
        if self.weights is not None:
            if set(self.weights) != set(self.edges):
                raise InstanceError("weights must cover exactly the edge set")
            for e, w in self.weights.items():
                if w < 0:
                    raise InstanceError(f"negative weight {w} on {e}")
        if not self._connected():
            raise InstanceError("graph is not connected")

    def _connected(self) -> bool:
        return len(self.distances_from(0)) == self.n

    @cached_property
    def _adj(self) -> tuple[frozenset[int], ...]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for (u, v) in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(frozenset(s) for s in adj)

    def neighbours(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and norm_edge(u, v) in self.edges

    def weight(self, u: int, v: int) -> int:
        if self.weights is None:
            raise InstanceError("graph has no weights")
        return self.weights[norm_edge(u, v)]

    def distances_from(self, v: int,
                       radius: Optional[int] = None) -> dict[int, int]:
        """Each node within ``radius`` of ``v`` (every node when None),
        mapped to its distance from ``v``, by a breadth-first search."""
        adj = self._adj
        dist = {v: 0}
        frontier = [v]
        d = 0
        while frontier and d != radius:
            d += 1
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = d
                        nxt.append(w)
            frontier = nxt
        return dist


@dataclass(frozen=True)
class IdAssignment:
    """Pairwise distinct identities in [1, N], one per node."""

    ids: tuple[int, ...]
    N: int

    def __post_init__(self) -> None:
        n = len(self.ids)
        if not _is_int(self.N):
            raise InstanceError(f"N {self.N!r} is not an integer")
        if self.N < n:
            raise InstanceError(f"N={self.N} cannot host {n} distinct identities")
        seen = set()
        for i in self.ids:
            if not _is_int(i):
                raise InstanceError(f"identity {i!r} is not an integer")
            if not (1 <= i <= self.N):
                raise InstanceError(f"identity {i} outside [1, {self.N}]")
            if i in seen:
                raise InstanceError(f"duplicate identity {i}")
            seen.add(i)

    # Note: cached dict kept out of dataclass fields so equality stays on ids/N.
    @cached_property
    def node_by_id(self) -> dict[int, int]:
        return {ident: v for v, ident in enumerate(self.ids)}


@dataclass(frozen=True)
class InputAssignment:
    values: tuple[InputValue, ...]


@dataclass(frozen=True)
class Instance:
    """A graph plus identity and input assignments over the same node set."""

    graph: Graph
    ids: IdAssignment
    inputs: InputAssignment

    def __post_init__(self) -> None:
        n = self.graph.n
        if len(self.ids.ids) != n or len(self.inputs.values) != n:
            raise InstanceError("graph, identities and inputs disagree on node count")
        ids = self.ids.ids
        for v, x in enumerate(self.inputs.values):
            if x is not None and not isinstance(x, (int, Ptr, Marks, Lit, Cls)):
                raise InstanceError(f"unknown input value {x!r} at node {v}")
            if isinstance(x, (Ptr, Marks)):
                # Only these inputs name neighbours.
                nbr_ids = {ids[u] for u in self.graph.neighbours(v)}
                if isinstance(x, Ptr) and x.to is not None and (
                        not _is_int(x.to) or x.to not in nbr_ids):
                    raise InstanceError(
                        f"pointer input at node {v} names {x.to!r}, not a neighbour identity")
                if isinstance(x, Marks):
                    if len(x.ids) > MAX_MARKS:
                        raise InstanceError(f"more than {MAX_MARKS} marks at node {v}")
                    if not (x.ids <= nbr_ids and all(map(_is_int, x.ids))):
                        raise InstanceError(f"mark at node {v} names a non-neighbour")
            if isinstance(x, Lit) and not (_is_int(x.level) and _is_int(x.sign)
                                           and x.sign in (1, -1)):
                raise InstanceError(f"literal {x!r} at node {v}: level must be an integer, sign 1 or -1")
            if isinstance(x, int) and not (_is_int(x) and 0 <= x <= self.N * self.N):
                raise InstanceError(f"integer input {x!r} at node {v} out of range")
        if self.graph.weights is not None:
            # Keeps objective sums within the label bit budget.
            for e, w in self.graph.weights.items():
                if not _is_int(w):
                    raise InstanceError(f"weight {w!r} on {e} is not an integer")
                if w > self.N:
                    raise InstanceError(f"weight {w} on {e} exceeds N={self.N}")

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def N(self) -> int:
        return self.ids.N

    def id_of(self, v: int) -> int:
        return self.ids.ids[v]

    def node_of(self, ident: int) -> Optional[int]:
        return self.ids.node_by_id.get(ident)

    def input_of(self, v: int) -> InputValue:
        return self.inputs.values[v]

    def with_inputs(self, values: Sequence[InputValue]) -> "Instance":
        return Instance(self.graph, self.ids, InputAssignment(tuple(values)))


class _first_read:
    """A view attribute computed from the view's own fields on its first
    read and stored in the view's `__dict__`, where later reads find it
    before this descriptor.  `functools.cached_property` does the same but,
    before Python 3.12, takes a lock on each first read, which shows in
    games that build thousands of small views."""

    def __init__(self, compute: Callable[["BallView"], object]) -> None:
        self.compute = compute
        self.name = compute.__name__

    def __get__(self, view: Optional["BallView"], owner: type) -> object:
        if view is None:
            return self
        value = view.__dict__[self.name] = self.compute(view)
        return value


@dataclass(frozen=True)
class BallView:
    """Everything a node sees within a fixed radius.  Self-contained.

    Verifiers receive only this object, which makes it impossible for a
    decision to depend on anything outside the ball.  Frontier nodes sit
    at distance exactly `radius` from the centre; their neighbourhoods
    may be truncated and verifiers must not assume they see all edges
    incident to them.

    A view is a `Shape`, its label-free and input-free fields, plus the
    inputs and labels projected onto its members.  `make_shape` builds a
    shape at the cost of the sum of the member degrees, and `view_over`
    fills a view over one at the cost of the projection.  `ball` keeps
    each shape it builds (see `geometry`).  Every field is set with the
    view: `adj_in` maps each member to its neighbours inside the ball,
    and `weights_in` is None unless the instance is weighted.  `edges` and
    `node_by_id` (the inverse of `ids_in`) are not fields.  Each is
    computed from the fields on its first read and cached in the view;
    these caches are the only writes a view takes after it is built.
    Equality is over the fields, and the two are functions of them.  A
    view holds no reference to graph-wide data (adjacency, identities,
    weights), so only what can be derived from in-ball data can be left
    to a first read.

    Views share their geometry dicts: every view `ball` builds for one
    centre and radius of a (graph, identities) pair shares that pair's
    kept `Shape`, across games, and a searched game decides its later
    leaves on `with_layers` copies of each centre's first view, which
    share whatever attributes its first decision computed (see
    `runtime`).  Within one view, frontier members with equal in-ball
    neighbours share one `adj_in` set.  So nothing else may write into a
    view: a write would reach every later view of that centre, in this
    game and in the games after it.

    Hot verifier kernels read a member's fields directly, as
    `adj_in[centre]`, `ids_in[u]`, `inputs_in[u]` and `layers[i][u]`,
    which skips an accessor call per read.  Only members are keys there:
    the accessors (`neighbours`, `has_edge`, `node_of`) are the only safe
    reads for a node that may lie outside the ball.
    """

    centre: int
    radius: int
    members: tuple[int, ...]
    adj_in: dict[int, frozenset[int]]
    ids_in: dict[int, int]
    inputs_in: dict[int, InputValue]
    layers: tuple[dict[int, object], ...]
    centre_dist: dict[int, int]
    weights_in: Optional[dict[Edge, int]]
    N: int

    @_first_read
    def edges(self) -> frozenset[Edge]:
        adj_in = self.adj_in
        return frozenset([(u, w) for u in self.members for w in adj_in[u] if u < w])

    @_first_read
    def node_by_id(self) -> dict[int, int]:
        return {i: u for u, i in self.ids_in.items()}

    def neighbours(self, v: int) -> frozenset[int]:
        return self.adj_in.get(v, frozenset())

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj_in.get(u, ())

    def id_of(self, v: int) -> int:
        return self.ids_in[v]

    def node_of(self, ident: int) -> Optional[int]:
        return self.node_by_id.get(ident)

    def input_of(self, v: int) -> InputValue:
        return self.inputs_in[v]

    def label(self, layer: int, v: int) -> object:
        return self.layers[layer][v]

    def weight(self, u: int, v: int) -> int:
        if self.weights_in is None:
            raise InstanceError("ball carries no weights")
        return self.weights_in[norm_edge(u, v)]

    @property
    def own_id(self) -> int:
        return self.ids_in[self.centre]

    @property
    def own_input(self) -> InputValue:
        return self.inputs_in[self.centre]

    def own_label(self, layer: int) -> object:
        return self.layers[layer][self.centre]

    def with_layers(self, layers: Sequence[dict[int, object]],
                    inputs_in: Optional[dict[int, InputValue]] = None
                    ) -> "BallView":
        """Same view with the labelling layers replaced, and the inputs too
        when ``inputs_in`` is given, sharing every other field and every
        attribute computed so far.  Runs once per reused view at every
        leaf, so it copies the field dict instead of going through the
        frozen constructor."""
        view = object.__new__(BallView)
        fields = view.__dict__
        fields.update(self.__dict__, layers=tuple(layers))
        if inputs_in is not None:
            fields["inputs_in"] = inputs_in
        return view


# A ball's label-free, input-free fields, in `BallView` order: `members`,
# `adj_in`, `ids_in`, `centre_dist` and `weights_in`.  `make_shape` builds
# them and `view_over` fills a view over them.  Of these only the tuple
# itself, `adj_in`, its frontier sets (one per distinct value) and
# `weights_in` stay tracked by the cyclic collector: `members`, `ids_in`
# and `centre_dist` hold only ints.
Shape = tuple[tuple[int, ...], dict[int, frozenset[int]], dict[int, int],
              dict[int, int], Optional[dict[Edge, int]]]


def make_shape(radius: int, dist: dict[int, int],
               adj: Sequence[frozenset[int]] | Mapping[int, frozenset[int]],
               ids: Sequence[int] | Mapping[int, int],
               weights: Optional[Mapping[Edge, int]]) -> Shape:
    """The `Shape` of the radius-`radius` ball whose members are the keys
    of `dist`.

    `dist` maps every node within `radius` of the centre to its distance
    and becomes the shape's `centre_dist`.  `adj` and `ids` are indexed by
    node, `weights` by edge; a whole instance or a wider view around the
    same centre can supply them.  A member closer than `radius` has all
    its neighbours in the ball, so it keeps its adjacency as it is; a
    frontier member's is one set intersection with the members, which
    costs at most its degree.  The whole shape costs the sum of the member
    degrees.

    Frontier members whose in-ball neighbours are equal share one set, so
    a radius-1 shape of a triangle-free graph holds one set for all its
    frontier (each member sees only the centre).  The sets are immutable
    and views compare them by value; sharing only spares the cyclic
    collector the objects a kept shape would otherwise hold.
    """
    members = tuple(sorted(dist))
    inside = frozenset(members)
    adj_in: dict[int, frozenset[int]] = {}
    ids_in: dict[int, int] = {}
    shared: dict[frozenset[int], frozenset[int]] = {}
    for u in members:
        ids_in[u] = ids[u]
        if dist[u] < radius:
            adj_in[u] = adj[u]
        else:
            s = adj[u] & inside
            adj_in[u] = shared.setdefault(s, s)
    return (members, adj_in, ids_in, dist, None if weights is None else {
        (u, w): weights[u, w] for u in members for w in adj_in[u] if u < w})


def view_over(centre: int, radius: int, shape: Shape,
              inputs: Sequence[InputValue] | Mapping[int, InputValue],
              layers: Sequence[Sequence[object] | Mapping[int, object]],
              N: int) -> BallView:
    """A new view of `centre` over `shape`, with `inputs` and each layer
    (indexed by node) projected onto its members.

    Filled like `with_layers` fills its copies: the frozen constructor
    sets each field through `object.__setattr__`, a noticeable share of
    the cost of the small views a game builds by the thousand."""
    members, adj_in, ids_in, centre_dist, weights_in = shape
    view = object.__new__(BallView)
    view.__dict__.update(
        centre=centre,
        radius=radius,
        members=members,
        adj_in=adj_in,
        ids_in=ids_in,
        inputs_in={u: inputs[u] for u in members},
        layers=tuple([{u: layer[u] for u in members} for layer in layers]),
        centre_dist=centre_dist,
        weights_in=weights_in,
        N=N,
    )
    return view


def ball(instance: Instance, labellings: Sequence[Sequence[object]],
         v: int, t: int) -> BallView:
    """Radius-t view of node v, with `labellings` restricted to it.

    Each call builds a new view, but only the first call for a centre and
    radius in the instance's (graph, identities) pair builds its `Shape`.
    That call finds the members with `Graph.distances_from`, builds the
    shape with `make_shape` at the cost of the sum of their degrees, and
    keeps it at the centre's index of the radius's list in the pair's
    `geometry`.  Every call, from any instance of the pair, then fills a
    view over the kept shape with `view_over`, which projects only the
    instance's inputs and `labellings` onto the members.  A searched
    game copies a centre's first view at its later leaves (see
    `runtime`).
    """
    if not (0 <= v < instance.n):
        raise InstanceError(f"unknown node {v}")
    if t < 0:
        raise InstanceError("radius must be non-negative")
    shapes = geometry(instance).shapes
    by_centre = shapes.get(t)
    if by_centre is None:
        by_centre = shapes[t] = [None] * instance.n
    shape = by_centre[v]
    if shape is None:
        g = instance.graph
        shape = by_centre[v] = make_shape(t, g.distances_from(v, t), g._adj,
                                          instance.ids.ids, g.weights)
    return view_over(v, t, shape, instance.inputs.values, labellings,
                     instance.N)


# ---------------------------------------------------------------------------
# What one (graph, identities) pair fixes.  Inputs never change it, so every
# instance that differs from the pair only in its inputs shares it: the
# substitute inputs of one `opt` cover, the mapped instances of one `nta`
# game, the instance re-read by every level of one game, and every later
# game and replay on the pair until another pair replaces it.


class Geometry(NamedTuple):
    """The input-free data of one (graph, identity assignment) pair, built
    on demand: the rooted spanning trees `schemes.kept_tree` builds, by
    root, and, for each radius `ball` was asked for, one list indexed by
    centre of the `Shape`s it built with `make_shape` (None until asked
    for).  A list per radius needs no key object per shape, so the cyclic
    collector scans only the shapes.

    What is kept is shared by every view built over it, across games, so
    nothing may write into it (see `BallView`)."""

    graph: Graph
    ids: IdAssignment
    trees: dict[int, object]
    shapes: dict[int, list[Optional[Shape]]]


_geometry: Optional[Geometry] = None


def geometry(instance: Instance) -> Geometry:
    """The geometry of `instance`'s (graph, identities) pair.

    One pair is kept at a time: a request for another graph or identity
    assignment replaces it, so at most n trees and one shape per centre
    and radius asked of that pair stay alive.
    """
    global _geometry
    kept = _geometry
    if kept is None or (kept.graph, kept.ids) != (instance.graph, instance.ids):
        kept = _geometry = Geometry(instance.graph, instance.ids, {}, {})
    return kept


# ---------------------------------------------------------------------------
# Instance file format: a JSON object with `nodes`, `edges` and optional `N`.
# Node order in the file is the internal node order.  Identities, `N`,
# weights and every integer inside an input are JSON integers; `true`, `2.9`
# and `"7"` are refused, not coerced.
#
# `emit_instance` writes one fixed layout: the bytes of
# `json.dumps(doc, indent=2) + "\n"` for the document below, produced by
# string templates because `indent` switches `json` to its pure-Python
# encoder.  These bytes are fixed: `instance_digest` hashes them, and saved
# reports and benchmark pins name instances by that digest.
# ---------------------------------------------------------------------------

def _int_field(x, kind: str) -> int:
    if not _is_int(x):
        raise InstanceError(f"malformed {kind} input: {x!r} is not an integer")
    return x


def input_from_json(obj) -> InputValue:
    """The input value a node record's `input` object stores (the form
    `_render_input` writes); raises InstanceError on malformed data."""
    if obj is None:
        return None
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InstanceError(f"malformed input value {obj!r}")
    kind = obj["kind"]
    try:
        if kind == "int":
            return _int_field(obj["value"], kind)
        if kind == "ptr":
            to = obj["to"]
            return Ptr(None if to is None else _int_field(to, kind))
        if kind == "marks":
            return Marks(_int_field(i, kind) for i in obj["ids"])
        if kind == "lit":
            sign = {"+": 1, "-": -1}[obj["sign"]]
            return Lit(_int_field(obj["level"], kind), sign)
        if kind == "clause":
            return Cls()
    except (KeyError, TypeError) as exc:
        raise InstanceError(f"malformed {kind} input: {exc}") from exc
    raise InstanceError(f"unknown input kind {kind!r}")


def parse_instance(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"malformed instance file: {exc}") from exc
    if not isinstance(doc, dict) or "nodes" not in doc or "edges" not in doc:
        raise InstanceError("instance file needs `nodes` and `edges`")
    nodes = doc["nodes"]
    if not isinstance(nodes, list) or not nodes:
        raise InstanceError("`nodes` must be a non-empty list")
    ids: list[int] = []
    inputs: list[InputValue] = []
    for rec in nodes:
        if not isinstance(rec, dict) or "id" not in rec:
            raise InstanceError(f"malformed node record {rec!r}")
        if not _is_int(rec["id"]):
            raise InstanceError(f"identity {rec['id']!r} is not an integer")
        ids.append(rec["id"])
        inputs.append(input_from_json(rec.get("input")))
    n = len(ids)
    N = doc.get("N", n * n)
    if not _is_int(N) or N < 1:
        raise InstanceError(f"bad N {N!r}")
    id_assignment = IdAssignment(tuple(ids), N)  # checks range + duplicates
    by_id = id_assignment.node_by_id
    edges: set[Edge] = set()
    weights: dict[Edge, int] = {}
    weighted = None
    if not isinstance(doc["edges"], list):
        raise InstanceError(f"`edges` must be a list, not {doc['edges']!r}")
    for rec in doc["edges"]:
        if not isinstance(rec, dict) or "u" not in rec or "v" not in rec:
            raise InstanceError(f"malformed edge record {rec!r}")
        if not (_is_int(rec["u"]) and _is_int(rec["v"])
                and rec["u"] in by_id and rec["v"] in by_id):
            raise InstanceError(f"edge names unknown identity: {rec!r}")
        u, v = by_id[rec["u"]], by_id[rec["v"]]
        if u == v:
            raise InstanceError(f"self-loop at identity {rec['u']}")
        e = norm_edge(u, v)
        if e in edges:
            raise InstanceError(f"duplicate edge {rec['u']}–{rec['v']}")
        edges.add(e)
        has_w = "w" in rec and rec["w"] is not None
        if weighted is None:
            weighted = has_w
        elif weighted != has_w:
            raise InstanceError("either all edges carry weights or none do")
        if has_w:
            if not _is_int(rec["w"]):
                raise InstanceError(f"weight {rec['w']!r} is not an integer")
            weights[e] = rec["w"]
    graph = Graph(n, frozenset(edges), weights if weighted else None)
    return Instance(graph, id_assignment, InputAssignment(tuple(inputs)))


# Line breaks plus indentation inside a node's `input` object and inside a
# `marks` input's `ids` list.
_IN = "\n        "
_IDS = ",\n          "


def _render_input(x: InputValue) -> str:
    """Input `x` as its JSON object (`kind` and that kind's fields), in
    indent-2 JSON at a node record's `input` key."""
    if x is None:
        return "null"
    t = type(x)
    if t is int:
        body = f'"kind": "int",{_IN}"value": {x}'
    elif t is Ptr:
        body = f'"kind": "ptr",{_IN}"to": {"null" if x.to is None else x.to}'
    elif t is Marks:
        ids = _IDS.join(map(str, sorted(x.ids)))
        body = f'"kind": "marks",{_IN}"ids": ' + (
            f"[\n          {ids}\n        ]" if ids else "[]")
    elif t is Lit:
        sign = "+" if x.sign > 0 else "-"
        body = f'"kind": "lit",{_IN}"level": {x.level},{_IN}"sign": "{sign}"'
    elif t is Cls:
        body = '"kind": "clause"'
    else:
        raise InstanceError(f"unserializable input {x!r}")
    return f"{{{_IN}{body}\n      }}"


def emit_instance(instance: Instance) -> str:
    """The instance file text: `nodes` in node order, `edges` sorted, `N`.

    Instance validation keeps every number a true int, so `{x}` prints
    what `json.dumps` would.
    """
    ids = instance.ids.ids
    nodes = ",\n".join([
        f'    {{\n      "id": {i},\n      "input": {_render_input(x)}\n    }}'
        for i, x in zip(ids, instance.inputs.values)])
    weights = instance.graph.weights
    if weights is None:
        edges = [f'    {{\n      "u": {ids[u]},\n      "v": {ids[v]}\n    }}'
                 for (u, v) in sorted(instance.graph.edges)]
    else:
        edges = [f'    {{\n      "u": {ids[u]},\n      "v": {ids[v]},\n'
                 f'      "w": {weights[u, v]}\n    }}'
                 for (u, v) in sorted(instance.graph.edges)]
    edge_list = "[\n" + ",\n".join(edges) + "\n  ]" if edges else "[]"
    return (f'{{\n  "nodes": [\n{nodes}\n  ],\n  "edges": {edge_list},\n'
            f'  "N": {instance.N}\n}}\n')


def instance_digest(instance: Instance) -> str:
    return hashlib.sha256(emit_instance(instance).encode()).hexdigest()[:16]
