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
from typing import Mapping, Optional, Sequence, Union


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

# Inputs must fit in C_IN identity-sized units.
C_IN = 4

MAX_MARKS = 2  # marks beyond two per node never change admissibility


def input_bits(value: InputValue, id_bits: int) -> int:
    """Encoded size of an input value, given bits per identity."""
    if value is None:
        return 1
    if isinstance(value, int):
        return 2 * id_bits  # bounded by N^2
    if isinstance(value, Ptr):
        return id_bits + 1
    if isinstance(value, Marks):
        return len(value.ids) * id_bits + 2
    if isinstance(value, Lit):
        return id_bits + 2
    if isinstance(value, Cls):
        return 2
    raise InstanceError(f"unknown input value {value!r}")


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

    def distances_from(self, v: int) -> dict[int, int]:
        dist = {v: 0}
        frontier = [v]
        while frontier:
            nxt = []
            for u in frontier:
                for w in self.neighbours(u):
                    if w not in dist:
                        dist[w] = dist[u] + 1
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

    @staticmethod
    def default(n: int, N: Optional[int] = None) -> "IdAssignment":
        return IdAssignment(tuple(range(1, n + 1)), N if N is not None else max(1, n * n))

    # Note: cached dict kept out of dataclass fields so equality stays on ids/N.
    @cached_property
    def node_by_id(self) -> dict[int, int]:
        return {ident: v for v, ident in enumerate(self.ids)}

    def id_of(self, v: int) -> int:
        return self.ids[v]

    def node_of(self, ident: int) -> Optional[int]:
        return self.node_by_id.get(ident)


@dataclass(frozen=True)
class InputAssignment:
    values: tuple[InputValue, ...]

    def value(self, v: int) -> InputValue:
        return self.values[v]


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
        id_bits = self.id_bits
        for v in range(n):
            x = self.inputs.value(v)
            nbr_ids = {self.ids.id_of(u) for u in self.graph.neighbours(v)}
            if isinstance(x, Ptr) and x.to is not None and (
                    not _is_int(x.to) or x.to not in nbr_ids):
                raise InstanceError(
                    f"pointer input at node {v} names {x.to!r}, not a neighbour identity")
            if isinstance(x, Marks):
                if len(x.ids) > MAX_MARKS:
                    raise InstanceError(f"more than {MAX_MARKS} marks at node {v}")
                if not (x.ids <= nbr_ids and all(map(_is_int, x.ids))):
                    raise InstanceError(f"mark at node {v} names a non-neighbour")
            if isinstance(x, Lit) and not _is_int(x.level):
                raise InstanceError(f"literal level {x.level!r} at node {v} is not an integer")
            if isinstance(x, int) and not (_is_int(x) and 0 <= x <= self.N * self.N):
                raise InstanceError(f"integer input {x!r} at node {v} out of range")
            if input_bits(x, id_bits) > C_IN * id_bits:
                raise InstanceError(f"input at node {v} exceeds the bit budget")
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

    @property
    def id_bits(self) -> int:
        return max(1, (self.N - 1).bit_length())

    def id_of(self, v: int) -> int:
        return self.ids.id_of(v)

    def node_of(self, ident: int) -> Optional[int]:
        return self.ids.node_of(ident)

    def input_of(self, v: int) -> InputValue:
        return self.inputs.value(v)

    def with_ids(self, ids: IdAssignment) -> "Instance":
        return Instance(self.graph, ids, self.inputs)

    def with_inputs(self, values: Sequence[InputValue]) -> "Instance":
        return Instance(self.graph, self.ids, InputAssignment(tuple(values)))


@dataclass(frozen=True)
class BallView:
    """Everything a node sees within a fixed radius.  Self-contained.

    Verifiers receive only this object, which makes it impossible for a
    decision to depend on anything outside the ball.  Frontier nodes sit
    at distance exactly `radius` from the centre; their neighbourhoods
    may be truncated and verifiers must not assume they see all edges
    incident to them.

    Views are plain values built by `make_view`, whose cost is the sum of
    the member degrees.  `adj_in` maps each member to its neighbours
    inside the ball.  A game's `runtime.ViewStore` keeps a centre's view
    and serves later leaves `with_layers` copies that share its geometry
    dicts, so nothing may write into a view.
    """

    centre: int
    radius: int
    members: tuple[int, ...]
    edges: frozenset[Edge]
    adj_in: dict[int, frozenset[int]]
    ids_in: dict[int, int]
    inputs_in: dict[int, InputValue]
    layers: tuple[dict[int, object], ...]
    frontier_set: frozenset[int]
    centre_dist: dict[int, int]
    weights_in: Optional[dict[Edge, int]]
    N: int

    def neighbours(self, v: int) -> frozenset[int]:
        return self.adj_in.get(v, frozenset())

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and norm_edge(u, v) in self.edges

    def id_of(self, v: int) -> int:
        return self.ids_in[v]

    def node_of(self, ident: int) -> Optional[int]:
        for v, i in self.ids_in.items():
            if i == ident:
                return v
        return None

    def input_of(self, v: int) -> InputValue:
        return self.inputs_in[v]

    def label(self, layer: int, v: int) -> object:
        return self.layers[layer][v]

    def is_frontier(self, v: int) -> bool:
        return v in self.frontier_set

    def dist_from_centre(self, v: int) -> int:
        return self.centre_dist[v]

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

    def with_layers(self, layers: Sequence[dict[int, object]]) -> "BallView":
        """Same view with the labelling layers replaced, sharing every other
        field.  Runs once per reused view at every leaf, so it copies the
        field dict instead of going through the frozen constructor."""
        view = object.__new__(BallView)
        view.__dict__.update(self.__dict__, layers=tuple(layers))
        return view

    def with_inputs(self, inputs_in: dict[int, InputValue]) -> "BallView":
        return BallView(self.centre, self.radius, self.members, self.edges,
                        self.adj_in, self.ids_in, inputs_in, self.layers,
                        self.frontier_set, self.centre_dist, self.weights_in,
                        self.N)


def make_view(centre: int, radius: int, dist: dict[int, int],
              adj: Sequence[frozenset[int]] | Mapping[int, frozenset[int]],
              ids: Sequence[int] | Mapping[int, int],
              inputs: Sequence[InputValue] | Mapping[int, InputValue],
              layers: Sequence[Sequence[object] | Mapping[int, object]],
              weights: Optional[Mapping[Edge, int]], N: int) -> BallView:
    """The radius-`radius` view of `centre` whose members are the keys of `dist`.

    `dist` maps every node within `radius` of `centre` to its distance.
    `adj`, `ids`, `inputs` and each layer are indexed by node, `weights`
    by edge; a whole instance or a wider view around the same centre can
    supply them.  A member closer than `radius` has all its neighbours in
    the ball, so only frontier members filter their adjacency, and the
    cost is the sum of the member degrees.
    """
    members = tuple(sorted(dist))
    inside = dist.__contains__
    adj_in = {u: adj[u] if dist[u] < radius else frozenset(filter(inside, adj[u]))
              for u in members}
    edges = frozenset([(u, w) for u in members for w in adj_in[u] if u < w])
    return BallView(
        centre=centre,
        radius=radius,
        members=members,
        edges=edges,
        adj_in=adj_in,
        ids_in={u: ids[u] for u in members},
        inputs_in={u: inputs[u] for u in members},
        layers=tuple({u: layer[u] for u in members} for layer in layers),
        frontier_set=frozenset([u for u in members if dist[u] == radius]),
        centre_dist=dist,
        weights_in=None if weights is None else {e: weights[e] for e in edges},
        N=N,
    )


def ball(instance: Instance, labellings: Sequence[Sequence[object]],
         v: int, t: int) -> BallView:
    """Radius-t view of node v, with `labellings` restricted to it.

    A breadth-first search over the graph's adjacency lists finds the
    members, so the cost is the sum of their degrees, not the graph's
    size.  Each call builds a new view; `runtime.ViewStore` calls it to
    build views and reuses a centre's geometry across a game's leaves.
    """
    if not (0 <= v < instance.n):
        raise InstanceError(f"unknown node {v}")
    if t < 0:
        raise InstanceError("radius must be non-negative")
    g = instance.graph
    adj = g._adj
    dist = {v: 0}
    frontier = [v]
    for d in range(1, t + 1):
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return make_view(v, t, dist, adj, instance.ids.ids, instance.inputs.values,
                     labellings, g.weights, instance.N)


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

def input_to_json(x: InputValue):
    """JSON form of an input value, as stored in instance files."""
    if x is None:
        return None
    if isinstance(x, bool):
        raise InstanceError("boolean is not an input value")
    if isinstance(x, int):
        return {"kind": "int", "value": x}
    if isinstance(x, Ptr):
        return {"kind": "ptr", "to": x.to}
    if isinstance(x, Marks):
        return {"kind": "marks", "ids": sorted(x.ids)}
    if isinstance(x, Lit):
        return {"kind": "lit", "level": x.level,
                "sign": "+" if x.sign > 0 else "-"}
    if isinstance(x, Cls):
        return {"kind": "clause"}
    raise InstanceError(f"unserializable input {x!r}")


def _int_field(x, kind: str) -> int:
    if not _is_int(x):
        raise InstanceError(f"malformed {kind} input: {x!r} is not an integer")
    return x


def input_from_json(obj) -> InputValue:
    """Inverse of `input_to_json`; raises InstanceError on malformed data."""
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
    """`input_to_json(x)` as indent-2 JSON at a node record's `input` key."""
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
