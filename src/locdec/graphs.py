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

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional, Sequence, Union


class InstanceError(ValueError):
    """Raised for malformed or invariant-breaking instance data."""


Edge = tuple[int, int]


def _norm_edge(u: int, v: int) -> Edge:
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
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in self.neighbours(u):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

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
        return u != v and _norm_edge(u, v) in self.edges

    def weight(self, u: int, v: int) -> int:
        if self.weights is None:
            raise InstanceError("graph has no weights")
        return self.weights[_norm_edge(u, v)]

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
        if self.N < n:
            raise InstanceError(f"N={self.N} cannot host {n} distinct identities")
        seen = set()
        for i in self.ids:
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
            if isinstance(x, Ptr) and x.to is not None and x.to not in nbr_ids:
                raise InstanceError(
                    f"pointer input at node {v} names {x.to}, not a neighbour identity")
            if isinstance(x, Marks):
                if len(x.ids) > MAX_MARKS:
                    raise InstanceError(f"more than {MAX_MARKS} marks at node {v}")
                if not x.ids <= nbr_ids:
                    raise InstanceError(f"mark at node {v} names a non-neighbour")
            if isinstance(x, int) and not (0 <= x <= self.N * self.N):
                raise InstanceError(f"integer input {x} at node {v} out of range")
            if input_bits(x, id_bits) > C_IN * id_bits:
                raise InstanceError(f"input at node {v} exceeds the bit budget")
        if self.graph.weights is not None:
            # Keeps objective sums within the label bit budget.
            for e, w in self.graph.weights.items():
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
    the member degrees; nothing caches them.  `adj_in` maps each member to
    its neighbours inside the ball.
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

    def nodes(self) -> tuple[int, ...]:
        return self.members

    def neighbours(self, v: int) -> frozenset[int]:
        return self.adj_in.get(v, frozenset())

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and _norm_edge(u, v) in self.edges

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

    def layer_count(self) -> int:
        return len(self.layers)

    def is_frontier(self, v: int) -> bool:
        return v in self.frontier_set

    def dist_from_centre(self, v: int) -> int:
        return self.centre_dist[v]

    def weight(self, u: int, v: int) -> int:
        if self.weights_in is None:
            raise InstanceError("ball carries no weights")
        return self.weights_in[_norm_edge(u, v)]

    @property
    def own_id(self) -> int:
        return self.ids_in[self.centre]

    @property
    def own_input(self) -> InputValue:
        return self.inputs_in[self.centre]

    def own_label(self, layer: int) -> object:
        return self.layers[layer][self.centre]

    def with_layers(self, layers: Sequence[dict[int, object]]) -> "BallView":
        """Same view with the labelling layers replaced (for simulations)."""
        return BallView(self.centre, self.radius, self.members, self.edges,
                        self.adj_in, self.ids_in, self.inputs_in, tuple(layers),
                        self.frontier_set, self.centre_dist, self.weights_in,
                        self.N)

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
    size.  Every call builds a fresh view.
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
# Node order in the file is the internal node order.
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


def input_from_json(obj) -> InputValue:
    """Inverse of `input_to_json`; raises InstanceError on malformed data."""
    if obj is None:
        return None
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InstanceError(f"malformed input value {obj!r}")
    kind = obj["kind"]
    try:
        if kind == "int":
            return int(obj["value"])
        if kind == "ptr":
            to = obj["to"]
            return Ptr(None if to is None else int(to))
        if kind == "marks":
            return Marks(int(i) for i in obj["ids"])
        if kind == "lit":
            sign = {"+": 1, "-": -1}[obj["sign"]]
            return Lit(int(obj["level"]), sign)
        if kind == "clause":
            return Cls()
    except (KeyError, TypeError, ValueError) as exc:
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
        if not isinstance(rec["id"], int):
            raise InstanceError(f"identity {rec['id']!r} is not an integer")
        ids.append(rec["id"])
        inputs.append(input_from_json(rec.get("input")))
    n = len(ids)
    N = doc.get("N", n * n)
    if not isinstance(N, int) or N < 1:
        raise InstanceError(f"bad N {N!r}")
    id_assignment = IdAssignment(tuple(ids), N)  # checks range + duplicates
    by_id = id_assignment.node_by_id
    edges: set[Edge] = set()
    weights: dict[Edge, int] = {}
    weighted = None
    for rec in doc["edges"]:
        if not isinstance(rec, dict) or "u" not in rec or "v" not in rec:
            raise InstanceError(f"malformed edge record {rec!r}")
        try:
            u, v = by_id[rec["u"]], by_id[rec["v"]]
        except (KeyError, TypeError) as exc:
            raise InstanceError(f"edge names unknown identity: {rec!r}") from exc
        if u == v:
            raise InstanceError(f"self-loop at identity {rec['u']}")
        e = _norm_edge(u, v)
        if e in edges:
            raise InstanceError(f"duplicate edge {rec['u']}–{rec['v']}")
        edges.add(e)
        has_w = "w" in rec and rec["w"] is not None
        if weighted is None:
            weighted = has_w
        elif weighted != has_w:
            raise InstanceError("either all edges carry weights or none do")
        if has_w:
            if not isinstance(rec["w"], int):
                raise InstanceError(f"weight {rec['w']!r} is not an integer")
            weights[e] = rec["w"]
    graph = Graph(n, frozenset(edges), weights if weighted else None)
    return Instance(graph, id_assignment, InputAssignment(tuple(inputs)))


def emit_instance(instance: Instance) -> str:
    doc = {
        "nodes": [{"id": instance.id_of(v),
                   "input": input_to_json(instance.input_of(v))}
                  for v in range(instance.n)],
        "edges": [
            {"u": instance.id_of(u), "v": instance.id_of(v),
             **({"w": instance.graph.weights[(u, v)]}
                if instance.graph.weights is not None else {})}
            for (u, v) in sorted(instance.graph.edges)
        ],
        "N": instance.N,
    }
    return json.dumps(doc, indent=2) + "\n"


def instance_digest(instance: Instance) -> str:
    import hashlib
    return hashlib.sha256(emit_instance(instance).encode()).hexdigest()[:16]
