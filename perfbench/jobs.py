"""Seeded job lists for the three benchmark workloads.

A job names a protocol, a base instance, an explicit ``EvalMode`` and how
many identity assignments ``engine.identity_variants`` should derive from
the base.  Every job list is a pure function of the workload name and the
seed.  The structure of each list (graph shapes, grid sides, formulas,
input patterns, protocol mix) is the same for every seed; the seed draws
the identity assignments.  Where a game's search order follows the
identities (the corpus sweep), the seed draws identity values but keeps
their relative order, so runs on different seeds do nearly the same work
and can be compared, while every seed still plays different instances.

Functions here take ``lib``, the namespace of freshly imported ``locdec``
modules built by ``run.load_locdec``, because set-up time is measured by
importing the package anew several times in one process.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any

# Every game runs under explicit caps, so the LOCDEC_MAX_EVALS environment
# variable cannot change a run.
MOVE_CAP = 1 << 20
EVAL_CAP = 1 << 24

# Identity range for the corpus instances, taken from the tests' range
# (5-9).  The mst fallback enumerates a domain that grows steeply with N:
# on a 3-node path it costs seconds at N=5 and about seven times more at
# N=9, too long for a benchmark that repeats every workload many times.
CORPUS_N = 5

# Formula seeds for ``gen.random_formula`` are the first connected
# encodings counted from zero, so the qbf work is the same for every
# benchmark seed; the benchmark seed draws the identity permutation.
QBF_SEARCH_FORMULAS = 60
QBF_CORPUS_FORMULAS = 3

# Grid sides: the sample count per pass is 25 games, which keeps the p50
# and p90 ranks in the middle of one game's latency block however many
# passes a run completes.
SIZE_SIDES = (4, 6, 8, 10, 12, 14, 16, 18, 20, 24, 28, 40)
COLOUR_SIDES = (5, 7, 9, 11, 13, 15, 17, 19, 22, 26, 32, 40)
DIFFERENTIAL_SIDE = 4

# Every registered protocol plays on every connected graph shape with
# n <= 4; the qbf pair plays on formula graphs instead.
SHAPE_PROTOCOLS = ("3col", "lift:3col", "size", "spanning-tree",
                   "non-spanning-tree",
                   "unanimous:spanning-tree+non-spanning-tree", "mst", "tsp",
                   "mis", "mds", "maxcut", "mincut", "matching", "cycle-vc",
                   "nta")
FORMULA_PROTOCOLS = ("qbf", "collapse:qbf")

# The unanimous combination of a language and its complement accepts
# every instance, so its reference oracle is the constant True.
EVERY_INSTANCE = "every-instance"
LANGUAGE = "language"


@dataclass(frozen=True)
class Job:
    protocol: str
    base: Any  # locdec.graphs.Instance
    mode: Any  # locdec.engine.EvalMode
    id_rounds: int
    oracle: str = LANGUAGE


def _mode(lib, constructive: bool, node_cap: int):
    return lib.engine.EvalMode(constructive=constructive, node_cap=node_cap,
                               move_cap=MOVE_CAP, eval_cap=EVAL_CAP)


def _instance(lib, graph, ids, N, inputs):
    g = lib.graphs
    return g.Instance(graph, g.IdAssignment(tuple(ids), N),
                      g.InputAssignment(tuple(inputs)))


def _permuted(lib, instance, rng: random.Random):
    """The same instance under a seeded identity assignment from [1, N]."""
    ids = rng.sample(range(1, instance.N + 1), instance.n)
    return lib.engine.relabel_identities(instance, ids)


def _connected_formulas(lib, count: int, max_vars: int, max_clauses: int):
    out = []
    fseed = 0
    while len(out) < count:
        formula = lib.gen.random_formula(fseed, max_vars=max_vars,
                                         max_clauses=max_clauses, k=2)
        fseed += 1
        try:
            out.append(lib.qbf.encode_qbf(formula))
        except lib.graphs.InstanceError:
            continue  # disconnected formula graph
    return out


def asymmetric6(lib):
    """Five-node path with a pendant on its second and third nodes."""
    return lib.graphs.Graph(6, frozenset({(0, 1), (1, 2), (2, 3), (3, 4),
                                          (1, 5), (2, 5)}))


# ---------------------------------------------------------------------------
# exhaustive-search


def exhaustive_search(lib, seed: int) -> list[Job]:
    rng = random.Random(f"exhaustive-search:{seed}")
    search = _mode(lib, False, 32)
    nta = _instance(lib, asymmetric6(lib), rng.sample(range(1, 10), 6), 9,
                    (None,) * 6)
    jobs = [Job("nta", nta, search, 1),
            # Constructive play of the same game: its verdict must agree.
            Job("nta", nta, _mode(lib, True, 32), 1)]
    for inst in _connected_formulas(lib, QBF_SEARCH_FORMULAS, 8, 8):
        jobs.append(Job("qbf", _permuted(lib, inst, rng), search, 1))
    return jobs


# ---------------------------------------------------------------------------
# constructive-grid


def constructive_grid(lib, seed: int) -> list[Job]:
    rng = random.Random(f"constructive-grid:{seed}")
    jobs = []

    def grid(side: int, protocol: str, constructive: bool = True) -> Job:
        graph = lib.gen.grid_graph(side, side)
        n = graph.n
        N = n * n
        ids = rng.sample(range(1, N + 1), n)
        if protocol == "size":
            inputs = (n,) * n
        else:
            # A proper two-colouring of the grid in two of the three colours.
            pair = rng.sample((1, 2, 3), 2)
            inputs = tuple(pair[(v // side + v % side) % 2] for v in range(n))
        return Job(protocol, _instance(lib, graph, ids, N, inputs),
                   _mode(lib, constructive, n), 1)

    for side in SIZE_SIDES:
        jobs.append(grid(side, "size"))
    for side in COLOUR_SIDES:
        jobs.append(grid(side, "3col"))
    # Exhaustive play of one small size game: it must agree with the
    # constructive verdict, and it is the workload's only cover call.
    jobs.append(grid(DIFFERENTIAL_SIDE, "size", constructive=False))
    return jobs


# ---------------------------------------------------------------------------
# corpus-sweep


# Input values are drawn by node position from one fixed generator, and
# identity-valued inputs (pointers, marks) are then written with the
# seeded identities.  Which node points where is therefore the same on
# every seed, so the game trees, and with them the counts, hardly move.

def _nbrs(graph, v):
    return sorted(graph.neighbours(v))


def _random_pointers(lib, graph, ids, rng):
    Ptr = lib.graphs.Ptr
    out = []
    for v in range(graph.n):
        w = rng.choice([None] + _nbrs(graph, v))
        out.append(Ptr(None if w is None else ids[w]))
    return out


def _tree_pointers(lib, graph, ids, rng):
    """Parent pointers of a BFS tree from a random root."""
    root = rng.randrange(graph.n)
    parent = {root: None}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for w in _nbrs(graph, v):
                if w not in parent:
                    parent[w] = v
                    nxt.append(w)
        frontier = nxt
    return [lib.graphs.Ptr(None if parent[v] is None else ids[parent[v]])
            for v in range(graph.n)]


def _pointers(lib, graph, ids, rng):
    if rng.random() < 0.5:
        return _tree_pointers(lib, graph, ids, rng)
    return _random_pointers(lib, graph, ids, rng)


def _matching_pointers(lib, graph, ids, rng):
    ptr = [lib.graphs.Ptr(None)] * graph.n
    edges = sorted(graph.edges)
    rng.shuffle(edges)
    used = set()
    for (u, v) in edges:
        if u not in used and v not in used and rng.random() < 0.7:
            used |= {u, v}
            ptr[u] = lib.graphs.Ptr(ids[v])
            ptr[v] = lib.graphs.Ptr(ids[u])
    return ptr


def _marks(lib, graph, ids, rng):
    cycles = lib.oracles.hamiltonian_cycles(graph)
    marks = [[] for _ in range(graph.n)]
    if cycles and rng.random() < 0.5:
        cyc = rng.choice(cycles)
        for i, v in enumerate(cyc):
            marks[v] = [ids[cyc[i - 1]], ids[cyc[(i + 1) % len(cyc)]]]
    else:
        for v in range(graph.n):
            nbrs = _nbrs(graph, v)
            picked = rng.sample(nbrs, rng.randint(0, min(2, len(nbrs))))
            marks[v] = [ids[w] for w in picked]
    return [lib.graphs.Marks(m) for m in marks]


def _shape_job(lib, protocol: str, graph, ids, rng, mode) -> Job:
    n = graph.n
    oracle = LANGUAGE
    if protocol in ("3col", "lift:3col"):
        inputs = [rng.randint(1, 3) for _ in range(n)]
    elif protocol == "size":
        inputs = [n] * n
        if rng.random() < 0.5:
            inputs[rng.randrange(n)] = n + 1
    elif protocol in ("spanning-tree", "non-spanning-tree"):
        inputs = _pointers(lib, graph, ids, rng)
    elif protocol.startswith("unanimous:"):
        inputs = _pointers(lib, graph, ids, rng)
        oracle = EVERY_INSTANCE
    elif protocol == "mst":
        graph = lib.gen.with_random_weights(graph, rng.randrange(1 << 30),
                                            hi=CORPUS_N)
        inputs = _tree_pointers(lib, graph, ids, rng)
    elif protocol == "tsp":
        graph = lib.gen.with_random_weights(graph, rng.randrange(1 << 30),
                                            hi=CORPUS_N)
        inputs = _marks(lib, graph, ids, rng)
    elif protocol in ("mis", "mds", "maxcut", "mincut"):
        inputs = [rng.randint(0, 1) for _ in range(n)]
    elif protocol == "matching":
        if rng.random() < 0.5:
            inputs = _matching_pointers(lib, graph, ids, rng)
        else:
            inputs = _random_pointers(lib, graph, ids, rng)
    elif protocol == "cycle-vc":
        inputs = [n - 1] * n
    elif protocol == "nta":
        inputs = [None] * n
    else:
        raise ValueError(f"no input generator for {protocol}")
    return Job(protocol, _instance(lib, graph, ids, CORPUS_N, inputs), mode,
               3, oracle)


def corpus_sweep(lib, seed: int) -> list[Job]:
    id_rng = random.Random(f"corpus-sweep:{seed}")
    input_rng = random.Random("corpus-sweep:inputs")
    search = _mode(lib, False, 12)
    shapes = [g for n in (2, 3, 4) for g in lib.oracles.iso_representatives(n)]

    def ids_for(graph):
        # Increasing along node order: covers enumerate in identity order,
        # so a fixed relative order keeps every game tree, and its counts,
        # the same on every seed.
        return sorted(id_rng.sample(range(1, CORPUS_N + 1), graph.n))

    jobs = []
    for protocol in SHAPE_PROTOCOLS:
        for graph in shapes:
            jobs.append(_shape_job(lib, protocol, graph, ids_for(graph),
                                   input_rng, search))
    shape_jobs = list(jobs)
    # mst on an unweighted graph: the cover is empty, so the engine falls
    # back to canonical_labelling over the whole composite domain.
    edge = lib.gen.path_graph(2)
    ids = ids_for(edge)
    jobs.append(Job("mst", _instance(lib, edge, ids, CORPUS_N,
                                     _tree_pointers(lib, edge, ids,
                                                    input_rng)),
                    search, 3))
    for inst in _connected_formulas(lib, QBF_CORPUS_FORMULAS, 3, 2):
        inst = _permuted(lib, inst, id_rng)
        for protocol in FORMULA_PROTOCOLS:
            jobs.append(Job(protocol, inst, search, 3))
    # Constructive play of every shape job: wherever the prover has
    # strategies, its verdict must agree with the oracle too.
    constructive = _mode(lib, True, 12)
    for job in shape_jobs:
        jobs.append(Job(job.protocol, job.base, constructive, 1, job.oracle))
    return jobs


WORKLOADS = {
    "exhaustive-search": exhaustive_search,
    "constructive-grid": constructive_grid,
    "corpus-sweep": corpus_sweep,
}


def build(lib, workload: str, seed: int) -> list[Job]:
    return WORKLOADS[workload](lib, seed)


def jobs_digest(lib, jobs: list[Job]) -> str:
    """Digest of the whole job list: protocol, instance, mode and rounds."""
    h = hashlib.sha256()
    for job in jobs:
        m = job.mode
        h.update(repr((job.protocol, lib.graphs.instance_digest(job.base),
                       m.constructive, m.node_cap, m.move_cap, m.eval_cap,
                       job.id_rounds, job.oracle)).encode())
    return h.hexdigest()[:16]
