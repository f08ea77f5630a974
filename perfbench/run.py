"""End-to-end benchmark for locdec: plays a seeded job list and checks it.

Usage, from the repository root:

    python3 perfbench/run.py --workload exhaustive-search --seed 1 \
        --seconds 30 --trace 0

Workloads are exhaustive-search, constructive-grid and corpus-sweep (see
README.md).  A run sets the program up several times (fresh import,
``protocols.resolve``, job generation), then plays the whole job list
in passes until ``--seconds`` have been measured.  Every game is checked:
its verdict against the protocol's oracle, its principal line by a replay
through ``runtime.evaluate``, its report by a ``cli`` round trip, and its
line digest against the pinned digests in ``pins/``.  End-to-end times
are scaled by a host-speed probe timed in the same pass (see ``probe``).
With ``--trace 1`` the second half of the run plays traced passes and
reports per-layer metrics, in plain wall time, instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the run's context (seed, job-list digest, Python version, nproc,
sample counts and failure kinds).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import jobs as joblist
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINS = Path(__file__).resolve().parent / "pins"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
MIN_PASSES = 3
MIN_GAME_SAMPLES = 100  # leaves ten samples beyond p90

# Host-speed probe.  On a shared host the plain CPU speed drifts by 20-40%
# within seconds and over minutes, whatever the program does.  Untraced
# passes time this fixed piece of Python, which does not touch locdec,
# before their first job, after every PROBE_EVERY_S of jobs and after
# their last job.  End-to-end times are scaled by PROBE_REFERENCE_S over
# the mean probe time of the same pass: they read as seconds on a host
# where the probe takes PROBE_REFERENCE_S.
PROBE_EVERY_S = 0.05
PROBE_REFERENCE_S = 0.00025


def probe() -> float:
    t0 = perf_counter()
    table = {}
    for i in range(400):
        table[(i, i & 7)] = (i * 3, frozenset((i & 3, i & 5)))
    total = 0
    for value, marks in table.values():
        total += value % 7 + len(marks)
    return perf_counter() - t0

MODULES = ("engine", "graphs", "labels", "runtime", "protocols", "gen",
           "cli", "oracles")


def load_locdec() -> SimpleNamespace:
    """Import ``locdec`` from this checkout's ``src``, afresh."""
    for name in [m for m in sys.modules
                 if m == "locdec" or m.startswith("locdec.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("locdec")
    if Path(pkg.__file__).resolve().parent != SRC / "locdec":
        raise ImportError(f"locdec imported from {pkg.__file__}, not {SRC}")
    lib = SimpleNamespace(**{m: importlib.import_module(f"locdec.{m}")
                             for m in MODULES})
    lib.qbf = importlib.import_module("locdec.protocols.qbf")
    return lib


@dataclass
class Setup:
    lib: SimpleNamespace
    jobs: list
    protocols: dict
    digest: str


def set_up(workload: str, seed: int) -> Setup:
    lib = load_locdec()
    jobs = joblist.build(lib, workload, seed)
    protocols = {name: lib.protocols.resolve(name)
                 for name in dict.fromkeys(j.protocol for j in jobs)}
    return Setup(lib, jobs, protocols, joblist.jobs_digest(lib, jobs))


# ---------------------------------------------------------------------------
# one game and its checks


def _canon(x):
    """JSON-able canonical form of a label value, for line digests."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, tuple):
        kind = type(x).__name__ if hasattr(x, "_fields") else "tuple"
        return [kind, *(_canon(f) for f in x)]
    if isinstance(x, frozenset):
        return ["set", *sorted((_canon(f) for f in x), key=repr)]
    if is_dataclass(x):
        return [type(x).__name__,
                *(_canon(getattr(x, f.name)) for f in fields(x))]
    return repr(x)  # INVALID


def line_digest(outcome) -> str:
    doc = [outcome.verdict, [[_canon(v) for v in layer.values]
                             for layer in outcome.line]]
    text = json.dumps(doc, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:8]


@dataclass(frozen=True)
class Game:
    token: str          # line digest, or "!<exception class>"
    leaf: int
    node: int
    failure: str | None  # first failed check, None when all passed
    wrong: bool = False  # an output disagreed with its reference


def _untimed(name, fn, *args):
    return fn(*args)


def play(lib, protocol, oracle, variant, mode, call=_untimed) -> Game:
    """Play one game and run every per-game check on it.

    ``call(name, fn, *args)`` invokes the program; the traced pass passes
    one that opens a span named after the layer.
    """
    cli = lib.cli
    try:
        expected = bool(oracle(variant))
        outcome = call("engine.game", lib.engine.game_evaluate, protocol,
                       variant, mode)
    except Exception as exc:  # a failing game is counted; the sweep goes on
        return Game("!" + type(exc).__name__, 0, 0,
                    "raise:" + type(exc).__name__)
    token = line_digest(outcome)
    leaf = outcome.stats.leaf_evaluations
    node = outcome.stats.node_evaluations
    if outcome.verdict != expected:
        # An exhaustive verdict is the program's decision and must match;
        # a constructive one only shows that a strategy lost a won game.
        if mode.constructive:
            return Game(token, leaf, node, "strategy")
        return Game(token, leaf, node, "oracle", True)
    try:
        replay = call("runtime.replay", lib.runtime.evaluate,
                      protocol.verifier, variant, outcome.line)
    except Exception as exc:
        return Game(token, leaf, node, "replay:" + type(exc).__name__, True)
    if replay != outcome.leaf:
        return Game(token, leaf, node, "replay", True)

    def round_trip():
        report = cli.build_report(protocol, variant, outcome)
        return report, cli.parse_report(cli.emit_report(report))

    try:
        report, parsed = call("cli.report", round_trip)
    except Exception as exc:
        return Game(token, leaf, node, "report:" + type(exc).__name__)
    if parsed != report:
        return Game(token, leaf, node, "report", True)
    return Game(token, leaf, node, None)


def _every_instance(_instance) -> bool:
    return True


def oracle_of(job, protocol):
    if job.oracle == joblist.EVERY_INSTANCE:
        return _every_instance
    return protocol.language.oracle


# ---------------------------------------------------------------------------
# passes


@dataclass
class PassResult:
    seconds: float = 0.0  # wall time of the jobs, probes excluded
    games: list = field(default_factory=list)
    owners: list = field(default_factory=list)  # job index of each game
    latencies: list = field(default_factory=list)
    probes: list = field(default_factory=list)

    @property
    def scale(self) -> float:
        """Factor from this pass's wall time to reference-host time."""
        return PROBE_REFERENCE_S / statistics.fmean(self.probes)


def run_pass(setup: Setup, protocols: dict, oracles: list,
             tracer: tracing.Tracer | None = None) -> PassResult:
    lib = setup.lib
    identity_variants = lib.engine.identity_variants
    if tracer is None:
        call = _untimed
    else:
        def call(name, fn, *args):
            tracer.enter(name)
            try:
                return fn(*args)
            finally:
                tracer.exit()
    result = PassResult()
    since_probe = 0.0
    if tracer is None:
        result.probes.append(probe())
    for j, job in enumerate(setup.jobs):
        protocol = protocols[job.protocol]
        oracle = oracles[j]
        job_start = perf_counter()
        if tracer is not None:
            tracer.game = len(result.games)  # the job's first game
        # The default variant seed, as check_protocol uses it.
        variants = call("engine.variants", identity_variants, job.base,
                        job.id_rounds)
        for variant in variants:
            t0 = perf_counter()
            if tracer is None:
                game = play(lib, protocol, oracle, variant, job.mode)
            else:
                tracer.game = len(result.games)
                game = call(tracing.GAME, play, lib, protocol, oracle,
                            variant, job.mode, call)
            result.latencies.append(perf_counter() - t0)
            result.games.append(game)
            result.owners.append(j)
        spent = perf_counter() - job_start
        result.seconds += spent
        since_probe += spent
        if tracer is None and since_probe >= PROBE_EVERY_S:
            result.probes.append(probe())
            since_probe = 0.0
    if tracer is None:
        result.probes.append(probe())
    return result


def run_passes(run_one, deadline: float, min_samples: int = 0) -> list:
    results = []
    while True:
        results.append(run_one())
        samples = sum(len(r.latencies) for r in results)
        if len(results) < MIN_PASSES or samples < min_samples:
            continue
        typical = statistics.median(r.seconds for r in results)
        if perf_counter() + typical > deadline:
            return results


# ---------------------------------------------------------------------------
# checks across games and passes


def load_pins(workload: str, seed: int, digest: str):
    """Pinned job tokens for this seed, or a reason why there are none."""
    path = PINS / f"{workload}.json"
    if not path.exists():
        return None, "no-pin-file"
    entry = json.loads(path.read_text(encoding="utf-8")).get(str(seed))
    if entry is None:
        return None, "seed-not-pinned"
    if entry["jobs"] != digest:
        return None, "job-list-changed"
    return entry["lines"].split(), "pinned"


def job_tokens(result: PassResult) -> list:
    """One token per job: "!<class>" when every game of the job raised,
    else a digest of its games' line digests."""
    groups: dict = {}
    for owner, game in zip(result.owners, result.games):
        groups.setdefault(owner, []).append(game.token)
    out = []
    for owner in sorted(groups):
        tokens = groups[owner]
        if all(t.startswith("!") for t in tokens):
            out.append(tokens[0])
        else:
            out.append(hashlib.sha256("|".join(tokens).encode())
                       .hexdigest()[:6])
    return out


def apply_pins(result: PassResult, pinned) -> list:
    """The pass's games, with those of jobs whose lines differ from the
    pinned ones marked as failed.

    A job pinned as raising whose games now complete, with every check
    passed, is a fixed defect, not a changed line.
    """
    games = result.games
    if pinned is None:
        return games
    current = job_tokens(result)
    changed = {j for j, (now, want) in enumerate(zip(current, pinned))
               if now != want and not want.startswith("!")}
    return [Game(g.token, g.leaf, g.node, "digest")
            if owner in changed and g.failure is None else g
            for owner, g in zip(result.owners, games)]


def same_outputs(a: list, b: list) -> bool:
    return [(g.token, g.leaf, g.node, g.failure) for g in a] == \
        [(g.token, g.leaf, g.node, g.failure) for g in b]


# ---------------------------------------------------------------------------
# metrics


def end_to_end_metrics(plain: list, games: list, setups: list,
                       peak_rss_mb: float, scaled: bool = True) -> dict:
    """The end-to-end metrics of untraced passes, as name -> (value, unit).

    ``games`` is the first pass's games with pinned-digest changes marked;
    every pass plays the same games, so counts come from one pass.
    ``setups`` holds (wall seconds, scale) per set-up.  With ``scaled``
    false the times are plain wall times, as the context line reports them.
    """
    def k(scale: float) -> float:
        return scale if scaled else 1.0

    samples = [t * 1e3 * k(r.scale) for r in plain for t in r.latencies]
    failed = sum(g.failure is not None for g in games)
    return {
        "pass_s": (statistics.median(r.seconds * k(r.scale) for r in plain),
                   "s"),
        "game_ms.p50": (statistics.median(samples), "ms"),
        "game_ms.p90": (statistics.quantiles(samples, n=10)[8], "ms"),
        "setup_s": (statistics.median(t * k(sc) for t, sc in setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": (1 - failed / len(games), "frac"),
        "leaf_evals": (sum(g.leaf for g in games), "count"),
        "node_evals": (sum(g.node for g in games), "count"),
    }


def layer_metrics(tracer: tracing.Tracer, passes: int,
                  plain_pass_s: float) -> dict:
    """Per-pass means of the traced layer totals, as name -> (value, unit).

    Times are self times, so the ``*_s`` entries, ``engine.self_s`` and
    ``bench.self_s`` add up to ``bench.traced_pass_s``.
    """
    s = {k: v / 1e9 / passes for k, v in tracer.self_ns.items()}
    calls = {k: v / passes for k, v in tracer.calls.items()}
    counts = {k: v / passes for k, v in tracer.counts.items()}

    def frac(num: float, den: float) -> float:
        return num / den if den else 0.0

    traced_pass_s = sum(s.values())
    m = {}
    for layer, span in (("graphs.ball", "graphs.ball"),
                        ("runtime.decide", "runtime.decide")):
        m[layer + "_calls"] = (calls.get(span, 0), "count")
        m[layer + "_s"] = (s.get(span, 0.0), "s")
        m[layer + "_new_frac"] = (frac(counts.get(span + "_new", 0),
                                       calls.get(span, 0)), "frac")
    m.update({
        "runtime.replay_calls": (calls.get("runtime.replay", 0), "count"),
        "runtime.replay_s": (s.get("runtime.replay", 0.0), "s"),
        "protocols.cover_moves": (counts.get("protocols.cover_moves", 0),
                                  "count"),
        "protocols.cover_s": (s.get("protocols.cover", 0.0), "s"),
        "protocols.strategy_calls": (calls.get("protocols.strategy", 0),
                                     "count"),
        "protocols.strategy_s": (s.get("protocols.strategy", 0.0), "s"),
        "engine.games": (calls.get("engine.game", 0), "count"),
        "engine.self_s": (s.get("engine.game", 0.0), "s"),
        "engine.variants_s": (s.get("engine.variants", 0.0), "s"),
        "labels.domain_calls": (calls.get("labels.domain", 0), "count"),
        "labels.domain_s": (s.get("labels.domain", 0.0), "s"),
        "labels.values_calls": (counts.get("labels.values_calls", 0),
                                "count"),
        "labels.values_s": (s.get("labels.values", 0.0), "s"),
        "oracles.oracle_calls": (calls.get("oracles.oracle", 0), "count"),
        "oracles.oracle_s": (s.get("oracles.oracle", 0.0), "s"),
        "cli.report_s": (s.get("cli.report", 0.0), "s"),
        "bench.self_s": (sum(s.get(k, 0.0) for k in tracing.BENCH_SPANS),
                         "s"),
        "bench.traced_pass_s": (traced_pass_s, "s"),
        "bench.trace_overhead_frac": (traced_pass_s / plain_pass_s - 1,
                                      "frac"),
    })
    return m


# ---------------------------------------------------------------------------
# main


def traced_passes(setup: Setup, deadline: float):
    """Traced passes until ``deadline``; returns (tracer, results)."""
    tracer = tracing.Tracer()
    protocols = {name: tracing.wrap_protocol(tracer, p)
                 for name, p in setup.protocols.items()}
    oracles = [tracer.timed("oracles.oracle", _every_instance)
               if job.oracle == joblist.EVERY_INSTANCE
               else protocols[job.protocol].language.oracle
               for job in setup.jobs]

    def one() -> PassResult:
        tracer.begin_pass()
        patches = tracing.Patches(tracer, setup.lib)
        try:
            tracer.enter(tracing.PASS)
            try:
                return run_pass(setup, protocols, oracles, tracer)
            finally:
                tracer.exit()
        finally:
            patches.restore()
            tracer.recording = False  # keep the first pass's spans only

    return tracer, run_passes(one, deadline)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(joblist.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    setups = []
    for _ in range(SETUP_REPEATS):
        before = probe()
        t0 = perf_counter()
        setup = set_up(args.workload, args.seed)
        wall = perf_counter() - t0
        setups.append((wall, 2 * PROBE_REFERENCE_S / (before + probe())))
    oracles = [oracle_of(job, setup.protocols[job.protocol])
               for job in setup.jobs]
    pinned, pin_state = load_pins(args.workload, args.seed, setup.digest)

    start = perf_counter()
    budget = args.seconds / 2 if args.trace else args.seconds
    plain = run_passes(
        lambda: run_pass(setup, setup.protocols, oracles),
        start + budget, 0 if args.trace else MIN_GAME_SAMPLES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runs = list(plain)

    games = apply_pins(plain[0], pinned)
    failures: dict = {}
    for g in games:
        if g.failure is not None:
            failures[g.failure] = failures.get(g.failure, 0) + 1
    context = {
        "workload": args.workload, "seed": args.seed,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "jobs": len(setup.jobs), "jobs_digest": setup.digest,
        "pins": pin_state, "games_per_pass": len(games),
        "failures_per_pass": failures, "passes": len(plain),
    }
    if args.trace:
        tracer, traced = traced_passes(setup, start + args.seconds)
        runs += traced
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.jsonl.gz"
        tracer.write(trace_file)
        context.update(traced_passes=len(traced),
                       trace_file=str(trace_file.relative_to(ROOT)))
        metrics = layer_metrics(tracer, len(traced),
                                statistics.median(r.seconds for r in plain))
    else:
        metrics = end_to_end_metrics(plain, games, setups, peak_rss_mb)
        wall = end_to_end_metrics(plain, games, setups, peak_rss_mb, False)
        context.update(
            game_samples=sum(len(r.latencies) for r in plain),
            probe_ms=statistics.median(p * 1e3 for r in plain
                                       for p in r.probes),
            wall={k: wall[k][0] for k in ("pass_s", "game_ms.p50",
                                          "game_ms.p90", "setup_s")})

    # Every pass, traced or not, must reproduce the first pass's outputs.
    correct = (all(same_outputs(r.games, plain[0].games) for r in runs)
               and not any(g.wrong for g in games))
    failed = sum(g.failure is not None for g in games)
    print(json.dumps(context, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": len(games) * len(runs),
        "failed": failed * len(runs),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
