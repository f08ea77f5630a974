"""Tests for the benchmark itself.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re

import pytest

import jobs as joblist
import run
import tracing

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


@pytest.fixture(scope="module")
def lib():
    return run.load_locdec()


def test_metric_names_and_counts():
    e2e, layer = BENCHMARK["end_to_end"], BENCHMARK["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layer) <= 128
    names = [m["name"] for m in e2e + layer]
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)


def test_printed_metrics_are_the_declared_ones(lib):
    setup = run.set_up("constructive-grid", 0)
    setup.jobs = setup.jobs[:3]
    oracles = [run.oracle_of(j, setup.protocols[j.protocol])
               for j in setup.jobs]
    plain = [run.run_pass(setup, setup.protocols, oracles)]
    e2e = run.end_to_end_metrics(plain, plain[0].games, [(0.1, 1.0)], 1.0)
    assert {(k, u) for k, (_, u) in e2e.items()} == \
        {(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]}
    layer = run.layer_metrics(tracing.Tracer(), 1, 1.0)
    assert {(k, u) for k, (_, u) in layer.items()} == \
        {(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]}


@pytest.mark.parametrize("workload", sorted(joblist.WORKLOADS))
def test_job_list_is_a_pure_function_of_the_seed(lib, workload):
    first = joblist.jobs_digest(lib, joblist.build(lib, workload, 7))
    again = joblist.jobs_digest(lib, joblist.build(lib, workload, 7))
    other = joblist.jobs_digest(lib, joblist.build(lib, workload, 8))
    assert first == again != other


def _shape_index(protocol: str, shape: int) -> int:
    return joblist.SHAPE_PROTOCOLS.index(protocol) * 9 + shape


@pytest.mark.parametrize("workload, index", [
    ("exhaustive-search", 0),                    # nta, exhaustive
    ("constructive-grid", 0),                    # size, constructive
    ("corpus-sweep", _shape_index("cycle-vc", 8)),  # values fallback
])
def test_wrapped_protocol_plays_the_same_game(lib, workload, index):
    job = joblist.build(lib, workload, 3)[index]
    protocol = lib.protocols.resolve(job.protocol)
    plain = lib.engine.game_evaluate(protocol, job.base, job.mode)
    tracer = tracing.Tracer()
    wrapped = tracing.wrap_protocol(tracer, protocol)
    patches = tracing.Patches(tracer, lib)
    try:
        traced = lib.engine.game_evaluate(wrapped, job.base, job.mode)
    finally:
        patches.restore()
    assert traced == plain
    assert tracer.calls["runtime.decide"] > 0
    assert tracer.calls["graphs.ball"] > 0
    assert tracer.calls["runtime.replay"] == 1


def test_corpus_loop_plays_what_check_protocol_plays(lib):
    # The corpus sweep inlines check_protocol's loop to keep each outcome.
    setup = run.set_up("corpus-sweep", 0)
    job = next(j for j in setup.jobs if j.protocol == "maxcut")
    protocol = setup.protocols[job.protocol]
    oracle = run.oracle_of(job, protocol)
    report = lib.engine.check_protocol(protocol, [job.base], oracle,
                                       job.mode, job.id_rounds)
    variants = lib.engine.identity_variants(job.base, job.id_rounds)
    games = [run.play(lib, protocol, oracle, v, job.mode) for v in variants]
    assert report.total_runs == len(games) == 3
    assert [e.ids for e in report.disagreements] == \
        [v.ids.ids for v, g in zip(variants, games) if g.failure == "oracle"]


def test_patches_are_restored(lib):
    before = (lib.runtime.ball, lib.engine.evaluate,
              lib.labels.LabelDomain.values)
    tracing.Patches(tracing.Tracer(), lib).restore()
    assert (lib.runtime.ball, lib.engine.evaluate,
            lib.labels.LabelDomain.values) == before


def test_self_times_add_up_to_the_traced_pass(lib, monkeypatch):
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    setup = run.set_up("corpus-sweep", 0)
    setup.jobs = setup.jobs[::20]
    tracer, results = run.traced_passes(setup, deadline=0.0)
    assert len(results) == 1
    spans = tracer.spans
    roots = [spans[i + 5] - spans[i + 4] for i in range(0, len(spans), 6)
             if tracer.names[spans[i + 1]] == tracing.PASS]
    assert roots == [sum(tracer.self_ns.values())]
    metrics = run.layer_metrics(tracer, 1, 1.0)
    parts = sum(v for k, (v, u) in metrics.items()
                if u == "s" and k != "bench.traced_pass_s")
    assert parts == pytest.approx(metrics["bench.traced_pass_s"][0])
