"""Batch front-end: run protocols on instance files and emit reports.

Subcommands: ``check`` (verdict for one instance), ``game`` (the same
under several identity assignments), ``transform`` (derive a lifted,
collapsed or combined protocol name), ``gen`` (instance files for stock
graph families and encoded formulas) and ``export`` (DOT text).

Reports go to stdout as JSON; diagnostics go to stderr.  A run report
puts each top-level key on its own line and each witness label on its
own line inside its layer's list; every value is compact JSON with the
default ``", "`` and ``": "`` separators.  The layout keeps every value
in ``json``'s C encoder (``indent`` would switch to the pure-Python one)
and is not pinned: readers should parse it as JSON.  Exit status is
0 for an in-language verdict, 1 for out-of-language, 2 for any error.
The ``LOCDEC_MAX_EVALS`` environment variable caps leaf enumeration.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from typing import Optional

from . import __version__, gen
from .engine import (CONSTRUCTIVE, EXHAUSTIVE, EvalMode, GameOutcome,
                     game_evaluate, identity_variants)
from .formulas import parse_formula
from .graphs import (Cls, IdAssignment, InputAssignment, Instance,
                     InstanceError, Lit, Marks, Ptr, emit_instance,
                     input_from_json, input_to_json, instance_digest,
                     parse_instance)
from .engine import CollapsedLabel, CombinedLabel
from .labels import (INVALID, GatherCert, HamCert, Labelling, NonHamCert,
                     NSTCert, SizeCert, TreeCert)
from .protocol import Protocol, pattern_tag
from .protocols import cyclevc, nta, opt, qbf, resolve


class ReportError(ValueError):
    """Raised when report text does not parse back into a RunReport."""


# ---------------------------------------------------------------------------
# label serialization: every label value renders as a tagged record


# Every label record class a protocol domain can decode, by class name.
LABEL_RECORDS: tuple[type, ...] = (
    TreeCert, SizeCert, GatherCert, HamCert, NSTCert, NonHamCert,
    CollapsedLabel, CombinedLabel,
    opt.OptLabel, opt.UnitVal, nta.MapDefect, nta.NodeImage, qbf.TruthLabel,
    cyclevc.XClaim, cyclevc.SPick, cyclevc.CycleResponse)
_RECORDS = {cls.__name__: cls for cls in LABEL_RECORDS}


def _value_to_json(x):
    if x is INVALID:
        return {"k": "invalid"}
    if x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, tuple) and hasattr(x, "_fields"):
        if type(x).__name__ not in _RECORDS:
            raise ReportError(f"unregistered label class {type(x).__name__}")
        return {"k": type(x).__name__, "f": [_value_to_json(f) for f in x]}
    if isinstance(x, tuple):
        return {"k": "tuple", "f": [_value_to_json(f) for f in x]}
    if isinstance(x, (Ptr, Marks, Lit, Cls)):
        return {"k": "input", "v": input_to_json(x)}
    raise ReportError(f"unserializable label value {x!r}")


def _value_from_json(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, dict) and "k" in obj:
        kind = obj["k"]
        if kind == "invalid":
            return INVALID
        if kind == "input":
            try:
                return input_from_json(obj["v"])
            except InstanceError as exc:
                raise ReportError(f"malformed input record: {exc}") from exc
        fields = [_value_from_json(f) for f in obj.get("f", ())]
        if kind == "tuple":
            return tuple(fields)
        cls = _RECORDS.get(kind)
        if cls is None:
            raise ReportError(f"unknown label record {kind!r}")
        try:
            return cls(*fields)
        except TypeError as exc:
            raise ReportError(f"malformed {kind} record: {exc}") from exc
    raise ReportError(f"malformed label value {obj!r}")


# ---------------------------------------------------------------------------
# run reports


@dataclass(frozen=True)
class RunReport:
    protocol: str
    digest: str
    verdict: bool
    decisions: tuple[bool, ...]
    witness: tuple[Labelling, ...]
    stats: dict
    version: str


def build_report(protocol: Protocol, instance: Instance,
                 outcome: GameOutcome, extra: Optional[dict] = None,
                 ) -> RunReport:
    stats = {"leaf_evaluations": outcome.stats.leaf_evaluations,
             "node_evaluations": outcome.stats.node_evaluations,
             "views_reused": outcome.stats.views_reused}
    if extra:
        stats.update(extra)
    return RunReport(
        protocol=protocol.name,
        digest=instance_digest(instance),
        verdict=outcome.verdict,
        decisions=tuple(outcome.leaf.at(v) for v in range(instance.n)),
        witness=outcome.line,
        stats=stats,
        version=__version__,
    )


def _rows(rows: list[str], pad: str) -> str:
    """A JSON list of rendered rows, one per line, closing at indent `pad`."""
    return "[\n" + ",\n".join(rows) + "\n" + pad + "]" if rows else "[]"


def emit_report(report: RunReport) -> str:
    dumps = json.dumps
    witness = _rows(["    " + _rows(["      " + dumps(_value_to_json(x))
                                     for x in layer], "    ")
                     for layer in report.witness], "  ")
    return ("{\n"
            f'  "protocol": {dumps(report.protocol)},\n'
            f'  "instance": {dumps(report.digest)},\n'
            f'  "verdict": {dumps(report.verdict)},\n'
            f'  "decisions": {dumps(list(report.decisions))},\n'
            f'  "witness": {witness},\n'
            f'  "stats": {dumps(report.stats)},\n'
            f'  "version": {dumps(report.version)}\n'
            "}\n")


def _boolean(value, field: str) -> bool:
    if not isinstance(value, bool):
        raise ReportError(f"{field} {value!r} is not a JSON boolean")
    return value


def parse_report(text: str) -> RunReport:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReportError(f"malformed report: {exc}") from exc
    try:
        decisions = doc["decisions"]
        if not isinstance(decisions, list):
            raise ReportError(f"decisions {decisions!r} is not a list")
        return RunReport(
            protocol=doc["protocol"],
            digest=doc["instance"],
            verdict=_boolean(doc["verdict"], "verdict"),
            decisions=tuple(_boolean(d, "decision") for d in decisions),
            witness=tuple(Labelling(_value_from_json(x) for x in layer)
                          for layer in doc["witness"]),
            stats=dict(doc["stats"]),
            version=doc["version"],
        )
    except (KeyError, TypeError) as exc:
        raise ReportError(f"report misses field: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def _mode_of(args) -> EvalMode:
    base = CONSTRUCTIVE if args.mode == "constructive" else EXHAUSTIVE
    if args.node_cap is None:
        return base
    return EvalMode(constructive=base.constructive, node_cap=args.node_cap)


def _cmd_check(args) -> int:
    protocol = resolve(args.protocol)
    with open(args.instance, encoding="utf-8") as fh:
        instance = parse_instance(fh.read())
    outcome = game_evaluate(protocol, instance, _mode_of(args))
    sys.stdout.write(emit_report(build_report(protocol, instance, outcome)))
    return 0 if outcome.verdict else 1


def _cmd_game(args) -> int:
    protocol = resolve(args.protocol)
    with open(args.instance, encoding="utf-8") as fh:
        instance = parse_instance(fh.read())
    variants = identity_variants(instance, count=args.ids, seed=args.seed)
    mode = _mode_of(args)
    outcomes = [game_evaluate(protocol, v, mode) for v in variants]
    verdicts = [o.verdict for o in outcomes]
    if len(set(verdicts)) > 1:
        for variant, verdict in zip(variants, verdicts):
            print(f"ids {variant.ids.ids} -> {verdict}", file=sys.stderr)
        raise ReportError(
            f"{protocol.name}: verdict depends on the identity assignment")
    extra = {"id_rounds": len(variants),
             "total_leaf_evaluations": sum(o.stats.leaf_evaluations
                                           for o in outcomes)}
    sys.stdout.write(emit_report(
        build_report(protocol, instance, outcomes[0], extra)))
    return 0 if verdicts[0] else 1


def _cmd_transform(args) -> int:
    if args.op == "unanimous":
        if len(args.names) != 2:
            raise ReportError("unanimous takes two protocol names")
        derived = f"unanimous:{args.names[0]}+{args.names[1]}"
    else:
        if len(args.names) != 1:
            raise ReportError(f"{args.op} takes one protocol name")
        derived = f"{args.op}:{args.names[0]}"
    protocol = resolve(derived)
    doc = {"registered": derived,
           "levels": protocol.level_count,
           "pattern": pattern_tag(protocol.first, protocol.level_count)}
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return 0


_GRAPH_KINDS = {
    "path": gen.path_graph,
    "cycle": gen.cycle_graph,
    "clique": gen.clique_graph,
    "star": gen.star_graph,
}


def _cmd_gen(args) -> int:
    kind, params = args.kind, args.params
    if kind == "qbf":
        if len(params) != 1:
            raise ReportError("gen qbf takes one formula string")
        instance = qbf.encode_qbf(parse_formula(params[0]))
    else:
        if kind == "grid":
            if len(params) != 2:
                raise ReportError("gen grid takes rows and columns")
            graph = gen.grid_graph(int(params[0]), int(params[1]))
        elif kind == "random":
            if len(params) != 1:
                raise ReportError("gen random takes a node count")
            graph = gen.random_connected_graph(int(params[0]), args.seed or 0)
        else:
            if len(params) != 1:
                raise ReportError(f"gen {kind} takes a node count")
            graph = _GRAPH_KINDS[kind](int(params[0]))
        n = graph.n
        N = n * n
        if args.seed is None and kind != "random":
            ids = tuple(range(1, n + 1))
        else:
            rng = random.Random(f"gen-ids:{kind}:{args.seed or 0}")
            ids = tuple(rng.sample(range(1, N + 1), n))
        instance = Instance(graph, IdAssignment(ids, N),
                            InputAssignment((None,) * n))
    text = emit_instance(instance)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _input_text(x) -> str:
    if x is None:
        return ""
    if isinstance(x, Ptr):
        return "ptr=root" if x.to is None else f"ptr={x.to}"
    if isinstance(x, Marks):
        return "marks={" + ",".join(str(i) for i in sorted(x.ids)) + "}"
    if isinstance(x, Lit):
        return f"lit={'+' if x.sign > 0 else '-'}{x.level}"
    if isinstance(x, Cls):
        return "clause"
    return f"x={x}"


def _cmd_export(args) -> int:
    with open(args.instance, encoding="utf-8") as fh:
        instance = parse_instance(fh.read())
    decisions: Optional[tuple[bool, ...]] = None
    if args.report:
        with open(args.report, encoding="utf-8") as fh:
            report = parse_report(fh.read())
        if report.digest != instance_digest(instance):
            raise ReportError("report was produced for a different instance")
        if len(report.decisions) != instance.n:
            raise ReportError(f"report holds {len(report.decisions)} decisions "
                              f"for {instance.n} nodes")
        decisions = report.decisions
    lines = ["graph locdec {"]
    for v in range(instance.n):
        parts = [f"id={instance.id_of(v)}"]
        txt = _input_text(instance.input_of(v))
        if txt:
            parts.append(txt)
        attrs = ""
        if decisions is not None:
            parts.append("accept" if decisions[v] else "reject")
            attrs = (', color=green' if decisions[v] else ', color=red')
        label = "\\n".join(parts)
        lines.append(f'  v{v} [label="{label}"{attrs}];')
    for (u, v) in sorted(instance.graph.edges):
        attr = ""
        if instance.graph.weights is not None:
            attr = f' [label="{instance.graph.weights[(u, v)]}"]'
        lines.append(f"  v{u} -- v{v}{attr};")
    lines.append("}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _add_run_flags(sub) -> None:
    sub.add_argument("--mode", choices=("exhaustive", "constructive"),
                     default="exhaustive")
    sub.add_argument("--node-cap", type=int, default=None,
                     help="largest instance the game will accept")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locdec",
        description="Run local-decision protocols on instance files.")
    parser.add_argument("--version", action="version",
                        version=f"locdec {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    check = subs.add_parser("check", help="verdict for one instance")
    check.add_argument("protocol")
    check.add_argument("instance")
    _add_run_flags(check)
    check.set_defaults(run=_cmd_check)

    game = subs.add_parser(
        "game", help="verdict under several identity assignments")
    game.add_argument("protocol")
    game.add_argument("instance")
    game.add_argument("--ids", type=int, default=3,
                      help="number of identity assignments to sample")
    game.add_argument("--seed", type=int, default=0)
    _add_run_flags(game)
    game.set_defaults(run=_cmd_game)

    transform = subs.add_parser(
        "transform", help="derive a lifted, collapsed or combined protocol")
    transform.add_argument("op", choices=("lift", "collapse", "unanimous"))
    transform.add_argument("names", nargs="+")
    transform.set_defaults(run=_cmd_transform)

    gen_cmd = subs.add_parser("gen", help="write an instance file")
    gen_cmd.add_argument("kind", choices=("path", "cycle", "clique", "star",
                                          "grid", "qbf", "random"))
    gen_cmd.add_argument("params", nargs="+")
    gen_cmd.add_argument("--seed", type=int, default=None)
    gen_cmd.add_argument("-o", "--out", default=None)
    gen_cmd.set_defaults(run=_cmd_gen)

    export = subs.add_parser("export", help="DOT text for an instance")
    export.add_argument("instance")
    export.add_argument("--report", default=None)
    export.set_defaults(run=_cmd_export)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
