"""Outside-in layer timing for the traced pass.

Nothing here edits ``locdec``: the tracer wraps the callables a resolved
``Protocol`` carries (``dataclasses.replace`` on its levels, verifier and
language), and for the span of a traced pass it swaps three module
attributes: ``runtime.ball`` (ball construction as the runtime calls it),
``engine.evaluate`` (the principal-line replay inside ``game_evaluate``)
and ``labels.LabelDomain.values``.  ``Patches.restore`` puts the originals
back, so untraced passes run the program untouched.

Each span records its name, the game it belongs to (its index within the
pass; a job's ``identity_variants`` call shares the job's first game),
its parent span and its start and end.  A span's self time is its
duration minus the time its child spans cover, so the self times of all
spans in a pass add up to the pass's root span exactly.  Spans of the first traced pass stay in memory
and are written out when the benchmark ends; later passes only add to the
per-layer totals.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
from array import array
from collections import Counter
from time import perf_counter_ns

# Span names are "<module>.<layer>"; bench.* spans are the benchmark's own
# work (the root of each pass, each game's checks, and the key bookkeeping
# for the *_new_frac ratios).
PASS = "bench.pass"
GAME = "bench.game"
KEYS = "bench.keys"
BENCH_SPANS = (PASS, GAME, KEYS)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self._stack: list[list[int]] = []  # [name, start, child_ns, span_no]
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans = array("q")  # (span_no, name, game, parent, start, end)
        self.recording = True
        self.game = 0
        self._span_no = 0
        self._in_values = False
        self._seen_balls: dict = {}
        self._seen_decisions: set = set()

    # -- span bookkeeping -------------------------------------------------

    def _name(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
        return idx

    def enter(self, name: str) -> None:
        self._stack.append([self._name(name), perf_counter_ns(), 0,
                            self._span_no])
        self._span_no += 1

    def exit(self) -> None:
        end = perf_counter_ns()
        idx, start, child, no = self._stack.pop()
        dur = end - start
        self.self_ns[self.names[idx]] += dur - child
        self.calls[self.names[idx]] += 1
        parent = -1
        if self._stack:
            top = self._stack[-1]
            top[2] += dur
            parent = top[3]
        if self.recording:
            self.spans.extend((no, idx, self.game, parent, start, end))

    def begin_pass(self) -> None:
        """Reset the first-seen sets: the *_new_frac ratios are per pass."""
        self._seen_balls = {}
        self._seen_decisions = set()

    # -- wrappers ----------------------------------------------------------

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()
        return wrapper

    def timed_iter(self, name: str, iterator, count: str | None = None):
        """Re-yield ``iterator``, timing each step as one span."""
        while True:
            self.enter(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.exit()
            if count is not None:
                self.counts[count] += 1
            yield item

    def timed_cover(self, cover):
        def wrapper(instance, earlier):
            self.enter("protocols.cover")
            try:
                moves = iter(cover(instance, earlier))
            finally:
                self.exit()
            return self.timed_iter("protocols.cover", moves,
                                   "protocols.cover_moves")
        return wrapper

    def timed_decide(self, decide):
        def wrapper(view):
            self.enter(KEYS)
            try:
                self._note_decision(decide, view)
            finally:
                self.exit()
            self.enter("runtime.decide")
            try:
                return decide(view)
            finally:
                self.exit()
        return wrapper

    def _note_decision(self, decide, view) -> None:
        members = view.members
        key = (id(decide), view.centre, members, view.edges,
               tuple(view.ids_in[v] for v in members),
               tuple(view.inputs_in[v] for v in members),
               tuple(tuple(layer[v] for v in members) for layer in view.layers),
               None if view.weights_in is None
               else tuple(sorted(view.weights_in.items())),
               view.N)
        try:
            hash(key)
        except TypeError:
            key = repr(key)
        if key not in self._seen_decisions:
            self._seen_decisions.add(key)
            self.counts["runtime.decide_new"] += 1

    def _note_ball(self, instance, v: int, t: int) -> None:
        # The instance itself is kept so its id() cannot be reused.
        seen = self._seen_balls.setdefault(id(instance), (instance, set()))[1]
        if (v, t) not in seen:
            seen.add((v, t))
            self.counts["graphs.ball_new"] += 1

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Write the recorded spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["span", "name", "game", "parent",
                                            "start_ns", "end_ns"],
                                 "names": self.names}) + "\n")
            s = self.spans
            for i in range(0, len(s), 6):
                fh.write(json.dumps(s[i:i + 6].tolist()) + "\n")


def wrap_protocol(tracer: Tracer, protocol):
    """The same protocol with every carried callable timed."""
    levels = tuple(
        dataclasses.replace(
            lv,
            domain_of=tracer.timed("labels.domain", lv.domain_of),
            cover=None if lv.cover is None else tracer.timed_cover(lv.cover),
            strategy=None if lv.strategy is None
            else tracer.timed("protocols.strategy", lv.strategy))
        for lv in protocol.levels)
    verifier = dataclasses.replace(
        protocol.verifier, decide=tracer.timed_decide(protocol.verifier.decide))
    language = protocol.language
    if language is not None:
        language = dataclasses.replace(
            language, oracle=tracer.timed("oracles.oracle", language.oracle))
    return dataclasses.replace(protocol, levels=levels, verifier=verifier,
                               language=language)


class Patches:
    """Module attributes swapped for the length of one traced pass."""

    def __init__(self, tracer: Tracer, lib) -> None:
        self._saved = []
        runtime, engine, labels = lib.runtime, lib.engine, lib.labels

        ball = runtime.ball

        def traced_ball(instance, labellings, v, t):
            tracer.enter(KEYS)
            try:
                tracer._note_ball(instance, v, t)
            finally:
                tracer.exit()
            tracer.enter("graphs.ball")
            try:
                return ball(instance, labellings, v, t)
            finally:
                tracer.exit()

        values = labels.LabelDomain.values

        def traced_values(domain):
            # Re-entry guard: sub-domains enumerated inside a top-level
            # values() step belong to that step's span.
            if tracer._in_values:
                return values(domain)
            tracer.counts["labels.values_calls"] += 1
            return _guarded(values(domain))

        def _guarded(iterator):
            while True:
                tracer.enter("labels.values")
                tracer._in_values = True
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer._in_values = False
                    tracer.exit()
                yield item

        self._swap(runtime, "ball", traced_ball)
        self._swap(engine, "evaluate",
                   tracer.timed("runtime.replay", engine.evaluate))
        self._swap(labels.LabelDomain, "values", traced_values)

    def _swap(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)
