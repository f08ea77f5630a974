"""A catalogue of mutants: small deliberate faults in the source, each with
the tests that must fail on it (mutation analysis: DeMillo, Lipton &
Sayward 1978; the survey of Jia & Harman 2011).

Each mutant names a file, an anchor text that occurs there exactly once,
the text that replaces it, and the test ids that must fail, each a whole
test function (``path::[Class::]test_name``, no parameter id).  Run

    python tests/mutants.py [NAME ...]

to play the named mutants, or all of them.  The runner copies ``src/``,
``tests/``, ``perfbench/`` and ``pyproject.toml`` into a temporary
directory and first runs every chosen mutant's tests there unmutated,
which must pass, so that a failure is the mutant's doing.  It then
applies one mutant at a time to the copy and runs that mutant's tests in
a child process: the mutant is killed when a test fails, and survives
when all pass.  It prints one line per mutant with the time taken, exits
non-zero unless every mutant is killed, and writes nothing into the
checkout.  ``tests/test_mutants.py`` checks, without running a mutant,
that every anchor occurs exactly once and every test id names a test.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
# Seconds one pytest run may take; a mutant that hangs its tests is
# reported as timed out, not killed.
TIMEOUT = 600


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str             # relative to the repository root
    anchor: str           # occurs exactly once in the file
    replacement: str
    tests: tuple[str, ...]
    fault: str            # what the mutant breaks, in one line


MUTANTS = (
    Mutant(
        "forced-line-decides-twice-after-rejection", "src/locdec/engine.py",
        "        if rejected:\n            return accepts\n", "",
        ("tests/test_forced_line.py::"
         "test_a_rejected_forced_line_decides_twice_only_up_to_its_rejection",),
        "a rejected forced line decides the nodes after its first rejection"
        " twice"),
    Mutant(
        "forced-line-decides-once", "src/locdec/engine.py",
        "    rejected = False\n", "    rejected = True\n",
        ("tests/test_forced_line.py::"
         "test_a_forced_line_refuses_a_verifier_that_answers_twice_apart",
         "tests/test_forced_line.py::"
         "test_a_rejected_forced_line_refuses_an_impure_node_up_to_its_rejection"),
        "a forced line decides each node once, so an impure verifier passes"),
    Mutant(
        "constructive-play-calls-a-missing-strategy", "src/locdec/engine.py",
        "                      and level.strategy is not None\n", "",
        ("tests/test_engine.py::"
         "test_a_prover_level_without_a_strategy_is_searched",
         "tests/test_qbf.py::TestGames::"
         "test_searched_levels_play_the_exhaustive_game_on_wider_formulas"),
        "constructive play calls the strategy of a prover level that has"
        " none"),
    Mutant(
        "searched-level-plays-a-forced-line", "src/locdec/engine.py",
        "    if all(strategic):\n",
        "    if k == 0 or (mode.constructive and k == 1 and provers[0]):\n",
        ("tests/test_forced_line.py::"
         "test_a_searched_level_plays_what_exhaustive_play_plays",
         "tests/test_qbf.py::TestGames::"
         "test_collapsed_searched_level_plays_the_exhaustive_game"),
        "constructive play of one prover level with no strategy takes its"
        " first cover move unsearched"),
    Mutant(
        "collapse-wraps-a-missing-strategy", "src/locdec/transforms.py",
        "    if strategy is not None:\n",
        "    if True:\n",
        ("tests/test_engine.py::test_collapse_keeps_a_searched_level_searched",
         "tests/test_qbf.py::TestGames::"
         "test_collapsed_searched_level_plays_the_exhaustive_game"),
        "collapse_last_universal wraps a missing base strategy in a strategy"
        " that calls it"),
    Mutant(
        "no-forfeit", "src/locdec/engine.py",
        "        if not prover and domain.has_invalid else None\n",
        "        if False else None\n",
        ("tests/test_reference_minimax.py::"
         "test_exhaustive_play_is_the_reference_minimax",),
        "the disprover may not decline with the all-INVALID labelling"),
    Mutant(
        "last-winning-move", "src/locdec/engine.py",
        "            if value == wants:\n"
        "                return value, (move,) + rest\n"
        "            if fallback is None:\n"
        "                fallback = (move, rest)\n"
        "        move, rest = fallback\n"
        "        return not wants, (move,) + rest\n",
        "            if value == wants:\n"
        "                fallback = (move, rest, True)\n"
        "            elif fallback is None:\n"
        "                fallback = (move, rest, False)\n"
        "        move, rest, won = fallback\n"
        "        return wants == won, (move,) + rest\n",
        ("tests/test_reference_minimax.py::"
         "test_exhaustive_play_is_the_reference_minimax",),
        "a level's owner takes its last winning move, not its first"),
    Mutant(
        "forced-line-plays-canonical", "src/locdec/engine.py",
        "        line = (next(moves(0, ())),) if k else ()\n",
        "        line = (canonical_labelling(domains[0]),) if k else ()\n",
        ("tests/test_reference_minimax.py::"
         "test_a_forced_line_plays_the_strategy_move",),
        "a forced line decides the canonical labelling, not the strategy's"
        " move"),
    Mutant(
        "extra-leaf-per-game", "src/locdec/engine.py",
        "    verdict, line = play(0, ())\n",
        "    verdict, line = play(0, ())\n    leaf_value(line, 0)\n",
        ("tests/test_pin_gate.py::test_workload_replays_its_pinned_lines",),
        "each searched game decides one leaf more than it needs"),
    Mutant(
        "cover-move-unchecked", "src/locdec/engine.py",
        "            yield layer_row(move, n, idx)\n"
        "        if forfeit is not None and not seen_forfeit:\n",
        "            yield move\n"
        "        if forfeit is not None and not seen_forfeit:\n",
        ("tests/test_engine.py::test_a_short_cover_move_is_refused_when_drawn",),
        "a cover move is yielded without its draw-time length check"),
    Mutant(
        "hinted-rejection-ignored", "src/locdec/runtime.py",
        "        if first is not None and not verdict(decide, rows, first):\n"
        "            return first\n",
        "        if first is not None:\n"
        "            verdict(decide, rows, first)\n",
        ("tests/test_refuter_first.py::"
         "test_a_rejecting_hint_settles_the_leaf_at_one_decision",
         "tests/test_reference_minimax.py::"
         "test_exhaustive_play_is_the_reference_minimax"),
        "the leaf loop decides the hinted node but ignores its rejection"),
    Mutant(
        "accepting-hint-ends-the-leaf", "src/locdec/runtime.py",
        "            return first\n        order = self.order\n",
        "            return first\n        if first is not None:\n"
        "            return None\n        order = self.order\n",
        ("tests/test_refuter_first.py::"
         "test_an_accepting_hint_leaves_the_rest_to_node_order",),
        "a leaf whose hinted node accepts is accepted at once"),
    Mutant(
        "rejecter-stays-in-place", "src/locdec/runtime.py",
        "                if i:\n                    del order[i]\n"
        "                    order.insert(0, v)\n",
        "",
        ("tests/test_refuter_first.py::"
         "test_one_level_game_finds_its_rejecter_at_the_front",
         "tests/test_pin_gate.py::test_workload_replays_its_pinned_lines"),
        "a rejecter found in the leaf loop's scan stays where it is in the"
        " order"),
    Mutant(
        "qbf-decodes-per-call", "src/locdec/protocols/qbf.py",
        "    @keep_last\n    def checked_view", "    def checked_view",
        ("tests/test_keep_last.py::test_qbf_decodes_its_formula_once_per_game",),
        "qbf decodes its formula at every cover call, not once per game"),
    Mutant(
        "collapse-branches-on-first-read", "src/locdec/transforms.py",
        "            # Advance the last choice with untried values; drop the"
        " rest.\n",
        "            del path[1:]\n",
        ("tests/test_collapse_reads.py::"
         "test_collapsed_toys_decide_like_the_full_product",
         "tests/test_collapse_reads.py::"
         "test_collapsed_qbf_decides_like_the_full_product"),
        "a collapsed level branches only on the first label its verifier"
        " reads"),
    Mutant(
        "collapse-stops-at-first-accept", "src/locdec/transforms.py",
        "            if len(final.chosen) < len(path):\n",
        "            return True\n"
        "            if len(final.chosen) < len(path):\n",
        ("tests/test_collapse_reads.py::"
         "test_collapsed_toys_decide_like_the_full_product",
         "tests/test_collapse_reads.py::"
         "test_a_replay_that_stops_short_is_refused"),
        "a collapsed level accepts after its first accepting run"),
    Mutant(
        "frontier-keeps-full-adjacency", "src/locdec/graphs.py",
        "            s = adj[u] & inside\n",
        "            s = adj[u]\n",
        ("tests/test_ball_property.py::test_ball_matches_brute_force",),
        "a frontier member keeps neighbours outside the ball"),
    Mutant(
        "frontier-sets-shared-by-size", "src/locdec/graphs.py",
        "            adj_in[u] = shared.setdefault(s, s)\n",
        "            adj_in[u] = shared.setdefault(len(s), s)\n",
        ("tests/test_ball_property.py::test_ball_matches_brute_force",),
        "frontier members with as many in-ball neighbours share one set,"
        " whatever the neighbours"),
    Mutant(
        "geometry-compares-graph-only", "src/locdec/graphs.py",
        "    if kept is None or (kept.graph, kept.ids) != (instance.graph,"
        " instance.ids):\n",
        "    if kept is None or kept.graph != instance.graph:\n",
        ("tests/test_ball_property.py::"
         "test_kept_geometry_serves_each_pair_its_own_views",),
        "a kept geometry serves a graph under another identity assignment"),
    Mutant(
        "shape-keyed-on-centre", "src/locdec/graphs.py",
        "    by_centre = shapes.get(t)\n    if by_centre is None:\n"
        "        by_centre = shapes[t] = ",
        "    by_centre = shapes.get(0)\n    if by_centre is None:\n"
        "        by_centre = shapes[0] = ",
        ("tests/test_ball_property.py::"
         "test_kept_geometry_serves_each_pair_its_own_views",),
        "a kept shape serves its centre at every radius"),
    Mutant(
        "tree-cert-budget-counts-identities-only", "src/locdec/labels.py",
        "tree_field_specs(n, N), TreeCert,\n                       1)",
        "tree_field_specs(n, N), TreeCert)",
        ("tests/test_schemes.py::"
         "test_every_level_domain_builds_at_n_and_n_squared_identities",),
        "a tree certificate's budget leaves out its parent flag, so N = n"
        " refuses it"),
    Mutant(
        "tree-ok-skips-parent-adjacency", "src/locdec/schemes.py",
        "    for w in nbrs:\n        if ids[w] == parent:\n"
        "            return read(labels[w])[2] == own[2] - 1\n",
        "    for w in ids:\n        if ids[w] == parent:\n"
        "            return read(labels[w])[2] == own[2] - 1\n",
        ("tests/test_kernel_property.py::"
         "test_tree_ok_refuses_a_parent_two_steps_away",),
        "tree_ok accepts a parent anywhere in the ball, not only a"
        " neighbour"),
    Mutant(
        "tree-ok-walks-neighbours-sorted", "src/locdec/schemes.py",
        "    nbrs = ball.adj_in[centre]\n    for w in nbrs:\n"
        "        other = read(labels[w])\n"
        "        if other is None or other[0] != r:\n",
        "    nbrs = ball.adj_in[centre]\n    for w in sorted(nbrs):\n"
        "        other = read(labels[w])\n"
        "        if other is None or other[0] != r:\n",
        ("tests/test_kernel_property.py::"
         "test_kernels_read_and_answer_as_their_references",),
        "tree_ok reads its neighbours' labels in another order than the"
        " view's"),
    Mutant(
        "tree-ok-reads-parent-first", "src/locdec/schemes.py",
        "    r = own[0]\n    nbrs = ball.adj_in[centre]\n",
        "    r = own[0]\n    nbrs = ball.adj_in[centre]\n"
        "    for w in nbrs:\n"
        "        if ball.ids_in[w] == own[1]:\n"
        "            read(labels[w])\n",
        ("tests/test_kernel_property.py::"
         "test_kernels_read_and_answer_as_their_references",),
        "tree_ok reads the parent's label before its neighbours' labels"),
    Mutant(
        "sum-ok-ignores-children", "src/locdec/schemes.py",
        "            children += other[-1]\n",
        "            pass\n",
        ("tests/test_kernel_property.py::"
         "test_kernels_read_and_answer_as_their_references",
         "tests/test_schemes.py::test_gather_sum_honest_accepts",
         "tests/test_nested_reads.py::"
         "test_cyclevc_reads_its_counts_as_the_projected_views_did",
         "tests/test_nested_reads.py::"
         "test_opt_reads_its_gatherings_as_the_projected_views_did"),
        "sum_ok checks each total against the node's own value alone, not"
        " its children's totals"),
    Mutant(
        "part-reader-ignores-cert-class", "src/locdec/schemes.py",
        "            if isinstance(nested, cert):\n"
        "                return nested\n",
        "            return nested\n",
        ("tests/test_kernel_property.py::"
         "test_tree_readers_read_what_attrgetter_reads",
         "tests/test_nested_reads.py::"
         "test_cyclevc_reads_its_counts_as_the_projected_views_did",
         "tests/test_nested_reads.py::"
         "test_opt_reads_its_gatherings_as_the_projected_views_did"),
        "part_reader reads a nested field of any class as a certificate"),
    Mutant(
        "evaluate-makes-a-store", "src/locdec/runtime.py",
        "    return Decision(tuple(bool(decide(build(instance, rows, v, radius)))\n",
        "    views = ViewStore(instance, radius)\n"
        "    return Decision(tuple(bool(views.verdict(decide, rows, v))\n",
        ("tests/test_runtime.py::"
         "test_evaluate_builds_one_view_per_node_and_no_store",
         "tests/test_runtime.py::test_a_searched_game_makes_one_store"),
        "a one-shot evaluation runs a view store, which serves no copy when"
        " each centre is asked once"),
    Mutant(
        "store-keeps-nothing", "src/locdec/runtime.py",
        "            view = self.kept[v] = ball(self.instance, rows, v,"
        " self.radius)\n",
        "            view = ball(self.instance, rows, v, self.radius)\n",
        ("tests/test_view_store.py::test_store_views_equal_fresh_balls",
         "tests/test_view_store.py::test_nta_exhaustive_counts"),
        "a view store never keeps a view or a verdict, so every request"
        " builds a view and is decided"),
    Mutant(
        "reuse-ignores-a-changed-layer", "src/locdec/runtime.py",
        "            if layers == last_layers:\n",
        "            if layers[:1] == last_layers[:1]:\n",
        ("tests/test_view_store.py::"
         "test_a_reusing_store_scans_as_the_fresh_reference",
         "tests/test_view_store.py::"
         "test_a_label_changed_in_any_layer_is_decided_again"),
        "a node whose first layer is unchanged gets its kept verdict, though"
        " a later layer changed"),
    Mutant(
        "reused-verdict-negated", "src/locdec/runtime.py",
        "                self.reused += 1\n                return accepts\n",
        "                self.reused += 1\n                return not accepts\n",
        ("tests/test_view_store.py::"
         "test_a_reusing_store_scans_as_the_fresh_reference",
         "tests/test_view_store.py::"
         "test_a_label_changed_in_any_layer_is_decided_again",
         "tests/test_view_store.py::test_nta_exhaustive_counts"),
        "a kept verdict is returned negated"),
    Mutant(
        "nta-accepts-unreadable-image", "src/locdec/protocols/nta.py",
        "        if not isinstance(b.own_label(0), NodeImage):\n"
        "            return False\n",
        "",
        ("tests/test_nta.py::TestGames::"
         "test_lifted_nta_refutes_an_unreadable_map",
         "tests/test_nta.py::TestGames::test_an_unreadable_map_is_no_symmetry"),
        "nta reads a node with no image as a mapped node with no input"),
    Mutant(
        "components-skip-last-edge", "src/locdec/oracles.py",
        "    for (u, v) in edges:\n        ru, rv = find(u), find(v)\n",
        "    for (u, v) in list(edges)[:-1]:\n        ru, rv = find(u), find(v)\n",
        ("tests/test_oracles.py::test_components_match_networkx",),
        "components ignores the last edge"),
)


def _copy(into: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis",
                                  ".pytest_cache", ".perfbench_out")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, into / name, ignore=skip)
        else:
            shutil.copy2(source, into / name)


def _pytest(into: Path, tests: tuple[str, ...], stop_early: bool) -> str:
    """pytest's exit code on ``tests`` in the copy, or "timed out"."""
    env = dict(os.environ, PYTHONPATH=str(into / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
               *(["-x"] if stop_early else []), *tests]
    try:
        return str(subprocess.run(
            command, cwd=into, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=TIMEOUT).returncode)
    except subprocess.TimeoutExpired:
        return "timed out"


def run(mutants: tuple[Mutant, ...]) -> bool:
    """Play ``mutants`` on a temporary copy; True when each is killed."""
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        into = Path(tmp)
        _copy(into)
        tests = tuple(dict.fromkeys(t for m in mutants for t in m.tests))
        start = time.perf_counter()
        code = _pytest(into, tests, stop_early=False)
        print(f"unmutated: exit {code}, {time.perf_counter() - start:.1f} s",
              flush=True)
        if code != "0":
            print("the unmutated tests must pass first")
            return False
        killed = 0
        for m in mutants:
            target = into / m.path
            original = target.read_text(encoding="utf-8")
            if original.count(m.anchor) != 1:
                raise SystemExit(f"{m.name}: anchor does not occur once")
            target.write_text(original.replace(m.anchor, m.replacement),
                              encoding="utf-8")
            start = time.perf_counter()
            try:
                code = _pytest(into, m.tests, stop_early=True)
            finally:
                target.write_text(original, encoding="utf-8")
            # pytest exits 1 when a test failed; other codes are errors.
            verdict = {"0": "survived", "1": "killed"}.get(code,
                                                          f"error: {code}")
            killed += verdict == "killed"
            print(f"{m.name}: {verdict}, {time.perf_counter() - start:.1f} s",
                  flush=True)
        print(f"{killed} of {len(mutants)} killed")
        return killed == len(mutants)


def main(argv: list[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}; known:"
              f" {', '.join(by_name)}", file=sys.stderr)
        return 2
    chosen = tuple(by_name[name] for name in argv) if argv else MUTANTS
    return 0 if run(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
