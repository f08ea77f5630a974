"""Pin gate: each benchmark workload replays its pinned principal lines.

``perfbench/run.py`` digests every game's principal line and compares
the job tokens with ``perfbench/pins/``; a job whose lines changed reads
as a ``digest`` failure.  The leaf and node-decision counts of one pass
are pinned here too: they do not depend on the machine, so a search that
visits one leaf more, or decides one node more, fails the gate.  The run goes in a child process, because
``run.load_locdec`` drops every ``locdec`` module from ``sys.modules``
and would leave this process mixing classes from two imports.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"

# corpus-sweep's 3 failures per pass are the standing unanimous defect
# (see tests/test_strategy_audit.py).
EXPECTED_FAILURES = {
    "exhaustive-search": {},
    "constructive-grid": {},
    "corpus-sweep": {"strategy": 3},
}

# (leaf_evals, node_evals) of one pass at seed 0.
EXPECTED_COUNTS = {
    "exhaustive-search": (4_624, 5_622),
    "constructive-grid": (25, 9_616),
    "corpus-sweep": (1_714, 3_036),
}


@pytest.mark.parametrize("workload", sorted(EXPECTED_FAILURES))
def test_workload_replays_its_pinned_lines(workload):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "0",
         "--seconds", "0.5", "--trace", "0"],
        capture_output=True, text=True, timeout=300, check=True)
    context, result = (json.loads(line)
                       for line in done.stdout.splitlines()[-2:])
    assert context["pins"] == "pinned"
    assert context["failures_per_pass"] == EXPECTED_FAILURES[workload]
    assert result["correct"]
    metrics = result["metrics"]
    assert (metrics["leaf_evals"]["value"], metrics["node_evals"]["value"]) \
        == EXPECTED_COUNTS[workload]
