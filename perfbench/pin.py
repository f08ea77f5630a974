"""Regenerate the pinned principal-line digests in ``perfbench/pins/``.

Usage, from the repository root:

    python3 perfbench/pin.py --seeds 0-63

For every workload and seed this plays one untraced pass and stores the
job-list digest and one token per job (see ``run.job_tokens``).  Rerun it
only when the job lists change, or when a change to the program is meant
to change principal lines; the diff of the pin files then names the jobs
whose lines moved.
"""

from __future__ import annotations

import argparse
import json

import jobs as joblist
import run


def pin(workload: str, seed: int) -> dict:
    setup = run.set_up(workload, seed)
    oracles = [run.oracle_of(job, setup.protocols[job.protocol])
               for job in setup.jobs]
    result = run.run_pass(setup, setup.protocols, oracles)
    wrong = [g for g in result.games if g.wrong]
    if wrong:
        raise SystemExit(f"{workload} seed {seed}: {len(wrong)} games give"
                         f" wrong outputs; refusing to pin them")
    return {"jobs": setup.digest, "lines": " ".join(run.job_tokens(result))}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0-63",
                   help="inclusive range lo-hi of seeds to pin")
    args = p.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    run.PINS.mkdir(exist_ok=True)
    for workload in sorted(joblist.WORKLOADS):
        path = run.PINS / f"{workload}.json"
        pins = {str(seed): pin(workload, seed) for seed in range(lo, hi + 1)}
        path.write_text(json.dumps(pins, indent=1) + "\n",
                        encoding="utf-8")
        print(f"{path.name}: seeds {lo}-{hi}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
