#!/usr/bin/env python3
"""Compare the set-up time of one perfbench workload, base against working tree.

    python3 scripts/setup_pairs.py --base <rev> --workload construct --processes 8

Run from the root of a checkout.  ``--base`` is a git revision, whose
committed files are exported with ``git archive`` to a temporary directory
(removed afterwards), or the path of another checkout.  Each side runs
``--processes`` fresh Python processes, alternating with the other side
(base first on even pairs).  A process imports the package from its
checkout's ``src`` and perfbench from its ``perfbench`` (read, not edited),
times ``build_jobs(workload, Layers(), Seeded(seed), tmpdir)`` ``--calls``
times and keeps the best call.

This is the in-process view of perfbench's ``setup_s``, which is raw wall
time of the same call and so follows the host's state as much as the code.
It prints each side's bests in increasing order, their medians, how many
pairs the change had the lower best and a verdict on the bests under
``setup_s``'s bound in BENCHMARK.json, read as ``scripts/bench_pairs.py``
reads every end-to-end metric (``within bound``, ``worse than bound`` or
``unresolved`` when the runs cannot tell); the last line of stdout is one
JSON object.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

from bench_pairs import ROOT, export_revision, verdict

# one process's best set-up time, printed as JSON; run in the checkout
_TIMER = """
import json, os, sys, tempfile, time
sys.path[:0] = [os.path.abspath("src"), os.path.abspath("perfbench")]
from inputs import Seeded
from jobs import build_jobs
from spans import Layers
workload, seed, calls = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
api, bests = Layers(), []
with tempfile.TemporaryDirectory(prefix="setup_pairs_") as workdir:
    for _ in range(calls):
        start = time.perf_counter()
        build_jobs(workload, api, Seeded(seed), workdir)
        bests.append(time.perf_counter() - start)
print(json.dumps(min(bests)))
"""


def best_setup(checkout: str, workload: str, seed: int, calls: int) -> float:
    """The best of ``calls`` set-ups in one fresh process on ``checkout``."""
    proc = subprocess.run([sys.executable, "-c", _TIMER, workload, str(seed), str(calls)],
                          cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"set-up failed in {checkout}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def compare(base_dir: str, workload: str, seed: int, calls: int, processes: int) -> dict:
    """Both sides' bests, pair by pair, and which side ran first in each pair."""
    bests, first = {"base": [], "change": []}, []
    for i in range(processes):
        sides = [("base", base_dir), ("change", ROOT)]
        if i % 2:
            sides.reverse()
        first.append(sides[0][0])
        for side, checkout in sides:
            bests[side].append(best_setup(checkout, workload, seed, calls))
    return {"bests": bests, "first": first}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="git revision or checkout directory to compare against")
    parser.add_argument("--workload", required=True, choices=("solve", "verify", "construct"))
    parser.add_argument("--processes", type=int, default=8, help="processes per side")
    parser.add_argument("--calls", type=int, default=5, help="set-ups timed per process")
    parser.add_argument("--seed", type=int, default=1001)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="setup_pairs_") as tmp:
        base_dir = args.base
        if not os.path.isdir(base_dir):
            base_dir = os.path.join(tmp, "base")
            export_revision(args.base, base_dir)
        runs = compare(base_dir, args.workload, args.seed, args.calls, args.processes)

    bests = runs["bests"]
    lower = sum(c < b for b, c in zip(bests["base"], bests["change"]))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        setup = next(m for m in json.load(fh)["end_to_end"] if m["name"] == "setup_s")
    outcome = verdict(bests["base"], bests["change"], setup["better"], setup["bound"])
    print(f"{args.workload} set-up, best of {args.calls} build_jobs calls per process, "
          f"seed {args.seed}:")
    for side in ("base", "change"):
        print(f"  {side:6} median {statistics.median(bests[side]) * 1000:.1f} ms, bests (ms): "
              + " ".join(f"{t * 1000:.1f}" for t in sorted(bests[side])))
    print(f"  change lower in {lower} of {args.processes} pairs: {outcome} "
          f"({setup['bound']:.0%})")
    print(json.dumps({"workload": args.workload, "base": args.base, "seed": args.seed,
                      "calls": args.calls, "processes": args.processes,
                      "first": runs["first"], "change_lower": lower, "verdict": outcome,
                      "median_s": {side: statistics.median(v) for side, v in bests.items()},
                      "bests_s": {side: sorted(v) for side, v in bests.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
