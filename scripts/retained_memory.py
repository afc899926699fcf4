#!/usr/bin/env python3
"""Measure what one perfbench pass retains while its results are kept.

    python3 scripts/retained_memory.py --workload construct --seed 1001

Run from the root of a checkout.  The workload's jobs are built with
perfbench's ``build_jobs`` in a temporary directory (removed afterwards), and
one warm pass runs first so that imports and shared constants are not
counted.  A second pass then runs under ``tracemalloc`` through perfbench's
``run_pass``, and its results are kept, as the harness keeps every pass's
results.  After a full garbage collection, the traced memory still held,
less what was held before the pass, is the figure.  It prints the figure in
KiB, and the last line of stdout is one JSON object.  Standard library only.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tempfile
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def retained_bytes(workload: str, seed: int) -> tuple:
    """(bytes one pass retains with its results kept, jobs in the pass)."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    from harness import run_pass
    from inputs import Seeded
    from jobs import build_jobs
    from spans import Layers

    api = Layers()
    with tempfile.TemporaryDirectory(prefix="retained_memory_") as workdir:
        jobs = build_jobs(workload, api, Seeded(seed), workdir)
        run_pass(jobs, api)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = run_pass(jobs, api)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        failed = sum(error is not None for _, error, _, _ in kept)
        if failed:
            raise SystemExit(f"{failed} of {len(jobs)} {workload} jobs raised")
    return retained, len(jobs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("solve", "verify", "construct"))
    parser.add_argument("--seed", required=True, type=int)
    args = parser.parse_args(argv)

    retained, jobs = retained_bytes(args.workload, args.seed)
    kib = retained / 1024
    print(f"{args.workload} seed {args.seed}: one pass of {jobs} jobs retains {kib:.1f} KiB")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "jobs": jobs,
                      "retained_kib": round(kib, 1)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
