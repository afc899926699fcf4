#!/usr/bin/env python3
"""Compare the working tree with a base revision on one perfbench workload.

    python3 scripts/bench_pairs.py --base <rev> --workload verify --seeds 2001-2010

Run from the root of a checkout.  The committed files of the base revision
are exported with ``git archive`` to a temporary directory (removed
afterwards).  For each seed, ``perfbench/run.py --trace 0`` runs once on the
base and once on the working tree, for the run length BENCHMARK.json fixes;
the side that runs first alternates from pair to pair (base first on even
pairs).

For each end-to-end metric of BENCHMARK.json it prints both sides' median
and quartiles, how many pairs each side won (ties counting for neither) and
a verdict against the metric's relative bound: ``worse than bound`` when the
change's median is worse than the base's by more than the bound,
``unresolved`` when the base's interquartile spread is wider than the bound
and the two sides' runs overlap, so that the runs cannot tell, and
``within bound`` otherwise.
The last line of stdout is one JSON object with every run's metrics.
Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> list:
    """``2001-2010`` or ``1,5,9`` (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def export_revision(rev: str, dest: str) -> None:
    """The committed files of ``rev`` in the new directory ``dest``."""
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


def run_bench(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """The result object (last stdout line) of one untraced perfbench run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench failed in {checkout} (seed {seed}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(base: list, change: list, better: str, bound: float) -> str:
    """The change's runs against the base's under a relative ``bound`` on a
    metric where ``better`` ("higher" or "lower") values win.  Spreads and
    differences are relative to the base's median (absolute when it is 0)."""
    q1, med, q3 = quartiles(base)
    scale = abs(med) or 1.0
    moved = quartiles(change)[1]
    apart = max(change) < min(base) or min(change) > max(base)
    if (q3 - q1) / scale > bound and not apart:
        return "unresolved"
    loss = (med - moved if better == "higher" else moved - med) / scale
    return "worse than bound" if loss > bound else "within bound"


def summarize(metrics: list, runs: list) -> dict:
    """Per metric: both sides' quartiles and the pairs each side won."""
    out = {}
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        base = [r["base"]["metrics"][name]["value"] for r in runs]
        change = [r["change"]["metrics"][name]["value"] for r in runs]
        diffs = [sign * (c - b) for b, c in zip(base, change)]
        out[name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                     "base": base, "change": change,
                     "base_quartiles": quartiles(base),
                     "change_quartiles": quartiles(change),
                     "change_wins": sum(d > 0 for d in diffs),
                     "base_wins": sum(d < 0 for d in diffs),
                     "verdict": verdict(base, change, m["better"], m["bound"])}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, choices=("solve", "verify", "construct"))
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 2001-2010")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        base_dir = os.path.join(tmp, "base")
        export_revision(args.base, base_dir)
        runs = []
        for i, seed in enumerate(args.seeds):
            sides = [("base", base_dir), ("change", ROOT)]
            if i % 2:
                sides.reverse()
            run = {"seed": seed, "first": sides[0][0]}
            for side, checkout in sides:
                run[side] = run_bench(checkout, args.workload, seed, bench["run_seconds"])
            runs.append(run)
            print(f"seed {seed}: {sides[0][0]} first", file=sys.stderr)

    summary = summarize(bench["end_to_end"], runs)
    n = len(runs)
    for name, s in summary.items():
        bq, cq = s["base_quartiles"], s["change_quartiles"]
        print(f"{args.workload} {name} ({s['unit']}, {s['better']} is better): "
              f"base {bq[1]:.4g} [{bq[0]:.4g}, {bq[2]:.4g}]  "
              f"change {cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}]  "
              f"change won {s['change_wins']}/{n}, base won {s['base_wins']}/{n}: "
              f"{s['verdict']} ({s['bound']:.0%})")
    failed = {side: sum(r[side]["failed"] for r in runs) for side in ("base", "change")}
    correct = all(r[side]["correct"] for r in runs for side in ("base", "change"))
    print(f"{args.workload} failed jobs: base {failed['base']}, change {failed['change']}; "
          f"all correct: {correct}")
    print(json.dumps({"workload": args.workload, "base": args.base, "pairs": n,
                      "seeds": args.seeds, "first": [r["first"] for r in runs],
                      "attempted": {side: sum(r[side]["attempted"] for r in runs)
                                    for side in ("base", "change")},
                      "failed": failed, "correct": correct, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
