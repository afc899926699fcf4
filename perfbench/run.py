"""Benchmark of the exact Hom-Hopf pipeline.

    python3 perfbench/run.py --workload solve|verify|construct --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it records a span around every call into a homhopf module and reports the
per-layer metrics.  The last line of stdout is one JSON object: correct,
attempted, failed and metrics.  The exit code is 0 when the run completed,
even if some jobs failed (they are counted in ``failed``), and 2 when the
benchmark cannot run at all.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("solve", "verify", "construct"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "homhopf", "__init__.py")):
        print(f"error: no homhopf package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import harness

    expected = harness.load_expected()
    run = harness.run_traced if args.trace else harness.run_untraced
    result, details, plain = run(args.workload, args.seed, args.seconds, expected)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in plain.items():
        print(f"{args.workload} {name} = {value:.6g} {unit} (plain time)")
    print("details " + json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
