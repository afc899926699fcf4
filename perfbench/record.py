"""Record the reference output digests in expected.json.

    python3 perfbench/record.py

Run this only at a commit whose output is the reference.  For every job slot
it enumerates every seeded choice of automorphism or corruption site (the
choices come from short fixed lists, so the enumeration is complete), runs
the job once and stores sha256 of its serialized output under the slot's
``digests``.  Jobs built on seeded module entries are not recorded; the
benchmark checks them by an untimed re-run instead.

The verdicts and reasons in expected.json are written by hand and are never
changed here: a job whose verdict disagrees with the table stops the
recording with an error.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from checks import digest  # noqa: E402
from harness import EXPECTED, answer_problems, run_pass  # noqa: E402
from inputs import Seeded  # noqa: E402
from jobs import WORKLOADS  # noqa: E402
from spans import Layers  # noqa: E402


class Enumerating(Seeded):
    """Choice number ``index`` (cyclically) from every list of options."""

    def __init__(self, index: int):
        super().__init__(index)
        self.index = index
        self.widest = 1

    def choose(self, purpose: str, options):
        options = list(options)
        self.widest = max(self.widest, len(options))
        return options[self.index % len(options)]


def record(name: str, table: dict, api, workdir: str) -> int:
    """Replace the digests of every slot of one workload; returns their number."""
    index, widest, recorded = 0, 1, 0
    fresh = set()
    while index < widest:
        seeded = Enumerating(index)
        jobs = WORKLOADS[name](api, seeded, workdir)
        widest = max(widest, seeded.widest)
        for job, (result, error, _, _) in zip(jobs, run_pass(jobs, api)):
            if error is not None:
                raise SystemExit(f"{job.slot} [{job.key}] raised {error!r}")
            if job.seeded_output:
                continue
            answer = job.answer(result)
            entry = table.get(job.slot)
            if entry is None:
                raise SystemExit(f"{job.slot} has no hand-written entry in expected.json")
            if job.slot not in fresh:
                fresh.add(job.slot)
                entry["digests"] = {}
            digests = entry["digests"]
            old = digests.get(job.key)
            new = digest(answer.text)
            if old is not None and old != new:
                raise SystemExit(f"{job.slot} [{job.key}] is not deterministic")
            digests[job.key] = new
            problems = answer_problems(job, answer, table) + job.check(api, result)
            if problems:
                raise SystemExit(f"{job.slot} [{job.key}]: {problems}")
            recorded += old is None
        index += 1
    return recorded


def main() -> int:
    with open(EXPECTED, encoding="utf-8") as fh:
        data = json.load(fh)
    api = Layers()
    workdir = os.path.join(HERE, "out", f"record-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for name in sorted(WORKLOADS):
            print(f"{name}: {record(name, data['jobs'], api, workdir)} digests", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
