"""Closed-loop runner: set up, run timed passes, check every answer, report.

One process, one thread, one client: each job starts when the previous one
returns.  A timed run is ``SEGMENTS`` segments; each builds the job list
afresh (a timed set-up) and then runs whole passes over it until its share
of ``seconds`` has elapsed, so every pass contributes every job once, and
the passes sample the host at several points of the run.

Between two jobs the runner times a fixed calibration kernel: exact
elimination in plain Python, the kind of arithmetic homhopf does, with no
homhopf code, and with the cyclic garbage collector off so that garbage
left by a job is not collected on the kernel's clock.  A job's cost in
``cal`` in one pass is its latency over the kernel times on either side of
it; its cost in the run is the median over passes.  On a shared 2-vCPU VM
the same code ran at anywhere from 1.0 to 1.8 times its best time, in CPU
time as in wall time, for stretches of seconds to minutes; dividing by a
kernel timed a few milliseconds away cancels that, while a change to
homhopf moves the job and not the kernel.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import time
from fractions import Fraction

from checks import digest
from inputs import Seeded
from jobs import build_jobs
from spans import Layers, Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")

#: set-ups (each followed by passes) in a timed run; setup_s is their median
SEGMENTS = 3
#: the tail percentile is the highest one with at least this many jobs beyond it
TAIL_BEYOND = 10


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


#: the calibration input: a fixed 11x11 integer matrix
CAL_MATRIX = tuple(tuple((7 * r + 3 * c * c + r * c) % 11 - 5 for c in range(11))
                   for r in range(11))


def calibration_kernel() -> int:
    """Gauss-Jordan elimination of CAL_MATRIX over Q (Fractions) and over
    GF(7) (ints); returns the sum of the two ranks."""
    rank = 0
    for p in (None, 7):
        rows = [[Fraction(x) if p is None else x % p for x in row] for row in CAL_MATRIX]
        top = 0
        for col in range(len(rows[0])):
            piv = next((r for r in range(top, len(rows)) if rows[r][col]), None)
            if piv is None:
                continue
            rows[top], rows[piv] = rows[piv], rows[top]
            inv = 1 / rows[top][col] if p is None else pow(rows[top][col], -1, p)
            rows[top] = [x * inv if p is None else x * inv % p for x in rows[top]]
            for r, row in enumerate(rows):
                f = row[col]
                if r != top and f:
                    rows[r] = [a - f * b if p is None else (a - f * b) % p
                               for a, b in zip(row, rows[top])]
            top += 1
        rank += top
    return rank


def time_kernel() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        calibration_kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def run_pass(jobs: list, api) -> list:
    """One closed-loop pass: [(result, error, seconds, kernel seconds)] in job
    order, where the kernel seconds are the mean of the calibration runs just
    before and just after the job."""
    out = []
    before = time_kernel()
    for job in jobs:
        api.set_job(job.slot, "job")
        start = time.perf_counter()
        try:
            result, error = job.run(api), None
        except Exception as exc:  # a failing job is counted, not fatal
            result, error = None, exc
        seconds = time.perf_counter() - start
        after = time_kernel()
        out.append((result, error, seconds, (before + after) / 2))
        before = after
    return out


def timed_passes(jobs: list, api, seconds: float) -> tuple:
    """Whole passes until ``seconds`` have elapsed: (passes, elapsed)."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(jobs, api))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return passes, elapsed


def answer_problems(job, answer, expected: dict) -> list:
    """Verdict against the hand-written table, bytes against the recorded digest."""
    exp = expected.get(job.slot)
    if exp is None:
        return [f"no expected answer for {job.slot}"]
    problems = []
    if answer.verdict != exp["verdict"]:
        problems.append(f"verdict {answer.verdict!r}, expected {exp['verdict']!r}")
    if "axiom" in exp and exp["axiom"] not in answer.axioms:
        problems.append(f"failing axioms {answer.axioms} do not include {exp['axiom']!r}")
    if not job.seeded_output:
        want = (exp.get("digests") or {}).get(job.key)
        if want is None:
            problems.append(f"no reference digest for input {job.key!r}")
        elif digest(answer.text) != want:
            problems.append(f"output digest differs from the reference for input {job.key!r}")
    return problems


def evaluate(jobs: list, passes: list, expected: dict, api, plain_api) -> list:
    """Problems of every job execution, as [(pass, slot, problem)].

    The first pass's answers get the full check (verdict, digest or
    determinism re-run, independent answer check); a later pass must give
    the same bytes as the first, and then shares its verdict.  ``plain_api``
    is untraced and runs the determinism re-runs.
    """
    failures = []
    for i, job in enumerate(jobs):
        first_text, first_problems = None, None
        for p, outs in enumerate(passes):
            result, error = outs[i][:2]
            if error is None:
                try:
                    answer = job.answer(result)
                except Exception as exc:  # an answer that cannot be written fails
                    error = exc
            if error is not None:
                failures.append((p, job.slot, f"raised {type(error).__name__}: {error}"))
                continue
            if first_text is None:
                first_text = answer.text
                api.set_job(job.slot, "check")
                try:
                    first_problems = answer_problems(job, answer, expected)
                    first_problems += job.check(api, result)
                    if job.seeded_output:
                        again = job.answer(job.run(plain_api)).text
                        if again != answer.text:
                            first_problems.append("re-run gave different output bytes")
                except Exception as exc:  # a broken answer must not stop the report
                    first_problems = [f"check raised {type(exc).__name__}: {exc}"]
                problems = first_problems
            elif answer.text != first_text:
                problems = ["output bytes differ between passes"]
            else:
                problems = first_problems
            failures += [(p, job.slot, problem) for problem in problems]
    return failures


def latency_summary(passes: list) -> dict:
    """Each job's cost in the run: the median over passes of its ``cal``
    cost (latency over the calibration kernel beside it), and its best
    (smallest) plain latency in ms.  From those: jobs per 1000 kernel runs
    (jobs per second), the median, and the tail at the highest percentile
    with at least TAIL_BEYOND jobs beyond it.  The median leaves out a pass
    in which either the job or the kernel beside it alone was stalled."""
    n = len(passes[0])
    cal = sorted(statistics.median(outs[i][2] / outs[i][3] for outs in passes)
                 for i in range(n))
    ms = sorted(min(outs[i][2] for outs in passes) * 1000.0 for i in range(n))
    tail = max(0, n - 1 - TAIL_BEYOND)
    return {"jobs_per_kcal": 1000.0 * n / sum(cal),
            "job_p50_cal": statistics.median(cal),
            "job_tail_cal": cal[tail],
            "jobs_per_s": 1000.0 * n / sum(ms),
            "job_p50_ms": statistics.median(ms),
            "job_tail_ms": ms[tail],
            "kernel_ms": min(outs[i][3] for outs in passes for i in range(n)) * 1000.0,
            "tail_percentile": round(100.0 * (tail + 1) / n, 1),
            "latency_jobs": n}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _workdir(name: str) -> str:
    path = os.path.join(HERE, "out", f"work-{name}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def run_untraced(name: str, seed: int, seconds: float, expected: dict) -> tuple:
    """The end-to-end run: (result line, details)."""
    api = Layers()
    workdir = _workdir(name)
    try:
        setup_samples, passes, elapsed, first_jobs = [], [], 0.0, None
        for _ in range(SEGMENTS):
            start = time.perf_counter()
            jobs = build_jobs(name, api, Seeded(seed), workdir)
            setup_samples.append(time.perf_counter() - start)
            more, more_s = timed_passes(jobs, api, seconds / SEGMENTS)
            passes += more
            elapsed += more_s
            first_jobs = first_jobs or jobs
        jobs = first_jobs
        failures = evaluate(jobs, passes, expected, api, api)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(jobs) * len(passes)
    failed = len({(p, slot) for p, slot, _ in failures})
    lat = latency_summary(passes)
    metrics = {
        "jobs_per_kcal": (lat["jobs_per_kcal"], "jobs/kcal"),
        "job_p50_cal": (lat["job_p50_cal"], "cal"),
        "job_tail_cal": (lat["job_tail_cal"], "cal"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "jobs_ok_ratio": (1.0 - failed / attempted, "ratio"),
    }
    plain = {"jobs_per_s": (lat["jobs_per_s"], "jobs/s"),
             "job_p50_ms": (lat["job_p50_ms"], "ms"),
             "job_tail_ms": (lat["job_tail_ms"], "ms"),
             "kernel_ms": (lat["kernel_ms"], "ms")}
    busy = sum(outs[i][2] for outs in passes for i in range(len(jobs)))
    details = {"workload": name, "seed": seed, "jobs_per_pass": len(jobs),
               "passes": len(passes), "timed_s": elapsed,
               "jobs_per_busy_s": attempted / busy,
               "plain": {k: v for k, (v, _) in plain.items()},
               "pass_s": [sum(t for _, _, t, _ in outs) for outs in passes],
               "setup_samples_s": setup_samples,
               "jobs_failed_ratio": failed / attempted,
               "tail_percentile": lat["tail_percentile"],
               "latency_jobs": lat["latency_jobs"],
               "job_sizes": job_sizes(jobs),
               "job_ms": {job.slot: [round(outs[i][2] * 1000.0, 3) for outs in passes]
                          for i, job in enumerate(jobs)},
               "kernel_ms": {job.slot: [round(outs[i][3] * 1000.0, 4) for outs in passes]
                             for i, job in enumerate(jobs)},
               "failures": [list(f) for f in failures[:50]]}
    return _result(attempted, failed, metrics), details, plain


def run_traced(name: str, seed: int, seconds: float, expected: dict) -> tuple:
    """The per-layer run: one traced set-up, untraced passes for the
    overhead baseline, then one traced pass and its checks.  The spans are
    written to out/spans-<workload>-seed<seed>.jsonl when the run ends."""
    tracer = Tracer()
    traced, plain = Layers(tracer), Layers()
    workdir = _workdir(name)
    try:
        jobs = build_jobs(name, traced, Seeded(seed), workdir)
        untraced, _ = timed_passes(jobs, plain, seconds)
        traced_pass = run_pass(jobs, traced)
        passes = [traced_pass] + untraced
        failures = evaluate(jobs, passes, expected, traced, plain)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(jobs) * len(passes)
    failed = len({(p, slot) for p, slot, _ in failures})
    values = layer_metrics(tracer, {job.slot: job.fname for job in jobs})
    traced_s = sum(t for _, _, t, _ in traced_pass)
    traced_rate = len(jobs) / traced_s
    untraced_rate = len(jobs) / statistics.median(sum(t for _, _, t, _ in outs)
                                                  for outs in untraced)
    values["trace.jobs_per_s"] = traced_rate
    values["trace.untraced_jobs_per_s"] = untraced_rate
    values["trace.overhead_ratio"] = traced_rate / untraced_rate
    metrics = {k: (v, unit_of(k)) for k, v in values.items()}
    write_spans(tracer, os.path.join(HERE, "out", f"spans-{name}-seed{seed}.jsonl"))
    details = {"workload": name, "seed": seed, "jobs_per_pass": len(jobs),
               "traced_s": traced_s, "untraced_passes": len(untraced),
               "failures": [list(f) for f in failures[:50]]}
    return _result(attempted, failed, metrics), details, {}


def unit_of(metric: str) -> str:
    if metric.endswith("jobs_per_s"):
        return "jobs/s"
    if metric.endswith("ratio") or metric.endswith("share_min"):
        return "ratio"
    if metric.endswith("_s") or metric.startswith("linalg.elim_s"):
        return "s"
    if metric == "io.bytes":
        return "bytes"
    return "count"


def job_sizes(jobs: list) -> dict:
    """Per-pass job counts by workload and kind, recorded with every result."""
    sizes = {}
    for job in jobs:
        kind = "/".join(job.slot.split("/")[:2])
        sizes[kind] = sizes.get(kind, 0) + 1
    return sizes


def write_spans(tracer: Tracer, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(tracer.spans):
            fh.write(json.dumps({"id": i, "name": s.name, "job": s.job, "phase": s.phase,
                                 "parent": s.parent, "start": s.start, "end": s.end,
                                 "self_s": s.self_time, "failed": s.failed}) + "\n")


def _result(attempted: int, failed: int, metrics: dict) -> dict:
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
