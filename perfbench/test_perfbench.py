"""The benchmark's own tests: wrong answers must count as failed jobs.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from homhopf.applications import trivial_datum  # noqa: E402
from homhopf.integrals import Infeasible, IntegralCandidate  # noqa: E402
from homhopf.linalg import Field, Matrix, Tensor3  # noqa: E402
from homhopf.zoo import group_algebra, sweedler_h4  # noqa: E402

from checks import canon, digest, section_problems, serialized  # noqa: E402
from harness import (answer_problems, calibration_kernel, evaluate,  # noqa: E402
                     latency_summary, run_pass)
from inputs import Seeded  # noqa: E402
from jobs import InduceJob, SolveJob, build_jobs  # noqa: E402
from spans import Layers, Tracer, layer_metrics  # noqa: E402

Q = Field.rationals()


def _expect(job, result, verdict):
    """A table entry that the correct answer satisfies."""
    return {job.slot: {"verdict": verdict,
                       "digests": {job.key: digest(job.answer(result).text)}}}


def _failures(job, result, expected):
    api = Layers()
    return evaluate([job], [[(result, None, 0.001, 0.001)]], expected, api, api)


def test_correct_answers_pass():
    api = Layers()
    for h, verdict in ((group_algebra(2, Q), "feasible"), (sweedler_h4(Q), "infeasible")):
        job = SolveJob(f"solve/trivial/{verdict}", "k", "Q", trivial_datum(h))
        result = job.run(api)
        assert _failures(job, result, _expect(job, result, verdict)) == []


def test_wrong_theta_is_a_failed_job():
    api = Layers()
    job = SolveJob("solve/trivial/kZ2", "kZ2", "Q", trivial_datum(group_algebra(2, Q)))
    theta = job.run(api)
    expected = _expect(job, theta, "feasible")
    entries = list(theta.theta.entries)
    entries[0] = entries[0] + 1
    wrong = IntegralCandidate(Q, theta.dim_c, theta.dim_a,
                              Tensor3(Q, theta.dim_c, theta.dim_c, theta.dim_a, tuple(entries)))
    assert any("direct evaluator rejects" in p for p in job.check(api, wrong))
    failures = _failures(job, wrong, expected)
    assert {slot for _, slot, _ in failures} == {job.slot}


def test_certificate_that_does_not_cancel_is_a_failed_job():
    api = Layers()
    job = SolveJob("solve/trivial/H4", "H4", "Q", trivial_datum(sweedler_h4(Q)))
    cert = job.run(api)
    assert isinstance(cert, Infeasible)
    assert job.check(api, cert) == []
    combo = list(cert.combination)
    label, coeff = combo[0]
    combo[0] = (label, coeff * 2)
    bad = dataclasses.replace(cert, combination=tuple(combo))
    assert any("does not cancel" in p for p in job.check(api, bad))
    # the verdict alone is still right; the certificate check must catch it
    expected = {job.slot: {"verdict": "infeasible", "digests": {job.key: digest(canon(bad))}}}
    assert len(_failures(job, bad, expected)) == 1


def test_changed_output_digest_is_a_failed_job():
    api = Layers()
    job = SolveJob("solve/trivial/kZ2", "kZ2", "Q", trivial_datum(group_algebra(2, Q)))
    theta = job.run(api)
    expected = _expect(job, theta, "feasible")
    expected[job.slot]["digests"][job.key] = digest("some other output")
    failures = _failures(job, theta, expected)
    assert [p for _, _, p in failures] == [
        "output digest differs from the reference for input 'kZ2'"]


def test_output_that_changes_between_passes_fails_that_pass():
    api = Layers()
    job = SolveJob("solve/trivial/kZ2", "kZ2", "Q", trivial_datum(group_algebra(2, Q)))
    theta = job.run(api)
    expected = _expect(job, theta, "feasible")
    entries = list(theta.theta.entries)
    entries[-1] = entries[-1] + 1
    changed = IntegralCandidate(Q, 2, 1, Tensor3(Q, 2, 2, 1, tuple(entries)))
    same = [[(theta, None, 0.001, 0.001)], [(theta, None, 0.001, 0.001)]]
    assert evaluate([job], same, expected, api, api) == []
    for second in ((changed, None, 0.001, 0.001), (None, RuntimeError("boom"), 0.001, 0.001)):
        failures = evaluate([job], [[(theta, None, 0.001, 0.001)], [second]], expected, api, api)
        assert [(p, s) for p, s, _ in failures] == [(1, job.slot)]


@dataclasses.dataclass(frozen=True)
class _SparseTensor(Tensor3):
    """The same tensor with only its nonzero entries stored, in a dict."""

    def __post_init__(self):
        pass

    def at(self, i, j, k):
        return self.entries.get((i * self.d2 + j) * self.d3 + k, self.field.zero())


def test_digest_is_of_serialized_bytes_not_memory_layout():
    api = Layers()
    job = SolveJob("solve/trivial/kZ3", "kZ3", "Q", trivial_datum(group_algebra(3, Q)))
    theta = job.run(api)
    expected = _expect(job, theta, "feasible")
    t = theta.theta
    sparse = _SparseTensor(Q, t.d1, t.d2, t.d3,
                           {i: x for i, x in enumerate(t.entries) if x})
    relaid = IntegralCandidate(Q, theta.dim_c, theta.dim_a, sparse)
    assert job.answer(relaid).text == job.answer(theta).text == serialized(theta=theta)
    assert answer_problems(job, job.answer(relaid), expected) == []


def test_answer_that_cannot_be_written_is_a_failed_job():
    job = SolveJob("solve/trivial/kZ2", "kZ2", "Q", trivial_datum(group_algebra(2, Q)))
    failures = _failures(job, "not an integral", {job.slot: {"verdict": "feasible"}})
    assert [(p, s) for p, s, _ in failures] == [(0, job.slot)]


def test_section_check_uses_exact_identity():
    f = Matrix.from_rows(Q, [[1, 0, 0], [0, 1, 0]])
    good = Matrix.from_rows(Q, [[1, 0], [0, 1], [5, 7]])
    bad = Matrix.from_rows(Q, [[1, 0], [0, 2], [0, 0]])
    assert section_problems(f, good) == []
    assert section_problems(f, bad) == ["f @ s differs from the identity at (1, 1)"]


def test_seeds_change_values_not_shapes(tmp_path):
    api = Layers()
    runs = [build_jobs("construct", api, Seeded(seed), str(tmp_path)) for seed in (1, 2)]
    by_slot = [{job.slot: job for job in jobs} for jobs in runs]
    assert len(runs[0]) == len(runs[1])
    assert set(by_slot[0]) == set(by_slot[1])
    assert [j.slot for j in runs[0]] != [j.slot for j in runs[1]]  # seeded order
    assert any(by_slot[0][s].key != by_slot[1][s].key for s in by_slot[0])
    modules = [(a.module, by_slot[1][s].module) for s, a in by_slot[0].items()
               if isinstance(a, InduceJob)]
    assert modules
    for m1, m2 in modules:
        assert (m1.dim, m1.action.d2) == (m2.dim, m2.action.d2)
    assert any(m1.action != m2.action for m1, m2 in modules)


def _pass(job_ms, kernel_ms):
    """A pass of 40 jobs, job i taking ``job_ms * i`` ms next to a kernel of
    ``kernel_ms`` ms."""
    return [(None, None, job_ms * i / 1000.0, kernel_ms / 1000.0) for i in range(1, 41)]


CAL = ("jobs_per_kcal", "job_p50_cal", "job_tail_cal")


def test_latency_is_best_of_passes_and_tail_has_ten_jobs_beyond():
    fast, job_stall = _pass(1, 2), _pass(2, 2)
    lat = latency_summary([job_stall, fast, job_stall])
    assert lat["job_tail_ms"] == 30.0
    assert lat["tail_percentile"] == 75.0
    assert lat["job_p50_ms"] == 20.5
    assert abs(lat["jobs_per_s"] - 40 / 0.820) < 1e-9
    assert latency_summary([fast])["job_tail_cal"] == 15.0
    assert latency_summary([fast])["job_p50_cal"] == 10.25


def test_cal_figures_ignore_a_stall_of_job_or_kernel_alone():
    fast = _pass(1, 2)
    reference = {k: latency_summary([fast])[k] for k in CAL}
    host_slow = _pass(2, 4)      # job and kernel slowed alike
    job_stall = _pass(2, 2)      # only the job slowed
    kernel_stall = _pass(1, 4)   # only the kernel beside it slowed
    for passes in ([host_slow], [fast, host_slow, job_stall],
                   [fast, host_slow, kernel_stall], [kernel_stall, fast, fast]):
        lat = latency_summary(passes)
        assert {k: lat[k] for k in CAL} == reference


def test_calibration_kernel_is_fixed_work():
    assert calibration_kernel() == calibration_kernel() > 0


def test_elimination_is_solve_minus_assembly_and_verification():
    tracer = Tracer()
    api = Layers(tracer)
    job = SolveJob("solve/trivial/kZ4", "kZ4", "Q", trivial_datum(group_algebra(4, Q)))
    results = run_pass([job], api)
    assert evaluate([job], [results], _expect(job, results[0][0], "feasible"), api, Layers()) == []
    metrics = layer_metrics(tracer, {job.slot: "Q"})
    spans = {s.name: s.self_time for s in tracer.spans}
    assert metrics["linalg.elim_s"] == metrics["linalg.elim_s.q"] > 0
    assert metrics["linalg.elim_s.gf7"] == 0
    assert abs(metrics["linalg.elim_s"]
               - (spans["integrals.solve_normalized_integral"]
                  - spans["integrals.assemble_integral_system"]
                  - spans["integrals.verify_integral"])) < 1e-12
    assert metrics["integrals.rows"] > 0 and metrics["integrals.unknowns"] == 16
    assert metrics["core.check_instances"] > 0
