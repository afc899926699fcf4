"""The verdict ``scripts/bench_pairs.py`` prints for each end-to-end metric."""

import importlib.util
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "bench_pairs.py")


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BASE = [98.0, 99.0, 100.0, 101.0, 102.0]  # quartiles 99, 100, 101


@pytest.mark.parametrize("change, better, expected", [
    ([100.0, 101.0, 102.0, 103.0, 104.0], "higher", "within bound"),
    ([80.0, 81.0, 82.0, 83.0, 84.0], "higher", "within bound"),   # 18% worse, bound 25%
    ([70.0, 71.0, 72.0, 73.0, 74.0], "higher", "worse than bound"),  # 28% worse
    ([70.0, 71.0, 72.0, 73.0, 74.0], "lower", "within bound"),    # 28% better
    ([126.0, 127.0, 128.0, 129.0, 130.0], "lower", "worse than bound"),
])
def test_narrow_base_decides_by_the_bound(bench_pairs, change, better, expected):
    assert bench_pairs.verdict(BASE, change, better, 0.25) == expected


def test_wide_base_is_unresolved_unless_the_runs_separate(bench_pairs):
    wide = [40.0, 70.0, 100.0, 130.0, 160.0]  # quartiles 70, 100, 130: spread 60%
    for overlapping in ([70.0, 72.0, 74.0, 76.0, 78.0],    # median 26% worse
                        [40.0, 42.0, 44.0, 46.0, 48.0],    # 56% worse, touches the base
                        [150.0, 155.0, 160.0, 165.0, 170.0]):
        assert bench_pairs.verdict(wide, overlapping, "higher", 0.25) == "unresolved"
    below = [20.0, 22.0, 24.0, 26.0, 28.0]
    assert bench_pairs.verdict(wide, below, "higher", 0.25) == "worse than bound"
    above = [170.0, 175.0, 180.0, 185.0, 190.0]
    assert bench_pairs.verdict(wide, above, "higher", 0.25) == "within bound"


def test_zero_base_median_compares_absolutely(bench_pairs):
    assert bench_pairs.verdict([0.0] * 5, [0.0] * 5, "lower", 0.1) == "within bound"
    assert bench_pairs.verdict([0.0] * 5, [0.5] * 5, "lower", 0.1) == "worse than bound"


def test_summary_carries_the_verdict(bench_pairs):
    metrics = [{"name": "jobs_per_kcal", "unit": "jobs/kcal", "better": "higher", "bound": 0.25}]
    runs = [{"base": {"metrics": {"jobs_per_kcal": {"value": b}}},
             "change": {"metrics": {"jobs_per_kcal": {"value": c}}}}
            for b, c in zip(BASE, [70.0, 71.0, 72.0, 73.0, 74.0])]
    summary = bench_pairs.summarize(metrics, runs)["jobs_per_kcal"]
    assert summary["verdict"] == "worse than bound"
    assert summary["base_wins"] == 5
