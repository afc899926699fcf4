"""Every script under ``scripts/`` starts from a checkout where the package
is not installed: each puts the checkout's ``src`` on ``sys.path`` itself."""

import json
import os
import subprocess
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "scripts")


@pytest.mark.parametrize("script", sorted(n for n in os.listdir(SCRIPTS) if n.endswith(".py")))
def test_help_runs_without_pythonpath(script, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, script), "--help"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: ")


def _ladder(tmp_path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, "ladder.py"),
                           "--rungs", "trivial-kZ2-Q,trivial-H4-Q", "--repeat", "1"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_ladder_sizes_repeat_across_runs(tmp_path):
    # the sizes of a rung are deterministic even though its times are not
    sizes = ("rows", "empty_rows", "unknowns", "nnz", "rank", "eliminated_rows", "answer",
             "checked", "module_checked")
    first, second = (_ladder(tmp_path)["rungs"]["trivial-kZ2-Q"] for _ in range(2))
    assert {k: first[k] for k in sizes} == {k: second[k] for k in sizes}
    assert first["answer"] == "feasible" and first["unknowns"] == 4 and first["checked"] > 0
    assert first["module_checked"] > 0
    assert all(first[k] >= 0 for k in ("datum_s", "read_s", "check_s", "assemble_s", "elim_s", "solve_s",
                                       "verify_s", "module_check_s", "retraction_s",
                                       "triangle_s", "cli_find_s"))
    # the row builder is timed on its own, apart from the assembly that also labels every row
    assert first["rows_s"] > 0
    # kZ2's integral comes from its two normalization rows alone
    assert first["eliminated_rows"] == 2 < first["rows"]


def test_ladder_times_retractions_only_where_an_integral_exists(tmp_path):
    rungs = _ladder(tmp_path)["rungs"]
    assert rungs["trivial-kZ2-Q"]["retraction_s"] >= 0
    h4 = rungs["trivial-H4-Q"]
    assert h4["answer"] == "infeasible"
    # no integral: the solver eliminated every row
    assert h4["eliminated_rows"] == h4["rows"]
    assert h4["verify_s"] is None and h4["retraction_s"] is None and h4["triangle_s"] >= 0
    # the whole find-integral command is timed on both answers
    assert h4["cli_find_s"] >= 0


def test_setup_pairs_times_each_side_in_fresh_processes(tmp_path):
    # the checkout against itself: a base given as a directory needs no git
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, "setup_pairs.py"),
                           "--base", os.path.dirname(os.path.abspath(SCRIPTS)),
                           "--workload", "solve", "--processes", "2", "--calls", "2"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["first"] == ["base", "change"]
    for side in ("base", "change"):
        bests = result["bests_s"][side]
        assert len(bests) == 2 and bests == sorted(bests) and bests[0] > 0
    assert 0 <= result["change_lower"] <= 2
    assert result["verdict"] in ("within bound", "worse than bound", "unresolved")
