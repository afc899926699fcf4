"""Every script under ``scripts/`` starts from a checkout where the package
is not installed: each puts the checkout's ``src`` on ``sys.path`` itself."""

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
