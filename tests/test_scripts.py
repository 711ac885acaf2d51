"""Smoke runs of the example scripts in scripts/ at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args, expect, lines", [
    # the grid prints one line per family: 3 structures x 3 kinds
    ("run_synthetic_grid.py", ["--dim", "1", "--branches", "3", "--obs", "4", "--iters", "5"],
     "gap to oracle", 9),
    ("run_preference_demo.py",
     ["--dim", "2", "--branches", "4", "--obs", "5", "--iters", "5", "--batch", "2"],
     "test-ll", 1),
], ids=["synthetic-grid", "preference-demo"])
def test_script_runs(script, args, expect, lines):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert sum(expect in line for line in proc.stdout.splitlines()) == lines, proc.stdout
