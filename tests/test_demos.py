"""Every demo runs to completion at a small size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# demo script and small arguments
DEMOS = [
    ("semicircle_spectrum.py", ["6"]),
    ("extreme_eigenvalues.py", ["1"]),
    ("ppt_threshold.py", ["2"]),
    ("pure_state_spectrum.py", []),
    ("moment_combinatorics.py", []),
    ("limit_laws.py", []),
]


@pytest.mark.parametrize("script, args", DEMOS, ids=[script for script, _ in DEMOS])
def test_demo_runs(script, args, tmp_path):
    # cwd is tmp_path so that a demo's plot lands there
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, str(ROOT / "demos" / script), *args], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
