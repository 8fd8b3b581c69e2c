"""Smoke tests of the packaged experiments the README's Quick start lists:
each script runs end to end in its own process and prints what the README
says it prints."""
from __future__ import annotations

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

# lines each script must print; the uniform twin's delta is the only one
# of +0.00%, since the planted run's calls fall
EXPECTED_LINES = {
    "run_planted_comparison.py": [
        "baseline alpha=- calls=907 tokens=16326 tau=5.2922 speedup=2.7784",
        "adaptive alpha=3 calls=705 tokens=12394 tau=6.8085 speedup=3.5587"],
    "run_alpha_sweep.py": [],
    "run_uniform_control.py": ["  delta calls: +0.00%"],
}


@pytest.mark.parametrize("name", sorted(EXPECTED_LINES))
def test_script_runs_and_prints_its_result(tmp_path, name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for line in EXPECTED_LINES[name]:
        assert line in lines
