"""Smoke tests of the README's Quick start: its CLI lines run in order,
each exits 0, and together they print the README's seed-0 result block;
each packaged experiment runs end to end in its own process and prints
what the README says it prints."""
from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys

import pytest

from heterospec.cli import main
from heterospec.config import load_config

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

# lines each script must print; the uniform twin's delta is the only one
# of +0.00%, since the planted run's calls fall
EXPECTED_LINES = {
    "run_alpha_sweep.py": [
        "baseline       -     907    16326   5.2922   2.7784        -",
        "adaptive       3     705    12394   6.8085   3.5587  +28.65%"],
    "run_uniform_control.py": ["  delta calls: +0.00%"],
}


def _run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("name", sorted(EXPECTED_LINES))
def test_script_runs_and_prints_its_result(tmp_path, name):
    proc = _run_script(name, "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for line in EXPECTED_LINES[name]:
        assert line in lines


def test_readme_alpha_config_file_sets_alpha(tmp_path):
    # the README sets another alpha with a --config file, not a flag
    echo, compare = _readme_block("Set another extension budget", "```sh")
    text, target = re.fullmatch(r"echo '(.*)' > (\S+)", echo).groups()
    assert shlex.split(compare)[-2:] == ["--config", target]
    path = tmp_path / target
    path.write_text(text, encoding="utf-8")
    assert load_config(str(path)).controller.alpha == 2


@pytest.mark.parametrize("alphas", ["2,x", ",", "-1", "2,-3", "3,3"],
                         ids=["not-integer", "empty", "negative", "one-negative",
                              "repeated"])
def test_alpha_sweep_refuses_bad_alphas_before_any_step(tmp_path, alphas):
    out = tmp_path / "run"
    proc = _run_script("run_alpha_sweep.py", "--out", str(out),
                       f"--alphas={alphas}")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1].startswith(
        "run_alpha_sweep.py: error: argument --alphas: expected ")
    assert not out.exists()


def _readme_block(marker: str, fence: str) -> list[str]:
    """Lines of the first ``fence`` code block of the README after
    ``marker``."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index(marker):]
    start = section.index(fence + "\n") + len(fence) + 1
    return section[start:section.index("```", start)].splitlines()


def test_readme_quick_start_runs_in_order(tmp_path, capsys):
    commands = [shlex.split(line)[1:]
                for line in _readme_block("\n## Quick start\n", "```sh")
                if line.startswith("heterospec ")]
    assert {"compare", "report"} <= {argv[0] for argv in commands}
    stdout = []
    for argv in commands:
        argv[argv.index("--out") + 1] = str(tmp_path)
        assert main(argv) == 0, (argv, capsys.readouterr().err)
        stdout += capsys.readouterr().out.splitlines()
    # the seed-0 result block is what the Quick start's own compare prints
    result = _readme_block("On the default configuration (seed 0)", "```")
    assert len(result) == 2
    assert all(line in stdout for line in result)
