"""Smoke tests of the README's Quick start: its CLI lines run in order,
each exits 0, and together they print the README's seed-0 result block;
each packaged experiment runs end to end in its own process and prints
what the README says it prints; the artifact digest tool prints the
default run's digests and zipf-word's at seed 0; the pairs tool aggregates synthetic runs and
alternates which side runs first."""
from __future__ import annotations

import importlib.util
import json
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


def test_artifact_digests_prints_the_default_runs_artifacts():
    # planted at seed 0 is the default experiment, whose artifacts
    # tests/test_pipeline.py pins
    proc = _run_script("artifact_digests.py", "--workload", "planted",
                       "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert sorted(out["sha256"]) == sorted(
        ["corpus.txt", "model.bin", "bins.txt", "calibration.csv", "compare.csv"]
        + [f"{arm}-{table}.csv" for arm in ("baseline", "adaptive")
           for table in ("iterations", "tcr-histogram", "tcr-by-accepted",
                         "bin-occupancy")])
    assert out["sha256"]["bins.txt"] == \
        "15a03105e4f21f396b6fb8f39b7d17b4d70118f977f914f159965595408707df"
    assert out["sha256"]["model.bin"] == \
        "000335857b524c8b1c9653934e3fe1efedc8fc6f00e073eac67a085e48a079ad"
    assert sorted(out) == ["calls", "sha256", "speedup"]
    assert out["calls"] == {"baseline": 907, "adaptive": 705}
    assert [round(out["speedup"][arm], 4) for arm in ("baseline", "adaptive")] \
        == [2.7784, 3.5587]


# every artifact of zipf-word at seed 0: the only workload whose draft and
# target rows span a large vocabulary (about 1990 words), so the only run
# of the top-k selection's large-V path
ZIPF_WORD_SEED0_SHA256 = {
    "adaptive-bin-occupancy.csv":
        "6de6d385f849928e64e84f2c5a5f3d0587ea9632c7571d4a68a0a0fb67cd6ac6",
    "adaptive-iterations.csv":
        "97f6458c0058b1ee11e9d4b1c58a3bbf7b0b225d7b987267099388f121ee6855",
    "adaptive-tcr-by-accepted.csv":
        "6d8cb09e7be8f1af7be18be1700de5077480cbecb8a0d9a37f90128544e290fb",
    "adaptive-tcr-histogram.csv":
        "a2d4ac9caf27a7dfd7f7313f9cdfe95a01e380976c84382446ef96d571bfd3df",
    "baseline-bin-occupancy.csv":
        "f2d0a026e095c28d224d1ebc053b672988ed4db5411524a7b64228ce1b5d2fa8",
    "baseline-iterations.csv":
        "bd203e55882d4df643cfae237caa231b946e7f3255aa4b51a13ee0878d182377",
    "baseline-tcr-by-accepted.csv":
        "acd20d37cff38ba4c66972a09a78b80f391c8d766d17061d780df6180b580d33",
    "baseline-tcr-histogram.csv":
        "157c1ddb60f3f143038c4d4bb79fd3309b62440478baceaf62e7113e57af76aa",
    "bins.txt":
        "33e69a4af203bce3a9e56315f44ff8361d029e948e286b4e89cfc8ea8e72dd94",
    "calibration.csv":
        "97dcbd752192a5f5c0469982a50e11c15af45d4bb377b96f1a67e7948263e902",
    "compare.csv":
        "3b05d24c7067f30aee51951f20f3e900869ded900270f09e6dd6ba97d52b1a64",
    "corpus.txt":
        "609dc7b79e74f448a77bfe5eb5ca6c5c898cbcc50ebe685408dc797a14779979",
    "model.bin":
        "4d6c0fd39430b187aeaa7d53edc7468786162a43f3dfe1131c43b4d70108b1ac",
}


def test_artifact_digests_pins_the_zipf_word_run():
    proc = _run_script("artifact_digests.py", "--workload", "zipf-word",
                       "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["sha256"] == ZIPF_WORD_SEED0_SHA256
    assert out["calls"] == {"baseline": 1623, "adaptive": 1623}
    assert [round(out["speedup"][arm], 4) for arm in ("baseline", "adaptive")] \
        == [1.5527, 1.5524]


def test_artifact_digests_refuses_an_unknown_workload():
    proc = _run_script("artifact_digests.py", "--workload", "nope", "--seed", "0")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "invalid choice: 'nope'" in proc.stderr


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


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "scripts", "bench_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPEC = [{"name": "compare_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "decode_tok_per_s", "unit": "tok/s", "better": "higher",
         "bound": 0.25},
        {"name": "baseline_calls", "unit": "count", "better": "lower"}]


def _result(compare_s, tok_per_s, calls=907, correct=True, failed=0):
    return {"correct": correct, "attempted": 100, "failed": failed, "metrics": {
        "compare_s": {"value": compare_s, "unit": "s"},
        "decode_tok_per_s": {"value": tok_per_s, "unit": "tok/s"},
        "baseline_calls": {"value": calls, "unit": "count"}}}


def test_bench_pairs_aggregates_quartiles_wins_and_losses():
    parent = [_result(s, r) for s, r in
              [(1.0, 10.0), (2.0, 20.0), (3.0, 30.0), (4.0, 40.0), (5.0, 50.0)]]
    # pairs 1-3 faster, pair 4 a tie, pair 5 slower; the rate is the same
    # picture, higher being better
    change = [_result(s, r, failed=f) for s, r, f in
              [(0.5, 11.0, 0), (1.0, 21.0, 0), (2.5, 31.0, 0), (4.0, 40.0, 0),
               (6.0, 49.0, 1)]]
    out = _bench_pairs().aggregate(SPEC, {"parent": parent, "change": change})
    assert out["correct"] == {"parent": True, "change": True}
    assert out["attempted"] == {"parent": 500, "change": 500}
    assert out["failed"] == {"parent": 0, "change": 1}
    time = out["metrics"]["compare_s"]
    # inclusive quartiles of 1..5 are 2, 3, 4
    assert time["parent"] == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert time["change"] == {"q1": 1.0, "median": 2.5, "q3": 4.0}
    assert (time["change_wins"], time["change_losses"]) == (3, 1)
    assert time["change_worse_by"] == pytest.approx(-0.5 / 3.0)
    assert time["runs"] == {"parent": [1.0, 2.0, 3.0, 4.0, 5.0],
                            "change": [0.5, 1.0, 2.5, 4.0, 6.0]}
    assert (time["unit"], time["better"], time["bound"]) == ("s", "lower", 0.25)
    rate = out["metrics"]["decode_tok_per_s"]
    assert (rate["change_wins"], rate["change_losses"]) == (3, 1)
    assert rate["change_worse_by"] == pytest.approx(-1.0 / 30.0)  # better
    calls = out["metrics"]["baseline_calls"]
    assert (calls["change_wins"], calls["change_losses"]) == (0, 0)
    assert calls["change_worse_by"] == 0.0 and "bound" not in calls


def test_bench_pairs_keeps_a_metric_a_run_did_not_report():
    change = [_result(1.0, 10.0), {"correct": False, "attempted": 100,
                                   "failed": 100, "metrics": {}}]
    out = _bench_pairs().aggregate(SPEC, {"parent": [_result(2.0, 9.0)] * 2,
                                          "change": change})
    assert out["correct"] == {"parent": True, "change": False}
    time = out["metrics"]["compare_s"]
    assert time["runs"]["change"] == [1.0, None]
    assert time["change"]["median"] == 1.0
    assert (time["change_wins"], time["change_losses"]) == (1, 0)


FAKE_RUN = '''import json, os, sys
side = os.path.basename(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..",
                       "order.log"), "a") as fh:
    fh.write(side + "\\n")
print("workload planted seed 7 trace 0: 3 passes")
print("sha256 bins.txt abc")
value = {"parent": 2.0, "change": 1.0}[side]
print(json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": {
    "compare_s": {"value": value, "unit": "s"}}}))
'''


def test_bench_pairs_alternates_which_side_runs_first(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text(FAKE_RUN, encoding="utf-8")
        (tmp_path / side / "BENCHMARK.json").write_text(
            json.dumps({"end_to_end": SPEC[:1]}), encoding="utf-8")
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"notes": "kept"}), encoding="utf-8")
    assert _bench_pairs().main([
        "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
        "--workload", "planted", "--seed", "7", "--seconds", "1", "--pairs", "3",
        "--out", str(out)]) == 0
    assert (tmp_path / "order.log").read_text().split() == [
        "parent", "change", "change", "parent", "parent", "change"]
    written = json.loads(out.read_text(encoding="utf-8"))
    assert written["notes"] == "kept"
    block = written["workloads"]["planted"]
    assert block["command"] == ("python3 bench/run.py --workload planted "
                                "--seed 7 --seconds 1 --trace 0")
    assert block["passes"][:2] == [
        "pair 1 parent: workload planted seed 7 trace 0: 3 passes",
        "pair 1 change: workload planted seed 7 trace 0: 3 passes"]
    assert block["trace_sha256_equal"] and block["trace_sha256"] == {"bins.txt": "abc"}
    assert len(block["json_lines"]["change"]) == 3
    time = block["metrics"]["compare_s"]
    assert (time["change_wins"], time["change_losses"]) == (3, 0)
    assert time["change_worse_by"] == -0.5
