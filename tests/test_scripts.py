"""Smoke tests of the README's Quick start and of the scripts: the Quick
start's CLI lines run in order, each exits 0, and together they print the
README's seed-0 result block; the README's null-control recipe runs
through the same CLI and prints its own result block; the artifact digest
tool prints the default run's digests, and wide-tree's and zipf-word's at
seed 0; the pairs tool aggregates synthetic runs, alternates which side
runs first and flags a metric worse than its bound."""
from __future__ import annotations

import argparse
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


def _run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        capture_output=True, text=True, env=env, timeout=120)


def test_readme_alpha_config_file_sets_alpha(tmp_path):
    # the README sets another alpha with a --config file, not a flag
    echo, compare = _readme_block("Set another extension budget", "```sh")
    text, target = re.fullmatch(r"echo '(.*)' > (\S+)", echo).groups()
    assert shlex.split(compare)[-2:] == ["--config", target]
    path = tmp_path / target
    path.write_text(text, encoding="utf-8")
    assert load_config(str(path)).controller.alpha == 2


def _workload_digests(workload: str, seed: int = 0) -> dict:
    proc = _run_script("artifact_digests.py", "--workload", workload,
                       "--seed", str(seed))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    out["speedup"] = [round(out["speedup"][arm], 4)
                      for arm in ("baseline", "adaptive")]
    return out


def test_artifact_digests_prints_the_default_runs_artifacts():
    # planted at seed 0 is the default experiment, whose artifacts
    # tests/test_pipeline.py pins
    out = _workload_digests("planted")
    assert sorted(out["sha256"]) == sorted(
        ["corpus.txt", "model.bin", "bins.txt", "calibration.csv", "compare.csv"]
        + [f"{arm}-{table}.csv" for arm in ("baseline", "adaptive")
           for table in ("iterations", "tcr-histogram", "tcr-by-accepted",
                         "bin-occupancy")])
    assert out["sha256"]["bins.txt"] == \
        "21d6491a71704986e270a647d33e2b2190221b99476f11d8c2f5323f7a6c85ff"
    assert out["sha256"]["model.bin"] == \
        "000335857b524c8b1c9653934e3fe1efedc8fc6f00e073eac67a085e48a079ad"
    assert sorted(out) == ["calls", "sha256", "speedup"]
    assert out["calls"] == {"baseline": 907, "adaptive": 705}
    assert out["speedup"] == [2.7784, 3.5587]


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
        "cae3a2cdb207e7c69058948ef0c017e596054653c990ed650489a075fc9deda1",
    "calibration.csv":
        "97dcbd752192a5f5c0469982a50e11c15af45d4bb377b96f1a67e7948263e902",
    "compare.csv":
        "3b05d24c7067f30aee51951f20f3e900869ded900270f09e6dd6ba97d52b1a64",
    "corpus.txt":
        "609dc7b79e74f448a77bfe5eb5ca6c5c898cbcc50ebe685408dc797a14779979",
    "model.bin":
        "4d6c0fd39430b187aeaa7d53edc7468786162a43f3dfe1131c43b4d70108b1ac",
}


# every artifact of wide-tree at seed 0: the only workload where rerank
# prunes (about 90 drafted nodes down to 24) and the adaptive arm both
# extends the tree and changes its node budget
WIDE_TREE_SEED0_SHA256 = {
    "adaptive-bin-occupancy.csv":
        "8ae8d21f131cfa47719ea7efe18688dcce2fc252211f81bd3fc130f992523769",
    "adaptive-iterations.csv":
        "6ef2f97208a6262e1866650c230803a0d72d5378da204046aa5a5996313bc149",
    "adaptive-tcr-by-accepted.csv":
        "eb72e32eefbcb55c0758f2cb6204196a4e853d6acf7a15da0a043acfc73d72f3",
    "adaptive-tcr-histogram.csv":
        "515a0e64eec3405aa7187bc5d966d678842e39dd7077f4c9b4e93e2fe8cba187",
    "baseline-bin-occupancy.csv":
        "dbbba8aadf27eda5ec8563ad2602efb1ad40482e86a78260fc7f46d6f146f020",
    "baseline-iterations.csv":
        "15ac585e231ea90db9b791e6411430c0f6d751b8c3c039a0b70a9ca17442d047",
    "baseline-tcr-by-accepted.csv":
        "8d7cdcccaf09fba7228b328c1555df712345b7ce9f6494e9cb72f439d074a489",
    "baseline-tcr-histogram.csv":
        "91e2aff00f381ec577e09ac63e329831047e11595c6dc5ce33cceae3550d6fb7",
    "bins.txt":
        "91ded809e688ef6545660fa67346d3cab998b20162bcb26e553c20e886f72e0a",
    "calibration.csv":
        "e5e69af499cc4aaf10cbfc9e76328f13e21a8b12d35bc74c745ba946d898f5f6",
    "compare.csv":
        "69cc08979fdb10570929f2b58db7367e2ab98e496f16c850d83eb82f91a7778e",
    "corpus.txt":
        "00339ac24459b1dc96755f8343db830122cd446955f29a39fcb9eec396f8f92d",
    "model.bin":
        "000335857b524c8b1c9653934e3fe1efedc8fc6f00e073eac67a085e48a079ad",
}


def test_artifact_digests_pins_the_zipf_word_run():
    out = _workload_digests("zipf-word")
    assert out["sha256"] == ZIPF_WORD_SEED0_SHA256
    assert out["calls"] == {"baseline": 1623, "adaptive": 1623}
    assert out["speedup"] == [1.5527, 1.5524]


def test_artifact_digests_pins_the_wide_tree_run():
    out = _workload_digests("wide-tree")
    assert out["sha256"] == WIDE_TREE_SEED0_SHA256
    assert out["calls"] == {"baseline": 791, "adaptive": 692}
    assert out["speedup"] == [2.7464, 3.4902]


# every artifact of each workload at seed 3, the second seed of the
# byte-identity rule: (calls, speedups, per-file digests)
SEED3_DIGESTS = {
    "planted": ({"baseline": 893, "adaptive": 690}, [2.8219, 3.6476], {
        "adaptive-bin-occupancy.csv":
            "d8bc05bd89d50e0fd8ba4b4d665c2e2f43d4a17b23d8acfbbbe04b720866faf4",
        "adaptive-iterations.csv":
            "d9314f2a93f6c11f1233bae5533a29d7cdb30493c249614a939b5281ca2a939b",
        "adaptive-tcr-by-accepted.csv":
            "382f2cad9e13864f28d5d3c57448d4c99dbc78f1a12a5703ca84ae5107b61a13",
        "adaptive-tcr-histogram.csv":
            "a55bb61d78a76949bf8052538ace198b0ddd8225d890647e7c9375f365e109af",
        "baseline-bin-occupancy.csv":
            "35ce3f6970ea9789e767221088f2ce28feb1432297af3e3f663714038e0a23cd",
        "baseline-iterations.csv":
            "3885c87c56fa90e2521433de1f3b345518b996413adc72e42d0fdb5440711726",
        "baseline-tcr-by-accepted.csv":
            "c9db09d75b79c9af091579ec25f2dfd95a3e46e859ce3512abe240aadd00e6ee",
        "baseline-tcr-histogram.csv":
            "26b1d9c13d8feb0864e785466081d48ab5d716485f188912712168244e64d97e",
        "bins.txt":
            "21d6491a71704986e270a647d33e2b2190221b99476f11d8c2f5323f7a6c85ff",
        "calibration.csv":
            "b65d4b2afcc3f2dde567ad8f1f51c78575e80d9b2ce3ccc174c72b4da891e749",
        "compare.csv":
            "381aa221221ca89616de05b43c3a593c25b427d5828a30e0047200f00443dcc6",
        "corpus.txt":
            "4363470474eb6fe214278a543b5c61cf4f9c5f65c82b61e3400e6bf88041ae4d",
        "model.bin":
            "000335857b524c8b1c9653934e3fe1efedc8fc6f00e073eac67a085e48a079ad",
    }),
    "wide-tree": ({"baseline": 782, "adaptive": 682}, [2.778, 3.5443], {
        "adaptive-bin-occupancy.csv":
            "84e4308e9e3fc248e9625405a02a79468cf4394b01ddaeea35857500c00df397",
        "adaptive-iterations.csv":
            "8423cee4f15186f44611de94e45c26cc012e0c52510129c192b20d7603eb227e",
        "adaptive-tcr-by-accepted.csv":
            "0bbab627a0b8b6488d11edb32ebd6e4e26a87bcdd074b12e544ecd5b7917578b",
        "adaptive-tcr-histogram.csv":
            "34fda96d532c39c64bda7e481e2df51320152c88b10d627269cfe6de40328d96",
        "baseline-bin-occupancy.csv":
            "356d4250f7e682ebae177f43eed96d397da8e25864cb77692ea23edb5393a16c",
        "baseline-iterations.csv":
            "caaa8ff8d66127b5172d70f42d394f8f6eec5714c56dedc9eecc64fbdb7f747b",
        "baseline-tcr-by-accepted.csv":
            "054c57328dca27bae3624026e8319dd351bddb3d5fa2bd775601f4108e7d7f64",
        "baseline-tcr-histogram.csv":
            "358426f186bd28c327ec9018f514b71d464a6d16eacdc03b144fa81ce975d1d2",
        "bins.txt":
            "91ded809e688ef6545660fa67346d3cab998b20162bcb26e553c20e886f72e0a",
        "calibration.csv":
            "e5e69af499cc4aaf10cbfc9e76328f13e21a8b12d35bc74c745ba946d898f5f6",
        "compare.csv":
            "f8e2d3a126575a98cbbed047738cb7b3841660049f08297b102160da4b3b1974",
        "corpus.txt":
            "4363470474eb6fe214278a543b5c61cf4f9c5f65c82b61e3400e6bf88041ae4d",
        "model.bin":
            "000335857b524c8b1c9653934e3fe1efedc8fc6f00e073eac67a085e48a079ad",
    }),
    "zipf-word": ({"baseline": 1622, "adaptive": 1622}, [1.5536, 1.5535], {
        "adaptive-bin-occupancy.csv":
            "acf057e2dbf172f621421637f59d1f8852e54df2b9ff640b5e3d8354dea19969",
        "adaptive-iterations.csv":
            "f6831b8ac109c83dc87fa51234c7622d9db1d90295b4548590ab2264e4041e82",
        "adaptive-tcr-by-accepted.csv":
            "8bb54df925ae525a274783e1f169821c61f6a794ac4485df99e7cbdc4db2d08b",
        "adaptive-tcr-histogram.csv":
            "00e4ba7be31dae516b0d40d6be4d5542cfc6073f9495166f44072728bac48466",
        "baseline-bin-occupancy.csv":
            "c1042b499ba5ff245d5e6b909d526f13d6bda7a32a16987e4983570624c2dfa2",
        "baseline-iterations.csv":
            "48170cbe4cb9f20d8ead6cf82fffda026fde3d70d8e486265adcc4b3f0885d11",
        "baseline-tcr-by-accepted.csv":
            "ecd26d3cc1a14f3017be76e8df04d5d517e2ee7586f34c3c01f4cf2c66d61442",
        "baseline-tcr-histogram.csv":
            "f078828edbf19f3fa89f4dec2b2cf7eca536056c4395df24899eb180632f806a",
        "bins.txt":
            "cae3a2cdb207e7c69058948ef0c017e596054653c990ed650489a075fc9deda1",
        "calibration.csv":
            "97dcbd752192a5f5c0469982a50e11c15af45d4bb377b96f1a67e7948263e902",
        "compare.csv":
            "2a63321ba8110d49cb16c2880129d1c57cca75f48036c0d7d2145aa37cfa7ab8",
        "corpus.txt":
            "bcf6648c2c2a98bd59e6766365bf7555ac397b25c44dce2ea3d0b03c8642424a",
        "model.bin":
            "4d6c0fd39430b187aeaa7d53edc7468786162a43f3dfe1131c43b4d70108b1ac",
    }),
}


@pytest.mark.parametrize("workload", list(SEED3_DIGESTS))
def test_artifact_digests_pins_the_seed_3_runs(workload):
    calls, speedup, sha256 = SEED3_DIGESTS[workload]
    out = _workload_digests(workload, seed=3)
    assert out["sha256"] == sha256
    assert out["calls"] == calls
    assert out["speedup"] == speedup


def test_artifact_digests_refuses_an_unknown_workload():
    proc = _run_script("artifact_digests.py", "--workload", "nope", "--seed", "0")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "invalid choice: 'nope'" in proc.stderr


def test_artifact_digests_refuses_a_negative_seed():
    proc = _run_script("artifact_digests.py", "--workload", "planted",
                       "--seed", "-1")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "argument --seed: expected a seed >= 0" in proc.stderr
    assert "Traceback" not in proc.stderr


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


NULL_RECIPE = "The null control is the planted generator"


def _run_null_recipe(tmp_path, capsys, edit=lambda data: None) -> list[tuple]:
    """Write the README null recipe's config file, changed by ``edit``,
    under tmp_path, then run each of the recipe's ``heterospec`` lines
    through main() into tmp_path/null up to the first that fails; returns
    each line's (exit code, stdout, stderr)."""
    block = _readme_block(NULL_RECIPE, "```sh")
    (echo,) = [line for line in block if line.startswith("echo ")]
    text, name = re.fullmatch(r"echo '(.*)' > (\S+)", echo).groups()
    data = json.loads(text)
    edit(data)
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    runs = []
    for line in block:
        if not line.startswith("heterospec "):
            continue
        argv = shlex.split(line)[1:]
        assert argv[argv.index("--config") + 1] == name
        argv[argv.index("--config") + 1] = str(path)
        argv[argv.index("--out") + 1] = str(tmp_path / "null")
        runs.append((main(argv), *capsys.readouterr()))
        if runs[-1][0] != 0:
            break
    return runs


def test_readme_null_control_recipe_runs_and_prints_its_result(tmp_path, capsys):
    # the coverage-zero corpus is calibrated on its own, nothing copied in
    runs = _run_null_recipe(tmp_path, capsys)
    assert [code for code, _, _ in runs] == [0, 0, 0, 0]
    result = _readme_block("At seed 0 its `compare` prints", "```")
    assert result == [
        "baseline alpha=- calls=2530 tokens=45540 tau=1.8972 speedup=0.9960",
        "adaptive alpha=3 calls=2750 tokens=46742 tau=1.7455 speedup=0.9243"]
    assert runs[-1][1].splitlines()[-2:] == result


def test_readme_null_control_exits_3_under_the_default_filter(tmp_path, capsys):
    runs = _run_null_recipe(tmp_path, capsys, edit=lambda data: data.pop("calibration"))
    assert [code for code, _, _ in runs] == [0, 0, 3]
    (err,) = runs[-1][2].splitlines()
    assert err.startswith("heterospec: calibration: ")
    assert "1 distinct entropy values across 651 samples" in err


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


def test_bench_pairs_verdict_flags_only_the_metric_over_its_bound():
    # compare_s is 50% worse against a 25% bound; the rate is 2% worse,
    # within its bound, and the call count has no bound to exceed
    parent = [_result(2.0, 50.0, calls=900)] * 3
    change = [_result(3.0, 49.0, calls=1000, failed=f) for f in (0, 2, 0)]
    block = _bench_pairs().aggregate(SPEC, {"parent": parent, "change": change})
    block["trace_sha256_repeat"] = {"parent": True, "change": False}
    block["trace_sha256_equal"] = False
    lines = _bench_pairs().verdict_lines(block)
    assert len(lines) == 1 + len(SPEC) + 3
    assert [line.split()[0] for line in lines if line.endswith("OVER")] == \
        ["compare_s"]
    assert lines[1].split() == ["compare_s", "2", "3", "+50.0%", "25%", "0/3",
                                "no", "OVER"]
    assert lines[2].split() == ["decode_tok_per_s", "50", "49", "+2.0%", "25%",
                                "0/3", "no"]
    assert lines[3].split() == ["baseline_calls", "900", "1000", "+11.1%", "-",
                                "0/3", "no"]
    assert lines[-3:] == ["failed decodes: parent 0, change 2",
                          "trace digests repeat: parent yes, change no",
                          "trace digests equal: no"]


@pytest.mark.parametrize("change, want", [
    # 9 of 10 wins, the median 9 tok/s up against a parent q3 - q1 of 4.5
    ([r + 10 for r in range(100, 109)] + [99], "yes"),
    # 8 of 10 wins by the same margin: too few
    ([r + 10 for r in range(100, 108)] + [99, 100], "no"),
    # 10 of 10 wins, but the median 1 tok/s up, inside the parent's spread
    ([r + 1 for r in range(100, 110)], "no"),
])
def test_bench_pairs_verdict_states_the_gain_rule(change, want):
    parent = [_result(1.0, r) for r in range(100, 110)]
    block = _bench_pairs().aggregate(SPEC, {
        "parent": parent, "change": [_result(1.0, r) for r in change]})
    rate = block["metrics"]["decode_tok_per_s"]
    assert rate["parent"]["q3"] - rate["parent"]["q1"] == 4.5
    block["trace_sha256_repeat"] = {"parent": True, "change": True}
    block["trace_sha256_equal"] = True
    line = _bench_pairs().verdict_lines(block)[2]
    assert line.split()[0] == "decode_tok_per_s"
    assert line.split()[-1] == want
    # equal times win no pair, so they claim nothing either
    assert _bench_pairs().verdict_lines(block)[1].split()[-1] == "no"


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


def test_bench_pairs_alternates_which_side_runs_first(tmp_path, capsys):
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
    # the verdict table follows the pairs' lines
    assert capsys.readouterr().out.splitlines()[-4:] == [
        "compare_s                                 2            1    -50.0%"
        "     25%         3/0  yes",
        "failed decodes: parent 0, change 0",
        "trace digests repeat: parent yes, change yes",
        "trace digests equal: yes"]
    written = json.loads(out.read_text(encoding="utf-8"))
    assert written["notes"] == "kept"
    block = written["workloads"]["planted"]
    assert block["command"] == ("python3 bench/run.py --workload planted "
                                "--seed 7 --seconds 1 --trace 0")
    assert block["passes"][:2] == [
        "pair 1 parent: workload planted seed 7 trace 0: 3 passes",
        "pair 1 change: workload planted seed 7 trace 0: 3 passes"]
    assert block["trace_sha256"] == {"parent": {"bins.txt": "abc"},
                                     "change": {"bins.txt": "abc"}}
    assert block["trace_sha256_repeat"] == {"parent": True, "change": True}
    assert block["trace_sha256_equal"]
    assert len(block["json_lines"]["change"]) == 3
    time = block["metrics"]["compare_s"]
    assert (time["change_wins"], time["change_losses"]) == (3, 0)
    assert time["change_worse_by"] == -0.5


@pytest.mark.parametrize("runs, repeat, equal", [
    # runs in pair order: parent, change, then change, parent
    (("a", "a", "a", "a"), {"parent": True, "change": True}, True),
    # each side repeats, but the change rewrote bins.txt
    (("p", "c", "c", "p"), {"parent": True, "change": True}, False),
    # the change's second run wrote another bins.txt than its first
    (("a", "a", "b", "a"), {"parent": True, "change": False}, False),
])
def test_bench_pairs_keeps_trace_digests_per_side(tmp_path, monkeypatch,
                                                  runs, repeat, equal):
    module = _bench_pairs()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": SPEC}),
                                             encoding="utf-8")
    digests = iter({"bins.txt": d} for d in runs)
    monkeypatch.setattr(module, "run_bench", lambda *args: (
        "passes", next(digests), json.dumps(_result(1.0, 10.0))))
    args = argparse.Namespace(workload="planted", seed=0, seconds=1.0,
                              pairs=2, trace=0)
    block = module.run_pairs({"parent": "p", "change": str(tmp_path)}, args)
    assert block["trace_sha256"] == {"parent": {"bins.txt": runs[0]},
                                     "change": {"bins.txt": runs[1]}}
    assert block["trace_sha256_repeat"] == repeat
    assert block["trace_sha256_equal"] is equal
