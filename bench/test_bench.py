"""The benchmark's own test: a scaled-down pass end to end, the correctness
check catching an altered output, and trace digests that repeat.

Run from the repository root: ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from heterospec.config import PromptSpec  # noqa: E402

from harness import LAYER_SPANS, check_pass, layer_metrics, run_pass  # noqa: E402
from workloads import WORKLOADS, make_inputs, shift_eval_prompts  # noqa: E402


def small_config(tmp_path, seed=3, **controller):
    """planted, cut to 12 calibration and 4 eval prompts of 40 tokens."""
    config = make_inputs(WORKLOADS["planted"], seed, str(tmp_path / "input"))
    ctl = dataclasses.replace(config.controller, max_new_tokens=40, **controller)
    return dataclasses.replace(
        config, controller=ctl,
        prompts=PromptSpec(count=4, prompt_tokens=8, calibration_count=12))


def test_scaled_down_pass_is_correct_and_traced(tmp_path):
    config = dataclasses.replace(small_config(tmp_path), out_dir=str(tmp_path / "a"))
    result = run_pass(config, traced=True)
    assert result.error is None
    assert len(result.decodes) == result.planned == 12 + 2 * 4
    assert check_pass(result, config) == []
    layers = layer_metrics(result)
    assert set(LAYER_SPANS) <= set(layers)
    assert layers["control.iterations"] == sum(
        len(d.records) for d in result.decodes)
    # one target eval per accepted draft token plus one per verify call
    assert layers["models.target_evals"] == round(
        layers["verify.accept_ratio"] * layers["tree.nodes_verified"]
        + layers["control.iterations"])
    assert 0 < layers["tree.kept_ratio"] <= 1


def test_target_evals_inside_the_draft_are_not_target_calls(tmp_path):
    # draft.order = None makes the draft's base the target object itself
    base = small_config(tmp_path)
    config = dataclasses.replace(
        base, out_dir=str(tmp_path / "a"),
        draft=dataclasses.replace(base.draft, order=None))
    result = run_pass(config, traced=True)
    assert result.error is None
    layers = layer_metrics(result)
    assert layers["models.target_evals"] == round(
        layers["verify.accept_ratio"] * layers["tree.nodes_verified"]
        + layers["control.iterations"])
    assert layers["models.draft_evals"] > layers["models.target_evals"]


@pytest.mark.parametrize("arm", ["baseline", "adaptive", "calibration"])
def test_check_fails_when_one_output_is_altered(tmp_path, arm):
    config = dataclasses.replace(small_config(tmp_path), out_dir=str(tmp_path / "a"))
    result = run_pass(config)
    assert check_pass(result, config) == []
    decode = next(d for d in result.decodes if d.arm == arm)
    decode.tokens = decode.tokens[:-1] + [(decode.tokens[-1] + 1) % 27]
    failures = check_pass(result, config)
    assert any(f.startswith(f"{arm} prompt {decode.prompt_index}:")
               and "greedy_reference" in f for f in failures)


def test_trace_digests_repeat_for_a_seed(tmp_path):
    config = small_config(tmp_path)
    first = run_pass(dataclasses.replace(config, out_dir=str(tmp_path / "a")))
    second = run_pass(dataclasses.replace(config, out_dir=str(tmp_path / "b")))
    assert first.digests == second.digests
    assert {"bins.txt", "baseline-iterations.csv",
            "adaptive-iterations.csv"} <= set(first.digests)


def test_seed_zero_keeps_the_corpus_and_other_seeds_move_prompts():
    workload = WORKLOADS["planted"]
    docs = workload.corpus()
    assert shift_eval_prompts(docs, workload.config, 0) == docs
    moved = shift_eval_prompts(docs, workload.config, 5)
    count = workload.config.prompts.count
    assert moved[:-count] == docs[:-count]
    assert moved[-count:] != docs[-count:]
    assert all(doc.endswith(m) for doc, m in zip(docs[-count:], moved[-count:]))
    assert moved == shift_eval_prompts(docs, workload.config, 5)


def test_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and bench/, the command exits non-zero
    without printing a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        command = json.load(fh)["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "planted", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
