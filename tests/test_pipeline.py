"""Pipeline steps: artifact layout, prerequisite errors, determinism, and
the report tables, all on the sub-second tiny configuration."""
from __future__ import annotations

import dataclasses
import hashlib
import os
import pathlib
import shutil

import pytest

from conftest import TINY_CONFIG
from heterospec import pipeline
from heterospec.config import ExperimentConfig, config_from_dict, load_config
from heterospec.binning import save_bins
from heterospec.errors import ConfigError
from heterospec.metrics import read_iterations_csv, read_summary_csv, validate_run
from heterospec.pipeline import (
    load_models,
    load_pipeline_bins,
    render_report,
    step_calibrate,
    step_compare,
    step_gen_corpus,
    step_report,
    step_train_model,
)
from heterospec.vocab import read_corpus


def _cfg(out_dir, **overrides):
    data = dict(TINY_CONFIG, **overrides)
    cfg = config_from_dict(data)
    return dataclasses.replace(cfg, out_dir=str(out_dir))


def _at_alpha(cfg, alpha):
    return dataclasses.replace(
        cfg, controller=dataclasses.replace(cfg.controller, alpha=alpha))


@pytest.fixture(scope="module")
def lab(tmp_path_factory):
    """Full pipeline over the tiny config, shared by the read-only tests;
    its second compare, at alpha 1, replaces every artifact of the first,
    at the default alpha 2."""
    cfg = _cfg(tmp_path_factory.mktemp("tiny") / "run")
    step_gen_corpus(cfg)
    step_train_model(cfg)
    step_calibrate(cfg)
    step_compare(cfg)
    cfg = _at_alpha(cfg, 1)
    step_compare(cfg)
    step_report(cfg, "baseline")
    step_report(cfg, "adaptive")
    return cfg


def test_artifact_layout(lab):
    cfg = lab
    expected = [
        "config.json", "corpus.txt", "template.txt", "model.bin",
        "bins.txt", "calibration.csv",
        "baseline-iterations.csv", "adaptive-iterations.csv",
        "compare.csv", "baseline-tcr-histogram.csv",
        "baseline-tcr-by-accepted.csv", "baseline-bin-occupancy.csv",
        "adaptive-tcr-histogram.csv", "adaptive-tcr-by-accepted.csv",
        "adaptive-bin-occupancy.csv",
    ]
    for name in expected:
        assert os.path.exists(os.path.join(cfg.out_dir, name)), name
    assert not os.path.exists(os.path.join(cfg.out_dir, "draft-model.txt"))
    traces = sorted(name for name in os.listdir(cfg.out_dir)
                    if name.endswith("-iterations.csv"))
    assert traces == ["adaptive-iterations.csv", "baseline-iterations.csv"]
    assert load_config(os.path.join(cfg.out_dir, "config.json")) == cfg


def test_corpus_and_template_shape(lab):
    cfg = lab
    docs = read_corpus(os.path.join(cfg.out_dir, "corpus.txt"))
    assert len(docs) == 24
    assert all(len(d.split()) == 70 for d in docs)
    [template] = read_corpus(os.path.join(cfg.out_dir, "template.txt"))
    assert len(template.split()) == 12


def test_calibration_trace_and_bins(lab):
    cfg = lab
    records = read_iterations_csv(os.path.join(cfg.out_dir, "calibration.csv"))
    assert sorted({r.prompt for r in records}) == list(range(8))
    assert validate_run(records) == []
    bins = load_pipeline_bins(cfg)
    assert 1 <= bins.num_bins <= 8
    assert bins.entropy_k == 2  # the controller's top_k
    assert bins.base_depth == 4


@pytest.mark.parametrize("controller", [{"depth": 7}, {"top_k": 3}],
                         ids=["depth", "top_k"])
def test_bins_for_another_tree_shape_are_refused(lab, controller):
    cfg = lab
    other = dataclasses.replace(
        cfg, controller=dataclasses.replace(cfg.controller, **controller))
    want = (rf"bins\.txt: bins were calibrated for entropy_k 2, base_depth 4 "
            rf"but the controller has top_k {other.controller.top_k}, depth "
            rf"{other.controller.depth}; run calibrate again")
    with pytest.raises(ConfigError, match=want):
        load_pipeline_bins(other)


def test_traces_account_for_all_tokens(lab):
    cfg = lab
    for arm in ("baseline", "adaptive"):
        records = read_iterations_csv(
            os.path.join(cfg.out_dir, f"{arm}-iterations.csv"))
        assert validate_run(records, expected_emitted=3 * 60) == []


def test_compare_rows(lab):
    cfg = lab
    rows = read_summary_csv(os.path.join(cfg.out_dir, "compare.csv"))
    assert [(r["arm"], r["alpha"]) for r in rows] == \
        [("baseline", "-"), ("adaptive", "1")]
    for row, arm in zip(rows, ("baseline", "adaptive")):
        records = read_iterations_csv(
            os.path.join(cfg.out_dir, f"{arm}-iterations.csv"))
        assert int(row["emitted"]) == 180
        assert int(row["calls"]) == len(records)
        assert float(row["tau"]) == pytest.approx(180 / len(records))


def test_report_tables_are_consistent(lab):
    cfg = lab
    for arm in ("baseline", "adaptive"):
        records = read_iterations_csv(
            os.path.join(cfg.out_dir, f"{arm}-iterations.csv"))
        occ = os.path.join(cfg.out_dir, f"{arm}-bin-occupancy.csv")
        lines = open(occ, encoding="utf-8").read().splitlines()
        counts = [int(line.split(",")[3]) for line in lines[2:]]
        assert sum(counts) == len(records)
        hist = os.path.join(cfg.out_dir, f"{arm}-tcr-histogram.csv")
        hlines = open(hist, encoding="utf-8").read().splitlines()
        assert hlines[-1].startswith("sentinel,")
        total = sum(int(line.split(",")[1]) for line in hlines[2:])
        assert total == len(records)


def test_render_report_digest(lab):
    cfg = lab
    digest = render_report(cfg)
    assert "bins:" in digest
    assert "compare.csv:" in digest
    assert "baseline" in digest and "adaptive" in digest


def test_pipeline_reruns_byte_identical(tmp_path):
    outs = []
    for sub in ("a", "b"):
        cfg = _cfg(tmp_path / sub)
        step_gen_corpus(cfg)
        step_train_model(cfg)
        step_calibrate(cfg)
        step_compare(cfg)
        outs.append(cfg.out_dir)
    for name in ("corpus.txt", "model.bin", "bins.txt",
                 "calibration.csv", "compare.csv"):
        a = open(os.path.join(outs[0], name), "rb").read()
        b = open(os.path.join(outs[1], name), "rb").read()
        assert a == b, name
    for out in outs:
        assert not os.path.exists(os.path.join(out, "draft-model.txt"))


def test_default_planted_experiment_matches_readme(tmp_path):
    # the README's seed-0 table for the default configuration
    cfg = dataclasses.replace(ExperimentConfig(), out_dir=str(tmp_path / "run"))
    step_gen_corpus(cfg)
    model_path = step_train_model(cfg)
    with open(model_path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == \
            "000335857b524c8b1c9653934e3fe1efedc8fc6f00e073eac67a085e48a079ad"
    step_calibrate(cfg)
    _, result = step_compare(cfg)
    got = [(name, alpha, s.calls, s.tokens, f"{s.tau:.4f}", f"{s.speedup:.4f}")
           for name, alpha, s in result.rows()]
    assert got == [("baseline", None, 907, 16326, "5.2922", "2.7784"),
                   ("adaptive", 3, 705, 12394, "6.8085", "3.5587")]
    step_report(cfg, "baseline")
    step_report(cfg, "adaptive")
    # the traces and every table, byte for byte
    for name, digest in (
            ("bins.txt",
             "21d6491a71704986e270a647d33e2b2190221b99476f11d8c2f5323f7a6c85ff"),
            ("calibration.csv",
             "b65d4b2afcc3f2dde567ad8f1f51c78575e80d9b2ce3ccc174c72b4da891e749"),
            ("baseline-iterations.csv",
             "d3346a3ef4e716f638506db5c2569c6dc86c6e7b591ed68ec52231188d080c86"),
            ("adaptive-iterations.csv",
             "b5fc3c2d08927ecda0ef7ceecc3b32715477724f42ca352dd92d8b73f0b5454d"),
            ("compare.csv",
             "bdae1f35cf487152b004ca15267cce844a033a53423bf22695e796ed856a072b"),
            ("baseline-tcr-histogram.csv",
             "7ac7e9583755e25412fe9651e03a6716a091f2e1fa5c53605144d797b0e0b3ff"),
            ("baseline-tcr-by-accepted.csv",
             "265bac564e8b35dcce5495a22e385dd07bdd9592e08fec29346b4ba2759b31cc"),
            ("baseline-bin-occupancy.csv",
             "1496f8014ebb15064851e68ca85b58e626edb1138f341e439e927eb217e7d919"),
            ("adaptive-tcr-histogram.csv",
             "2e5a3d294bcf61d1a25df33aeeca3cab359eab7aa2aa2725237c0a8131d97158"),
            ("adaptive-tcr-by-accepted.csv",
             "d17131756d7797b48c8c53d3b5a599773c76d6e64e9fc396a6e843bdeb70bdcd"),
            ("adaptive-bin-occupancy.csv",
             "7971ab5d47a96d01480a9d71c52a279b66e2947a164ca0a29edec6bb338317da")):
        with open(os.path.join(cfg.out_dir, name), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, name


def test_default_planted_run_executes_pinned_model_calls(tmp_path, monkeypatch):
    # executed next_dist calls of each model instance over calibrate and
    # compare, so a hot-path change that alters the work it does fails here
    cfg = dataclasses.replace(ExperimentConfig(), out_dir=str(tmp_path / "run"))
    step_gen_corpus(cfg)
    step_train_model(cfg)
    calls = {"draft": 0, "target": 0}
    real_load_models = pipeline.load_models

    def counted(role, next_dist):
        def next_dist_counted(context):
            calls[role] += 1
            return next_dist(context)
        return next_dist_counted

    def counting_load_models(config):
        target, draft = real_load_models(config)
        target.next_dist = counted("target", target.next_dist)
        draft.next_dist = counted("draft", draft.next_dist)
        return target, draft

    monkeypatch.setattr(pipeline, "load_models", counting_load_models)
    step_calibrate(cfg)
    step_compare(cfg)
    assert calls == {"draft": 6898, "target": 15804}


def test_shared_draft_base_when_draft_order_unset(tmp_path):
    cfg = _cfg(tmp_path / "run", draft={"order": None, "noise": 0.05})
    step_gen_corpus(cfg)
    step_train_model(cfg)
    assert not os.path.exists(os.path.join(cfg.out_dir, "draft-model.txt"))
    target, draft = load_models(cfg)
    assert draft.base is target
    assert draft.noise == 0.05


def test_draft_base_is_the_targets_lower_order(tmp_path):
    cfg = _cfg(tmp_path / "run")  # model order 3, draft order 2
    step_gen_corpus(cfg)
    step_train_model(cfg)
    target, draft = load_models(cfg)
    assert draft.base.order == 2
    assert len(draft.base._counts) == 2
    assert all(a is b for a, b in zip(draft.base._counts, target._counts))
    same = dataclasses.replace(cfg, draft=dataclasses.replace(cfg.draft, order=3))
    target, draft = load_models(same)
    assert draft.base is target
    # a model trained at a lower order than draft.order asks for retraining
    low = _cfg(tmp_path / "run", model={"order": 2}, draft={"order": 2})
    step_train_model(low)
    assert load_models(cfg)[1].base.order == 2
    with pytest.raises(ConfigError, match="model order 2 is below draft.order 3, "
                                          "run train-model"):
        load_models(same)


def test_calibrate_and_compare_hold_the_bins_of_bins_txt(tmp_path):
    # the CLI's low-bin note reads these bins in place of bins.txt
    cfg = _cfg(tmp_path / "run")
    step_gen_corpus(cfg)
    step_train_model(cfg)
    path, fitted = step_calibrate(cfg)
    assert path == os.path.join(cfg.out_dir, "bins.txt")
    assert fitted == load_pipeline_bins(cfg)
    _, result = step_compare(cfg)
    assert result.bins == fitted


def test_compare_holds_the_bins_it_decoded_with(lab, tmp_path):
    # bins.txt is read, not refitted: a file edited after calibrate is
    # what the comparison holds
    out = tmp_path / "run"
    shutil.copytree(lab.out_dir, out)
    cfg = dataclasses.replace(lab, out_dir=str(out))
    bins = load_pipeline_bins(cfg)
    coarser = dataclasses.replace(bins, thresholds=bins.thresholds[:1],
                                  means=bins.means[:2], counts=bins.counts[:2])
    save_bins(coarser, os.path.join(cfg.out_dir, "bins.txt"))
    _, result = step_compare(cfg)
    assert result.bins == coarser != bins


def test_external_corpus_passthrough(tmp_path):
    source = tmp_path / "docs.txt"
    source.write_text("a b c a b c a b\nb c a b c a b c\n" * 8, encoding="utf-8")
    cfg = _cfg(tmp_path / "run", corpus={"path": str(source)},
               prompts={"count": 1, "calibration_count": 2, "prompt_tokens": 3})
    out = step_gen_corpus(cfg)
    assert read_corpus(out) == read_corpus(str(source))
    assert not os.path.exists(os.path.join(cfg.out_dir, "template.txt"))


def test_planted_corpus_requires_word_tokens(tmp_path):
    # refused when the config is built, so no step writes
    with pytest.raises(ConfigError, match="word"):
        _cfg(tmp_path / "run", tokenization="char")


def test_missing_prerequisites_fail_with_hints(tmp_path):
    cfg = _cfg(tmp_path / "fresh")
    with pytest.raises(ConfigError, match="gen-corpus first"):
        step_train_model(cfg)
    with pytest.raises(ConfigError, match="train-model first"):
        load_models(cfg)
    step_gen_corpus(cfg)
    # a model file of the old text format is not read: train-model rewrites it
    pathlib.Path(cfg.out_dir, "model.txt").write_text("heterospec-ngram v1\n")
    with pytest.raises(ConfigError, match="model not found, run train-model first"):
        load_models(cfg)
    step_train_model(cfg)
    with pytest.raises(ConfigError, match="calibrate first"):
        step_compare(cfg)


def test_report_requires_trace(tmp_path):
    cfg = _cfg(tmp_path / "fresh")
    os.makedirs(cfg.out_dir, exist_ok=True)
    with pytest.raises(ConfigError, match="adaptive-iterations.csv: iteration "
                       "trace not found, run compare first$"):
        step_report(cfg, "adaptive")
    with pytest.raises(ConfigError, match="arm must be one of"):
        step_report(cfg, "greedy")
    trace = os.path.join(cfg.out_dir, "adaptive-iterations.csv")
    with open(trace, "w", encoding="utf-8") as fh:
        fh.write("# heterospec-iterations v1\n"
                 "prompt,iteration,entropy,bin,draft_depth,top_n,tree_size,"
                 "accepted_len,emitted,tcr\n")
    with pytest.raises(ConfigError, match="empty"):
        step_report(cfg, "adaptive")


def test_render_report_empty_dir(tmp_path):
    cfg = _cfg(tmp_path / "nothing")
    assert "no artifacts found" in render_report(cfg)
