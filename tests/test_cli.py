"""CLI surface: subcommand wiring, overrides, stdout contracts, and the
one-exit-code-per-failure-class policy."""
from __future__ import annotations

import fnmatch
import json
import os
import re
import shutil

import pytest

from conftest import BAD_MODEL_FILES, TINY_CONFIG
from heterospec import pipeline
from heterospec.binning import load_bins
from heterospec.cli import main
from heterospec.config import load_config
from heterospec.errors import OutputMismatchError
from heterospec.pipeline import REPORT_ARMS

STDERR_RE = re.compile(
    r"^heterospec: (config|calibration|bins-format|verify-mismatch|io): .+\n$")


@pytest.fixture(scope="module")
def cli_lab(tmp_path_factory):
    """gen-corpus + train-model + calibrate, driven through main()."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    out = str(root / "run")
    base = ["--config", str(cfg_path), "--out", out]
    for command in ("gen-corpus", "train-model", "calibrate"):
        assert main([command, *base]) == 0
    return base, out


def _one_error_line(captured) -> str:
    assert captured.out == ""
    assert STDERR_RE.match(captured.err), captured.err
    return captured.err


def test_gen_corpus_prints_corpus_path(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    out = str(tmp_path / "run")
    assert main(["gen-corpus", "--config", str(cfg), "--out", out]) == 0
    assert capsys.readouterr().out == os.path.join(out, "corpus.txt") + "\n"


def test_seed_and_out_overrides_are_snapshotted(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    out = str(tmp_path / "elsewhere")
    assert main(["gen-corpus", "--config", str(cfg), "--seed", "5",
                 "--out", out]) == 0
    capsys.readouterr()
    snap = load_config(os.path.join(out, "config.json"))
    assert snap.seed == 5
    assert snap.out_dir == out


def test_compare_output(cli_lab, capsys):
    base, out = cli_lab
    assert main(["compare", *base]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == os.path.join(out, "compare.csv")
    arm_re = re.compile(r"^(baseline|adaptive) alpha=(-|\d+) calls=\d+ "
                        r"tokens=\d+ tau=\d+\.\d{4} speedup=\d+\.\d{4}$")
    assert len(lines) == 3
    assert all(arm_re.match(line) for line in lines[1:])
    assert lines[1].startswith("baseline alpha=- ")
    assert lines[2].startswith("adaptive alpha=2 ")  # resolved from depth 4
    traces = sorted(name for name in os.listdir(out)
                    if name.endswith("-iterations.csv"))
    assert traces == ["adaptive-iterations.csv", "baseline-iterations.csv"]


def test_report_writes_tables_then_digest(cli_lab, capsys):
    base, out = cli_lab
    assert main(["compare", *base]) == 0
    capsys.readouterr()
    assert main(["report", *base, "--arm", "baseline"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == os.path.join(out, "baseline-tcr-histogram.csv")
    assert lines[1] == os.path.join(out, "baseline-tcr-by-accepted.csv")
    assert lines[2] == os.path.join(out, "baseline-bin-occupancy.csv")
    assert lines[3].startswith("out_dir:")


def test_calibrate_rerun_is_stable(cli_lab, capsys):
    base, out = cli_lab
    bins = os.path.join(out, "bins.txt")
    before = open(bins, "rb").read()
    assert main(["calibrate", *base]) == 0
    capsys.readouterr()
    assert open(bins, "rb").read() == before


# -------------------------------------------------------------- failures


def test_exit_2_on_missing_prerequisite(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    rc = main(["calibrate", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert rc == 2
    err = _one_error_line(capsys.readouterr())
    assert err.startswith("heterospec: config:")
    assert "train-model first" in err


def test_exit_2_on_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text('{"sneed": 1}', encoding="utf-8")
    assert main(["gen-corpus", "--config", str(cfg)]) == 2
    err = _one_error_line(capsys.readouterr())
    assert "unknown keys" in err


def test_exit_2_on_draft_order_outside_model_order(tmp_path, capsys):
    for order in (0, 4):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(dict(TINY_CONFIG, draft={"order": order})),
                       encoding="utf-8")
        assert main(["train-model", "--config", str(cfg)]) == 2
        err = _one_error_line(capsys.readouterr())
        assert "draft.order must be in [1, model.order = 3]" in err


KEY_SPACE_RE = re.compile(r"model\.order 15 is too high for a vocabulary of "
                          r"(\d+) symbols: count keys need \1\^15 < 2\^63\n$")


def test_exit_2_on_model_order_past_the_count_keys(tmp_path, capsys):
    # TINY_CONFIG's vocabulary has about 19 symbols: 19^15 >= 2^63 > 19^14
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    base = ["--config", str(cfg), "--out", str(tmp_path / "run")]
    assert main(["gen-corpus", *base]) == 0
    assert main(["train-model", *base]) == 0
    capsys.readouterr()
    high = tmp_path / "high.json"
    high.write_text(json.dumps(dict(TINY_CONFIG, model={"order": 15})),
                    encoding="utf-8")
    assert main(["train-model", "--config", str(high), "--out",
                 str(tmp_path / "run")]) == 2
    err = _one_error_line(capsys.readouterr())
    v = int(KEY_SPACE_RE.search(err).group(1))
    assert v ** 14 < 2 ** 63 <= v ** 15
    # a model file whose header asks for the same order
    path = tmp_path / "run" / "model.bin"
    path.write_bytes(path.read_bytes().replace(b'"order": 3,', b'"order": 15,', 1))
    assert main(["calibrate", *base]) == 2
    err = _one_error_line(capsys.readouterr())
    assert err.startswith(f"heterospec: config: {path}: bad header: ")
    assert KEY_SPACE_RE.search(err).group(1) == str(v)


@pytest.mark.parametrize("name", BAD_MODEL_FILES)
def test_exit_2_on_a_model_file_save_model_does_not_write(tmp_path, capsys, name):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    base = ["--config", str(cfg), "--out", str(tmp_path / "run")]
    assert main(["gen-corpus", *base]) == 0
    assert main(["train-model", *base]) == 0
    capsys.readouterr()
    data, error = BAD_MODEL_FILES[name]
    path = tmp_path / "run" / "model.bin"
    path.write_bytes(data)
    for command in ("calibrate", "compare"):
        assert main([command, *base]) == 2
        err = _one_error_line(capsys.readouterr())
        assert err.startswith(f"heterospec: config: {path}: ") and error in err


@pytest.mark.parametrize("section,field,value", [
    ("controller", "depth", 2.5), ("controller", "top_n", 7.5),
    ("controller", "max_new_tokens", 2.5), ("prompts", "count", 2.5),
    ("model", "order", 2.5), ("controller", "terminator", "x"),
    ("controller", "low_bins", "01"),
], ids=["depth", "top_n", "max_new_tokens", "count", "order", "terminator",
        "low_bins"])
def test_exit_2_on_non_integer_setting(tmp_path, capsys, section, field, value):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(dict(
        TINY_CONFIG, **{section: dict(TINY_CONFIG[section], **{field: value})})),
        encoding="utf-8")
    want = (f"controller.low_bins must be a list of non-negative integers, "
            f"got {value!r}"
            if field == "low_bins" else
            f"{cfg}.{section}.{field}: expected an integer, got {value!r}")
    out = str(tmp_path / "run")
    for command in ("train-model", "calibrate", "compare"):
        assert main([command, "--config", str(cfg), "--out", out]) == 2
        assert _one_error_line(capsys.readouterr()) == \
            f"heterospec: config: {want}\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("command,data,want", [
    ("train-model", {"model": {"smoothing": "x"}},
     ".model.smoothing: expected a number, got 'x'"),
    ("gen-corpus", {"out_dir": 5}, ".out_dir: expected a string, got 5"),
    ("compare", {"cost": {"c_tok": True}}, ".cost.c_tok: expected a number, got True"),
    ("gen-corpus", {"corpus": {"path": 5}}, ".corpus.path: expected a string, got 5"),
], ids=["smoothing", "out_dir", "c_tok", "corpus_path"])
def test_exit_2_on_non_number_or_non_string_setting(tmp_path, capsys, command,
                                                    data, want):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(dict(TINY_CONFIG, **data)), encoding="utf-8")
    out = str(tmp_path / "run")
    assert main([command, "--config", str(cfg), "--out", out]) == 2
    assert _one_error_line(capsys.readouterr()) == \
        f"heterospec: config: {cfg}{want}\n"
    assert not os.path.exists(out)


def test_exit_2_on_empty_corpus_path(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(dict(TINY_CONFIG, corpus={"path": ""})),
                   encoding="utf-8")
    out = str(tmp_path / "run")
    assert main(["gen-corpus", "--config", str(cfg), "--out", out]) == 2
    assert _one_error_line(capsys.readouterr()) == \
        "heterospec: config: corpus.path must name a file, got ''\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("section,key,value", [
    ("model", "order", 0), ("model", "smoothing", 0), ("draft", "noise", 1.5),
    ("prompts", "count", 0), ("prompts", "prompt_tokens", 0),
], ids=["order", "smoothing", "noise", "count", "prompt_tokens"])
def test_gen_corpus_exits_2_on_out_of_range_setting(tmp_path, capsys, section,
                                                    key, value):
    # refused before any step writes, not steps later at train-model or
    # calibrate over a config.json snapshot that holds the bad value
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(dict(
        TINY_CONFIG, **{section: dict(TINY_CONFIG[section], **{key: value})})),
        encoding="utf-8")
    out = str(tmp_path / "run")
    assert main(["gen-corpus", "--config", str(cfg), "--out", out]) == 2
    assert _one_error_line(capsys.readouterr()).startswith(
        f"heterospec: config: {section}.{key} must be ")
    assert not os.path.exists(out)


def test_exit_2_on_smoothing_too_large_for_a_float(tmp_path, capsys):
    # a JSON integer above the float range passes 0 < smoothing < inf as
    # an int; train-model used to exit 0 and calibrate to end in an
    # OverflowError traceback at the first distribution
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(dict(TINY_CONFIG, model={"smoothing": 10 ** 400})),
                   encoding="utf-8")
    out = str(tmp_path / "run")
    for command in ("train-model", "calibrate"):
        assert main([command, "--config", str(cfg), "--out", out]) == 2
        assert _one_error_line(capsys.readouterr()) == (
            f"heterospec: config: model.smoothing must be finite and > 0, "
            f"got {10 ** 400}\n")
    assert not os.path.exists(out)


@pytest.mark.parametrize("cost,want", [
    ({"c_call": 0, "c_tok": 0, "c_draft": 0},
     "cost.c_call must be finite and > 0, got 0"),
    ({"c_call": -1}, "cost.c_call must be finite and > 0, got -1"),
    ({"c_tok": -0.05}, "cost.c_tok must be finite and >= 0, got -0.05"),
], ids=["all-zero", "negative-call", "negative-tok"])
def test_exit_2_on_unpriced_or_negative_costs(tmp_path, capsys, cost, want):
    # all-zero costs used to divide by zero in summarize, a negative c_call
    # to print a negative speedup with exit 0
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(dict(TINY_CONFIG, cost=cost)), encoding="utf-8")
    out = str(tmp_path / "run")
    assert main(["compare", "--config", str(cfg), "--out", out]) == 2
    assert _one_error_line(capsys.readouterr()) == f"heterospec: config: {want}\n"
    assert not os.path.exists(out)


def test_exit_2_on_negative_seed(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["gen-corpus", "--seed", "-1", "--out", out]) == 2
    assert _one_error_line(capsys.readouterr()) == \
        "heterospec: config: seed must be non-negative, got -1\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("which,command,code", [
    ("config", "gen-corpus", 2), ("corpus.path", "gen-corpus", 2),
    ("bins.txt", "compare", 4), ("baseline-iterations.csv", "report", 2),
], ids=["config", "corpus-path", "bins", "trace"])
def test_non_utf8_input_fails_with_one_line(tmp_path, capsys, which, command,
                                            code):
    out = str(tmp_path / "run")
    docs = tmp_path / "docs.txt"
    docs.write_bytes(b"a b c a b c\nb c \xff a b\n")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    base = ["--config", str(cfg), "--out", out]
    if which == "bins.txt":
        for step in ("gen-corpus", "train-model", "calibrate"):
            assert main([step, *base]) == 0
    elif which == "baseline-iterations.csv":
        os.makedirs(out)
        with open(os.path.join(out, which), "w", encoding="utf-8") as fh:
            fh.write(ITERATIONS_HEADER)
    bad = {"config": str(cfg), "corpus.path": str(docs)}.get(
        which, os.path.join(out, which))
    if which == "config":
        cfg.write_bytes(b'{"out_dir": "r\xff"}')
    elif which == "corpus.path":
        cfg.write_text(json.dumps(dict(TINY_CONFIG, corpus={"path": bad})),
                       encoding="utf-8")
    else:
        with open(bad, "ab") as fh:
            fh.write(b"\xff\n")
    capsys.readouterr()
    assert main([command, *base]) == code
    kind = "bins-format" if code == 4 else "config"
    assert _one_error_line(capsys.readouterr()) == \
        f"heterospec: {kind}: {bad}: not UTF-8 text\n"


ITERATIONS_HEADER = ("# heterospec-iterations v1\nprompt,iteration,entropy,bin,"
                     "draft_depth,top_n,tree_size,accepted_len,emitted,tcr\n")


@pytest.mark.parametrize("name,text,where", [
    ("baseline-iterations.csv", "# heterospec-iterations v9\nprompt\n",
     "baseline-iterations.csv:1: unexpected schema"),
    ("baseline-iterations.csv",
     ITERATIONS_HEADER + "0,0,0.5,-1,5,20,18,3,4,3\n0,1,x,-1,5,20,18,3,4,3\n",
     "baseline-iterations.csv:4: bad row"),
    ("compare.csv", "# heterospec-summary v1\narm,alpha,prompts,calls,tokens,"
     "emitted,tau,mean_accepted_len,speedup,tcr_p25,tcr_p50,tcr_p75,tcr_p95,"
     "sentinels\nbaseline,-,1,2,3,4,oops,1.5,-,-,-,-,-,0\n",
     "compare.csv:3: bad row"),
    # a header row other than the written one, even one naming the same
    # columns, fails before any row is parsed
    ("baseline-iterations.csv", ITERATIONS_HEADER.replace("tcr\n", "tcr,extra\n")
     + "0,0,0.5,-1,5,20,18,3,4,3,1\n", "baseline-iterations.csv:2: unexpected"
     " header row"),
    ("baseline-iterations.csv", ITERATIONS_HEADER.replace("prompt,iteration",
                                                           "iteration,prompt")
     + "0,0,0.5,-1,5,20,18,3,4,3\n", "baseline-iterations.csv:2: unexpected"
     " header row"),
    ("compare.csv", "# heterospec-summary v1\n",
     "compare.csv:2: unexpected header row None"),
    # cells are never quoted, so a quoted cell is refused at its line
    ("baseline-iterations.csv",
     ITERATIONS_HEADER + '0,0,0.5,-1,5,20,18,3,4,3\n0,"1",0.5,-1,5,20,18,3,4,3\n',
     "baseline-iterations.csv:4: bad row"),
    ("compare.csv", "# heterospec-summary v1\narm,alpha,prompts,calls,tokens,"
     "emitted,tau,mean_accepted_len,speedup,tcr_p25,tcr_p50,tcr_p75,tcr_p95,"
     'sentinels\n"baseline",-,1,2,3,4,2,1.5,-,-,-,-,-,0\n',
     "compare.csv:3: bad row"),
], ids=["trace-schema", "trace-entropy", "compare-tau", "trace-extra-column",
        "trace-reordered-header", "compare-no-header", "trace-quoted-cell",
        "compare-quoted-arm"])
def test_exit_2_on_malformed_csv(tmp_path, capsys, name, text, where):
    out = tmp_path / "run"
    out.mkdir()
    if name == "compare.csv":  # the digest reads it before the tables are written
        (out / "baseline-iterations.csv").write_text(
            ITERATIONS_HEADER + "0,0,0.5,-1,5,20,18,3,4,3\n", encoding="utf-8")
    (out / name).write_text(text, encoding="utf-8")
    assert main(["report", "--out", str(out)]) == 2
    err = _one_error_line(capsys.readouterr())
    assert err.startswith("heterospec: config:")
    assert where in err


def test_malformed_compare_csv_writes_no_table(tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    (out / "baseline-iterations.csv").write_text(
        ITERATIONS_HEADER + "0,0,0.5,-1,5,20,18,3,4,3\n", encoding="utf-8")
    (out / "compare.csv").write_text("# heterospec-summary v1\n", encoding="utf-8")
    assert main(["report", "--out", str(out)]) == 2
    _one_error_line(capsys.readouterr())
    assert sorted(os.listdir(out)) == ["baseline-iterations.csv", "compare.csv"]


@pytest.mark.parametrize("controller", [{"depth": 7}, {"top_k": 3}],
                         ids=["depth", "top_k"])
def test_exit_2_on_bins_for_another_tree_shape(tmp_path, capsys, controller):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    out = str(tmp_path / "run")
    for command in ("gen-corpus", "train-model", "calibrate"):
        assert main([command, "--config", str(cfg), "--out", out]) == 0
    other = tmp_path / "other.json"
    other.write_text(json.dumps(dict(
        TINY_CONFIG, controller=dict(TINY_CONFIG["controller"], **controller))),
        encoding="utf-8")
    capsys.readouterr()
    assert main(["compare", "--config", str(other), "--out", out]) == 2
    err = _one_error_line(capsys.readouterr())
    assert err.startswith("heterospec: config: " + os.path.join(out, "bins.txt"))
    assert "entropy_k 2, base_depth 4" in err
    assert "run calibrate again" in err
    # a hand-written bins file without the tree-shape keys still loads
    bins = os.path.join(out, "bins.txt")
    lines = open(bins, encoding="utf-8").read().splitlines()
    with open(bins, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines
                         if not line.startswith(("entropy_k:", "base_depth:"))))
    assert main(["compare", "--config", str(other), "--out", out]) == 0


def test_refused_step_leaves_config_snapshot_alone(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    out = str(tmp_path / "run")
    for command in ("gen-corpus", "train-model", "calibrate"):
        assert main([command, "--config", str(cfg), "--out", out]) == 0
    snapshot = os.path.join(out, "config.json")
    before = open(snapshot, "rb").read()
    other = tmp_path / "other.json"
    other.write_text(json.dumps(dict(
        TINY_CONFIG, controller=dict(TINY_CONFIG["controller"], depth=7))),
        encoding="utf-8")
    bad_draft = tmp_path / "bad-draft.json"
    bad_draft.write_text(json.dumps(dict(
        TINY_CONFIG, model={"order": 4}, draft={"order": 4})),
        encoding="utf-8")
    # a calibration the fit refuses: 18 fully accepted samples, 3 distinct
    # entropies
    refused = tmp_path / "refused.json"
    refused.write_text(json.dumps(dict(
        TINY_CONFIG, calibration={"filter": "fully-accepted"},
        prompts=dict(TINY_CONFIG["prompts"], calibration_count=2))),
        encoding="utf-8")
    artifacts = ("config.json", "calibration.csv", "bins.txt")
    kept = {name: open(os.path.join(out, name), "rb").read()
            for name in artifacts}
    capsys.readouterr()
    for command, config, code in ((["compare"], other, 2),
                                  (["compare"], bad_draft, 2),
                                  (["calibrate"], bad_draft, 2),
                                  (["calibrate"], refused, 3)):
        assert main([*command, "--config", str(config), "--out", out]) == code
        _one_error_line(capsys.readouterr())
        assert open(snapshot, "rb").read() == before
    for name in artifacts:
        assert open(os.path.join(out, name), "rb").read() == kept[name], name


def test_exit_5_on_records_that_break_accounting(cli_lab, capsys, monkeypatch):
    import heterospec.control as control

    real = control.decode_baseline

    def dropped_record(*args, **kwargs):
        result = real(*args, **kwargs)
        result.records.pop()
        return result

    monkeypatch.setattr(control, "decode_baseline", dropped_record)
    base, _ = cli_lab
    assert main(["compare", *base]) == 5
    err = _one_error_line(capsys.readouterr())
    assert err.startswith("heterospec: verify-mismatch: baseline arm, prompt 0: "
                          "total emitted")


def test_exit_3_on_degenerate_calibration(tmp_path, capsys):
    # identical periodic docs: every calibration iteration sees the same
    # handful of entropy values, far below the diversity floor
    docs = tmp_path / "docs.txt"
    docs.write_text(("a b " * 16).strip() + "\n", encoding="utf-8")
    with open(docs, "a", encoding="utf-8") as fh:
        for _ in range(11):
            fh.write(("a b " * 16).strip() + "\n")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "corpus": {"path": str(docs)},
        "controller": {"depth": 2, "top_k": 2, "top_n": 4, "max_new_tokens": 8},
        "prompts": {"count": 2, "calibration_count": 2, "prompt_tokens": 2},
        "calibration": {"filter": "all"},
    }), encoding="utf-8")
    out = str(tmp_path / "run")
    base = ["--config", str(cfg), "--out", out]
    assert main(["gen-corpus", *base]) == 0
    assert main(["train-model", *base]) == 0
    capsys.readouterr()
    assert main(["calibrate", *base]) == 3
    err = _one_error_line(capsys.readouterr())
    assert err.startswith("heterospec: calibration:")
    assert "distinct entropy values" in err


def test_one_bin_fit_is_noted_not_failed(tmp_path, capsys, cli_lab):
    # every fully accepted sample of this narrow tree has the same rank, so
    # no split exists and the fit holds one bin
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(dict(
        TINY_CONFIG, calibration={"filter": "fully-accepted"},
        controller=dict(TINY_CONFIG["controller"], top_n=4))), encoding="utf-8")
    base = ["--config", str(cfg), "--out", str(tmp_path / "run")]
    for command in ("gen-corpus", "train-model"):
        assert main([command, *base]) == 0
    note = ("heterospec: note: no low bin is among bins 0..0, so the adaptive "
            "arm equals the baseline\n")
    for command in ("calibrate", "compare"):
        capsys.readouterr()
        assert main([command, *base]) == 0
        captured = capsys.readouterr()
        assert captured.err == note
    baseline_calls, adaptive_calls = re.findall(r" calls=(\d+) ", captured.out)
    assert baseline_calls == adaptive_calls
    # bins of several bins: nothing is noted
    assert main(["compare", *cli_lab[0]]) == 0
    assert capsys.readouterr().err == ""


def test_low_bins_outside_the_fit_are_noted(tmp_path, capsys, cli_lab):
    out = tmp_path / "run"
    shutil.copytree(cli_lab[1], out)
    assert load_bins(str(out / "bins.txt")).num_bins == 4
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(dict(
        TINY_CONFIG, controller=dict(TINY_CONFIG["controller"], low_bins=[7]))),
        encoding="utf-8")
    capsys.readouterr()
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ("heterospec: note: no low bin is among bins 0..3, so "
                            "the adaptive arm equals the baseline\n")
    baseline_calls, adaptive_calls = re.findall(r" calls=(\d+) ", captured.out)
    assert baseline_calls == adaptive_calls


@pytest.mark.parametrize("command,parses",
                         [("calibrate", 0), ("compare", 1), ("report", 1)])
def test_bins_are_parsed_at_most_once_per_command(cli_lab, capsys, monkeypatch,
                                                  command, parses):
    # the low-bin note reads the bins the step already holds, and report's
    # digest and tables share one parse
    if command == "report":
        assert main(["compare", *cli_lab[0]]) == 0  # the trace report reads
    parsed, load = [], pipeline.load_bins

    def counted(path):
        parsed.append(path)
        return load(path)

    monkeypatch.setattr(pipeline, "load_bins", counted)
    assert main([command, *cli_lab[0]]) == 0
    assert len(parsed) == parses


def test_report_arm_choices_are_the_pipeline_arms(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["report", "--arm", "uniform"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    choices = err[err.index("(choose from "):].rstrip()
    assert choices == "(choose from " + ", ".join(map(repr, REPORT_ARMS)) + ")"


def test_exit_4_on_corrupt_bins(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    out = str(tmp_path / "run")
    base = ["--config", str(cfg), "--out", out]
    for command in ("gen-corpus", "train-model", "calibrate"):
        assert main([command, *base]) == 0
    with open(os.path.join(out, "bins.txt"), "w", encoding="utf-8") as fh:
        fh.write("not a bins file\n")
    capsys.readouterr()
    assert main(["compare", *base]) == 4
    err = _one_error_line(capsys.readouterr())
    assert err.startswith("heterospec: bins-format:")
    assert "bins.txt:1:" in err


REPORT_TABLES = ("*-tcr-*.csv", "*-bin-occupancy.csv")


def test_report_refuses_a_negative_bin_count(tmp_path, capsys, cli_lab):
    base, lab = cli_lab
    assert main(["compare", *base]) == 0
    out = tmp_path / "run"
    shutil.copytree(lab, out, ignore=shutil.ignore_patterns(*REPORT_TABLES))
    bins = out / "bins.txt"
    lines = bins.read_text(encoding="utf-8").splitlines()
    lineno = next(i for i, line in enumerate(lines, start=1)
                  if line.startswith("bin "))
    fields = lines[lineno - 1].split()
    lines[lineno - 1] = " ".join(fields[:4] + ["-4"])
    bins.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["report", base[0], base[1], "--out", str(out)]) == 4
    assert _one_error_line(capsys.readouterr()) == \
        f"heterospec: bins-format: {bins}:{lineno}: negative bin count -4\n"
    assert not [name for name in os.listdir(out) for pattern in REPORT_TABLES
                if fnmatch.fnmatch(name, pattern)]  # and writes no table


def test_exit_5_on_arm_divergence(monkeypatch, capsys):
    def boom(config):
        raise OutputMismatchError("prompt 0: adaptive arm diverged")

    monkeypatch.setattr("heterospec.cli.step_compare", boom)
    assert main(["compare"]) == 5
    err = _one_error_line(capsys.readouterr())
    assert err == "heterospec: verify-mismatch: prompt 0: adaptive arm diverged\n"


def test_exit_6_on_unreadable_config(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    assert main(["gen-corpus", "--config", missing]) == 6
    err = _one_error_line(capsys.readouterr())
    assert err.startswith("heterospec: io:")


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    # one arm decodes only as part of compare, which decodes one adaptive
    # arm; report always writes its tables
    for argv in (["run"], ["compare", "--mode", "baseline"],
                 ["compare", "--alpha-sweep", "2"], ["report", "--digest-only"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
