"""End-to-end experiment steps shared by the CLI and the scripts.

Every step reads and writes plain-text artifacts under the config's
out_dir, so each stage can be rerun or inspected on its own:

    corpus.txt    one document per line
    template.txt  planted template symbols (planted corpora only)
    model.txt     trained target model
    bins.txt      calibrated entropy bins
    config.json   snapshot of the resolved configuration
    *.csv         per-iteration traces and per-arm summaries

All artifacts are deterministic functions of (config, seed): rerunning a
step reproduces its outputs byte for byte.
"""

from __future__ import annotations

import os

from .binning import (BinningModel, check_calibration_diversity,
                      collect_calibration, fit_binning, load_bins, save_bins)
from .config import ExperimentConfig, rng_for, save_config
from .control import (ComparisonResult, decode_adaptive, decode_baseline,
                      run_arm, run_comparison)
from .corpus import gen_corpus, prompts_from, split_docs
from .errors import ConfigError
from .metrics import (read_iterations_csv, write_bin_occupancy_csv,
                      write_iterations_csv, write_summary_csv,
                      write_tcr_by_accepted_csv, write_tcr_histogram_csv)
from .models import (NGramModel, PerturbedDraftModel, load_model, save_model,
                     train_ngram)
from .vocab import build_vocab, encode_corpus, read_corpus, write_corpus

CORPUS_FILE = "corpus.txt"
TEMPLATE_FILE = "template.txt"
MODEL_FILE = "model.txt"
DRAFT_MODEL_FILE = "draft-model.txt"
BINS_FILE = "bins.txt"
CONFIG_FILE = "config.json"
CALIBRATION_CSV = "calibration.csv"
COMPARE_CSV = "compare.csv"


def _path(config: ExperimentConfig, name: str) -> str:
    return os.path.join(config.out_dir, name)


def _prepare_out_dir(config: ExperimentConfig) -> None:
    os.makedirs(config.out_dir, exist_ok=True)
    save_config(config, _path(config, CONFIG_FILE))


def step_gen_corpus(config: ExperimentConfig) -> str:
    """Materialize the corpus into out_dir; returns the corpus path."""
    _prepare_out_dir(config)
    out = _path(config, CORPUS_FILE)
    if config.corpus_path is not None:
        docs = read_corpus(config.corpus_path)
        write_corpus(out, docs)
        return out
    if config.tokenization != "word":
        raise ConfigError("planted corpora are word-tokenized; set "
                          "tokenization to 'word'")
    docs, templates = gen_corpus(config.planted, rng_for(config.seed, "corpus"))
    write_corpus(out, [" ".join(doc) for doc in docs])
    with open(_path(config, TEMPLATE_FILE), "w", encoding="utf-8") as fh:
        for template in templates:
            fh.write(" ".join(template) + "\n")
    return out


def _read_docs(config: ExperimentConfig) -> list[str]:
    path = _path(config, CORPUS_FILE)
    if not os.path.exists(path):
        raise ConfigError(f"{path}: corpus not found, run gen-corpus first")
    return read_corpus(path)


def _splits(config: ExperimentConfig, docs: list[str]) -> tuple[list, list, list]:
    return split_docs(docs, config.prompts.calibration_count,
                      config.prompts.count)


def step_train_model(config: ExperimentConfig) -> str:
    """Train the target model (and the separate draft base when
    draft.order is set) on the training split; returns the target path."""
    _prepare_out_dir(config)
    docs = _read_docs(config)
    train, _, _ = _splits(config, docs)
    vocab = build_vocab(train, mode=config.tokenization)
    model = train_ngram(train, vocab, order=config.model.order,
                        smoothing=config.model.smoothing)
    out = _path(config, MODEL_FILE)
    save_model(model, out)
    if config.draft.order is not None:
        draft_base = train_ngram(train, vocab, order=config.draft.order,
                                 smoothing=config.model.smoothing)
        save_model(draft_base, _path(config, DRAFT_MODEL_FILE))
    return out


def load_models(config: ExperimentConfig) -> tuple[NGramModel, PerturbedDraftModel]:
    path = _path(config, MODEL_FILE)
    if not os.path.exists(path):
        raise ConfigError(f"{path}: model not found, run train-model first")
    target = load_model(path)
    if config.draft.order is None:
        base = target
    else:
        draft_path = _path(config, DRAFT_MODEL_FILE)
        if not os.path.exists(draft_path):
            raise ConfigError(f"{draft_path}: draft model not found, "
                              "run train-model first")
        base = load_model(draft_path)
    draft = PerturbedDraftModel(base, temperature=config.draft.temperature,
                                noise=config.draft.noise)
    return target, draft


def _prompt_split(config: ExperimentConfig, target: NGramModel,
                  which: str) -> list[tuple[int, ...]]:
    docs = _read_docs(config)
    _, cal_docs, eval_docs = _splits(config, docs)
    chosen = cal_docs if which == "calibration" else eval_docs
    encoded = encode_corpus(chosen, target.vocab)
    return prompts_from(encoded, config.prompts.prompt_tokens)


def step_calibrate(config: ExperimentConfig) -> str:
    """Run the static baseline on calibration prompts, fit entropy bins,
    write bins.txt plus the calibration trace; returns the bins path."""
    _prepare_out_dir(config)
    target, draft = load_models(config)
    prompts = _prompt_split(config, target, "calibration")
    arm = run_arm("calibration", decode_baseline, target, draft, prompts,
                  config.controller, cost_model=None)
    write_iterations_csv(_path(config, CALIBRATION_CSV), arm.records)
    resolved = config.controller.resolved()
    samples = collect_calibration(arm.records, base_depth=resolved.depth,
                                  filter=config.calibration.filter)
    check_calibration_diversity(samples, filter=config.calibration.filter)
    bins = fit_binning(samples, max_depth=config.calibration.max_depth,
                       criterion=config.calibration.criterion,
                       entropy_k=resolved.entropy_k,
                       base_depth=resolved.depth)
    out = _path(config, BINS_FILE)
    save_bins(bins, out)
    return out


def load_pipeline_bins(config: ExperimentConfig) -> BinningModel:
    path = _path(config, BINS_FILE)
    if not os.path.exists(path):
        raise ConfigError(f"{path}: bins not found, run calibrate first")
    return load_bins(path)


def step_run(config: ExperimentConfig, mode: str) -> tuple[str, str]:
    """Decode the eval prompts with one arm; returns (iterations, summary)
    CSV paths. mode is 'baseline' or 'adaptive'."""
    if mode not in ("baseline", "adaptive"):
        raise ConfigError(f"mode must be baseline or adaptive, got {mode!r}")
    _prepare_out_dir(config)
    target, draft = load_models(config)
    bins = load_pipeline_bins(config)
    prompts = _prompt_split(config, target, "eval")
    decode = decode_baseline if mode == "baseline" else decode_adaptive
    arm = run_arm(mode, decode, target, draft, prompts, config.controller,
                  config.cost, bins=bins)
    iter_path = _path(config, f"{mode}-iterations.csv")
    summary_path = _path(config, f"{mode}-summary.csv")
    write_iterations_csv(iter_path, arm.records)
    write_summary_csv(summary_path, [(arm.name, arm.alpha, arm.summary)])
    return iter_path, summary_path


def step_compare(config: ExperimentConfig,
                 alphas: list[int] | None = None) -> tuple[str, ComparisonResult]:
    """Run baseline and adaptive arms on the eval prompts; returns the
    compare CSV path and the in-memory result."""
    _prepare_out_dir(config)
    target, draft = load_models(config)
    bins = load_pipeline_bins(config)
    prompts = _prompt_split(config, target, "eval")
    result = run_comparison(target, draft, prompts, config.controller, bins,
                            cost_model=config.cost, alphas=alphas)
    write_iterations_csv(_path(config, "baseline-iterations.csv"),
                         result.baseline.records)
    for arm in result.adaptive:
        suffix = f"-a{arm.alpha}" if len(result.adaptive) > 1 else ""
        write_iterations_csv(_path(config, f"adaptive{suffix}-iterations.csv"),
                             arm.records)
    out = _path(config, COMPARE_CSV)
    write_summary_csv(out, result.rows())
    return out, result


REPORT_ARMS = ("baseline", "adaptive")


def step_report(config: ExperimentConfig, arm: str = "baseline") -> list[str]:
    """Derive the plot-ready tables from one arm's iteration trace:
    rank histogram, mean accepted length by rank, and entropy-bin
    occupancy. Returns the written CSV paths."""
    if arm not in REPORT_ARMS:
        raise ConfigError(f"arm must be one of {REPORT_ARMS}, got {arm!r}")
    trace = _path(config, f"{arm}-iterations.csv")
    if not os.path.exists(trace):
        raise ConfigError(f"{trace}: iteration trace not found, "
                          f"run 'run --mode {arm}' or compare first")
    records = read_iterations_csv(trace)
    if not records:
        raise ConfigError(f"{trace}: iteration trace is empty")
    edges = None
    bins_path = _path(config, BINS_FILE)
    if os.path.exists(bins_path):
        edges = load_bins(bins_path).edges()
    paths = [_path(config, f"{arm}-tcr-histogram.csv"),
             _path(config, f"{arm}-tcr-by-accepted.csv"),
             _path(config, f"{arm}-bin-occupancy.csv")]
    write_tcr_histogram_csv(paths[0], records)
    write_tcr_by_accepted_csv(paths[1], records)
    write_bin_occupancy_csv(paths[2], records, edges)
    return paths


def render_report(config: ExperimentConfig) -> str:
    """Human-readable digest of whatever artifacts exist in out_dir."""
    from .metrics import read_summary_csv

    lines = [f"out_dir: {config.out_dir}"]
    bins_path = _path(config, BINS_FILE)
    if os.path.exists(bins_path):
        bins = load_bins(bins_path)
        lines.append(f"bins: {bins.num_bins} "
                     f"(low bins by default: {list(bins.default_low_bins())})")
        for (lo, hi), mean, count in zip(bins.edges(), bins.means, bins.counts):
            lines.append(f"  [{lo:.4f}, {hi:.4f})  "
                         f"mean rank {mean:.3f}  n={count}")
    found = False
    for name in (COMPARE_CSV, "baseline-summary.csv", "adaptive-summary.csv"):
        path = _path(config, name)
        if not os.path.exists(path):
            continue
        found = True
        lines.append(f"{name}:")
        rows = read_summary_csv(path)
        header = ("arm", "alpha", "calls", "tokens", "emitted", "tau", "speedup")
        lines.append("  " + "  ".join(f"{h:>8}" for h in header))
        for row in rows:
            tau = f"{float(row['tau']):.4f}"
            speedup = row["speedup"]
            if speedup != "-":
                speedup = f"{float(speedup):.4f}"
            lines.append("  " + "  ".join(
                f"{v:>8}" for v in (row["arm"], row["alpha"], row["calls"],
                                    row["tokens"], row["emitted"], tau, speedup)))
    if not found and not os.path.exists(bins_path):
        lines.append("no artifacts found; run the pipeline first")
    return "\n".join(lines) + "\n"
