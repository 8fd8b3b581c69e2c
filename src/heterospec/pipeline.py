"""End-to-end experiment steps shared by the CLI and the scripts.

Every step reads and writes artifacts under the config's out_dir, so each
stage can be rerun or inspected on its own. Every artifact but model.bin
is plain text:

    corpus.txt    one document per line
    template.txt  planted template symbols (planted corpora only)
    model.bin     trained target model (the draft base is its lower orders)
    bins.txt      calibrated entropy bins
    config.json   snapshot of the resolved configuration
    *.csv         per-iteration traces, the comparison and report tables

All artifacts are deterministic functions of (config, seed): rerunning a
step reproduces its outputs byte for byte.
"""

from __future__ import annotations

import os

from .binning import (BinningModel, check_calibration_diversity,
                      collect_calibration, fit_binning, load_bins, save_bins)
from .config import ExperimentConfig, rng_for, save_config
from .control import (ComparisonResult, decode_baseline, run_arm,
                      run_comparison)
from .corpus import gen_corpus, prompts_from, split_docs
from .errors import ConfigError
from .metrics import (read_iterations_csv, read_summary_csv,
                      write_bin_occupancy_csv, write_iterations_csv,
                      write_summary_csv,
                      write_tcr_by_accepted_csv, write_tcr_histogram_csv)
from .models import (NGramModel, PerturbedDraftModel, load_model, save_model,
                     train_ngram)
from .vocab import (build_vocab, encode_corpus, read_corpus, split_corpus,
                    write_corpus)

CORPUS_FILE = "corpus.txt"
TEMPLATE_FILE = "template.txt"
MODEL_FILE = "model.bin"
BINS_FILE = "bins.txt"
CONFIG_FILE = "config.json"
CALIBRATION_CSV = "calibration.csv"
COMPARE_CSV = "compare.csv"


def _path(config: ExperimentConfig, name: str) -> str:
    return os.path.join(config.out_dir, name)


def _prepare_out_dir(config: ExperimentConfig) -> None:
    """Snapshot the config; steps call it once their inputs have loaded and
    passed every check, so a refused step leaves the last snapshot alone."""
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
    write_corpus(_path(config, TEMPLATE_FILE), [" ".join(t) for t in templates])
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
    """Train the target model on the training split; returns its path."""
    docs = _read_docs(config)
    train, _, _ = _splits(config, docs)
    _prepare_out_dir(config)
    split = split_corpus(train, config.tokenization)  # split once, used twice
    vocab = build_vocab(split, mode=config.tokenization)
    model = train_ngram(split, vocab, order=config.model.order,
                        smoothing=config.model.smoothing)
    out = _path(config, MODEL_FILE)
    save_model(model, out)
    return out


def load_models(config: ExperimentConfig) -> tuple[NGramModel, PerturbedDraftModel]:
    path = _path(config, MODEL_FILE)
    if not os.path.exists(path):
        raise ConfigError(f"{path}: model not found, run train-model first")
    target = load_model(path)
    order = config.draft.order or target.order  # None: the target itself
    if order > target.order:
        raise ConfigError(f"{path}: model order {target.order} is below "
                          f"draft.order {order}, run train-model again")
    draft = PerturbedDraftModel(target.lower_order(order), config.draft.noise)
    return target, draft


def _prompt_split(config: ExperimentConfig, target: NGramModel,
                  which: str) -> list[tuple[int, ...]]:
    docs = _read_docs(config)
    _, cal_docs, eval_docs = _splits(config, docs)
    chosen = cal_docs if which == "calibration" else eval_docs
    encoded = encode_corpus(chosen, target.vocab)
    return prompts_from(encoded, config.prompts.prompt_tokens)


def step_calibrate(config: ExperimentConfig) -> tuple[str, BinningModel]:
    """Run the static baseline on calibration prompts, fit entropy bins,
    write bins.txt plus the calibration trace; returns the bins path and
    the fitted bins. Nothing is written until the fit succeeds."""
    target, draft = load_models(config)
    prompts = _prompt_split(config, target, "calibration")
    arm = run_arm("calibration", decode_baseline, target, draft, prompts,
                  config.controller, cost_model=None)
    ctl = config.controller
    samples = collect_calibration(arm.records, base_depth=ctl.depth,
                                  filter=config.calibration.filter)
    check_calibration_diversity(samples, filter=config.calibration.filter)
    bins = fit_binning(samples, entropy_k=ctl.top_k, base_depth=ctl.depth)
    _prepare_out_dir(config)
    write_iterations_csv(_path(config, CALIBRATION_CSV), arm.records)
    out = _path(config, BINS_FILE)
    save_bins(bins, out)
    return out, bins


def load_pipeline_bins(config: ExperimentConfig) -> BinningModel:
    """The calibrated bins, checked against the controller's tree shape:
    bins fitted on another top_k or depth bin a different signal."""
    path = _path(config, BINS_FILE)
    if not os.path.exists(path):
        raise ConfigError(f"{path}: bins not found, run calibrate first")
    bins = load_bins(path)
    ctl = config.controller
    if bins.entropy_k not in (None, ctl.top_k) \
            or bins.base_depth not in (None, ctl.depth):
        raise ConfigError(
            f"{path}: bins were calibrated for entropy_k {bins.entropy_k}, "
            f"base_depth {bins.base_depth} but the controller has top_k "
            f"{ctl.top_k}, depth {ctl.depth}; run calibrate again")
    return bins


def step_compare(config: ExperimentConfig) -> tuple[str, ComparisonResult]:
    """Run the baseline and the adaptive arm at ``controller.alpha`` on the
    eval prompts, write both traces and the two-row compare CSV; returns
    the compare CSV path and the in-memory result."""
    target, draft = load_models(config)
    bins = load_pipeline_bins(config)
    prompts = _prompt_split(config, target, "eval")
    _prepare_out_dir(config)
    result = run_comparison(target, draft, prompts, config.controller, bins,
                            cost_model=config.cost)
    for arm in (result.baseline, result.adaptive):
        write_iterations_csv(_path(config, f"{arm.name}-iterations.csv"),
                             arm.records)
    out = _path(config, COMPARE_CSV)
    write_summary_csv(out, result.rows())
    return out, result


REPORT_ARMS = ("baseline", "adaptive")


def load_report_bins(config: ExperimentConfig) -> BinningModel | None:
    """The bins of bins.txt, unchecked against the controller, or None
    when there is no bins.txt."""
    path = _path(config, BINS_FILE)
    return load_bins(path) if os.path.exists(path) else None


def step_report(config: ExperimentConfig, arm: str = "baseline",
                bins: BinningModel | None = None) -> list[str]:
    """Derive the plot-ready tables from one arm's iteration trace:
    rank histogram, mean accepted length by rank, and entropy-bin
    occupancy. ``bins`` are those of ``load_report_bins``, loaded here
    when not given. Returns the written CSV paths."""
    if arm not in REPORT_ARMS:
        raise ConfigError(f"arm must be one of {REPORT_ARMS}, got {arm!r}")
    trace = _path(config, f"{arm}-iterations.csv")
    if not os.path.exists(trace):
        raise ConfigError(f"{trace}: iteration trace not found, run compare "
                          "first")
    records = read_iterations_csv(trace)
    if not records:
        raise ConfigError(f"{trace}: iteration trace is empty")
    if bins is None:
        bins = load_report_bins(config)
    edges = None if bins is None else bins.edges()
    paths = [_path(config, f"{arm}-tcr-histogram.csv"),
             _path(config, f"{arm}-tcr-by-accepted.csv"),
             _path(config, f"{arm}-bin-occupancy.csv")]
    write_tcr_histogram_csv(paths[0], records)
    write_tcr_by_accepted_csv(paths[1], records)
    write_bin_occupancy_csv(paths[2], records, edges)
    return paths


def render_report(config: ExperimentConfig,
                  bins: BinningModel | None = None) -> str:
    """Human-readable digest of whatever artifacts exist in out_dir;
    ``bins`` as for ``step_report``."""
    lines = [f"out_dir: {config.out_dir}"]
    if bins is None:
        bins = load_report_bins(config)
    if bins is not None:
        lines.append(f"bins: {bins.num_bins} "
                     f"(low bins by default: {list(bins.default_low_bins())})")
        for (lo, hi), mean, count in zip(bins.edges(), bins.means, bins.counts):
            lines.append(f"  [{lo:.4f}, {hi:.4f})  "
                         f"mean rank {mean:.3f}  n={count}")
    compare_path = _path(config, COMPARE_CSV)
    if os.path.exists(compare_path):
        lines.append(f"{COMPARE_CSV}:")
        header = ("arm", "alpha", "calls", "tokens", "emitted", "tau", "speedup")
        lines.append("  " + "  ".join(f"{h:>8}" for h in header))
        for row in read_summary_csv(compare_path):
            cells = (f"{float(row[h]):.4f}" if h in ("tau", "speedup")
                     and row[h] != "-" else row[h] for h in header)
            lines.append("  " + "  ".join(f"{v:>8}" for v in cells))
    elif bins is None:
        lines.append("no artifacts found; run the pipeline first")
    return "\n".join(lines) + "\n"
