"""One timed pass of the pipeline, its correctness check and its trace.

A pass runs the public steps in order, in this process, one after another:
``step_gen_corpus`` -> ``step_train_model`` -> ``step_calibrate`` ->
``step_compare`` -> ``step_report`` (both arms). Every prompt decode is
recorded where the pipeline calls it, so latency, emitted tokens and the
outputs can be checked against ``greedy_reference`` after the pass, outside
the timed region.
"""

from __future__ import annotations

import glob
import hashlib
import os
import time
from dataclasses import dataclass, field

from heterospec import control, models, pipeline
from heterospec.control import greedy_reference
from heterospec.metrics import validate_run

from spans import Tracer, patched
from speed import SpeedProbe

STEPS = ("gen_corpus", "train_model", "calibrate", "compare", "report")

# where the pipeline looks each decode function up, and which arm calls it
DECODE_SITES = ((pipeline, "decode_baseline", "calibration"),
                (control, "decode_baseline", "baseline"),
                (control, "decode_adaptive", "adaptive"))

# per-layer span name -> [(module, name)] under which its callers find it
LAYER_SPANS = {
    "corpus.s": [(pipeline, "gen_corpus"), (pipeline, "split_docs"),
                 (pipeline, "prompts_from")],
    "vocab.s": [(pipeline, "read_corpus"), (pipeline, "write_corpus"),
                (pipeline, "build_vocab"), (pipeline, "encode_corpus"),
                (models, "encode_corpus")],
    "models.train_ngram_s": [(pipeline, "train_ngram")],
    "models.save_model_s": [(pipeline, "save_model")],
    "models.load_model_s": [(pipeline, "load_model")],
    "tree.expand_self_s": [(control, "expand")],
    "tree.extend_self_s": [(control, "extend")],
    "tree.rerank_s": [(control, "rerank")],
    "entropy.signal_s": [(control, "tree_entropy_signal")],
    "binning.fit_s": [(pipeline, "collect_calibration"),
                      (pipeline, "check_calibration_diversity"),
                      (pipeline, "fit_binning")],
    "binning.io_s": [(pipeline, "save_bins"), (pipeline, "load_bins")],
    "verify.verify_self_s": [(control, "verify_greedy")],
    "control.decode_self_s": [(site, name) for site, name, _ in DECODE_SITES],
    "control.arm_self_s": [(pipeline, "run_arm"), (pipeline, "run_comparison"),
                           (control, "run_arm")],
    "metrics.summarize_s": [(control, "summarize")],
    "metrics.write_trace_s": [(pipeline, "write_iterations_csv")],
    "metrics.report_s": [(pipeline, "write_summary_csv"),
                         (pipeline, "write_tcr_histogram_csv"),
                         (pipeline, "write_tcr_by_accepted_csv"),
                         (pipeline, "write_bin_occupancy_csv"),
                         (pipeline, "read_iterations_csv")],
}


@dataclass
class Decode:
    """One prompt decode as the pipeline made it."""

    arm: str
    prompt_index: int
    prompt: tuple
    config: object
    bins: object
    tokens: list
    records: list
    seconds: float


@dataclass
class Pass:
    """One pass: step times with their speed scales, and what the check
    and the metrics read."""

    step_s: dict = field(default_factory=dict)  # raw wall seconds
    scale: dict = field(default_factory=dict)  # to reference-speed seconds
    decodes: list = field(default_factory=list)
    comparison: object = None
    planned: int = 0
    error: str | None = None
    digests: dict = field(default_factory=dict)
    tracer: Tracer | None = None
    target: object = None  # the compare step's target model, for the check
    probe: SpeedProbe | None = None  # of the step running now
    # kept by compact() once the pass is checked
    decode_ms: list = field(default_factory=list)
    emitted: int = 0
    rows: list | None = None
    layers: dict | None = None

    def seconds(self, step: str) -> float:
        """Reference-speed seconds of one step."""
        return self.step_s[step] * self.scale[step]

    def decode_seconds(self, decode: Decode) -> float:
        step = "calibrate" if decode.arm == "calibration" else "compare"
        return decode.seconds * self.scale[step]

    @property
    def pipeline_s(self) -> float:
        return sum(self.seconds(step) for step in self.step_s)

    def compact(self) -> None:
        """Keep only what the metrics need, so that the passes a run keeps
        do not add to its peak memory: drop the model, outputs and traces."""
        if self.tracer is not None and self.error is None:
            self.layers = layer_metrics(self)
        self.decode_ms = [self.decode_seconds(d) * 1e3 for d in self.decodes]
        self.emitted = sum(len(d.tokens) for d in self.decodes)
        if self.comparison is not None:
            self.rows = self.comparison.rows()
        self.decodes, self.comparison, self.target, self.tracer = [], None, None, None


def _recorder(arm: str, into: Pass):
    def make(decode):
        def recorded(target, draft, prompt, config, bins=None, prompt_index=0):
            start = time.perf_counter()
            result = decode(target, draft, prompt, config, bins=bins,
                            prompt_index=prompt_index)
            seconds = time.perf_counter() - start
            spent = into.probe.inside()
            if into.tracer is not None:
                into.tracer.exclude(spent)
            into.decodes.append(Decode(arm, prompt_index, tuple(prompt), config,
                                       bins, result.tokens, result.records,
                                       seconds))
            # keeping the calibrate step's model would hold two models in
            # memory during compare, which loads its own
            if arm != "calibration":
                into.target = target
            return result
        return recorded
    return make


def _trace_patches(tracer: Tracer) -> list:
    def counting(name):
        on_result = None
        if name == "tree.rerank_s":
            def on_result(args, kept):
                tracer.counts["nodes_drafted"] += args[0].size()
                tracer.counts["nodes_verified"] += len(kept)
        elif name == "verify.verify_self_s":
            def on_result(args, result):
                tracer.counts["accepted_draft_tokens"] += result.accepted_len
        return lambda fn: tracer.wrap(name, fn, on_result)

    out = [(module, attr, counting(name))
           for name, sites in LAYER_SPANS.items() for module, attr in sites]

    def load_models(fn):
        def traced(config):
            target, draft = fn(config)
            tracer.wrap_models(target, draft)
            return target, draft
        return traced

    out.append((pipeline, "load_models", load_models))
    return out


def run_pass(config, traced: bool = False) -> Pass:
    """Run every step once into config.out_dir; never raises for a
    pipeline failure, which is returned in ``Pass.error``."""
    result = Pass(planned=config.prompts.calibration_count
                  + 2 * config.prompts.count)
    tracer = Tracer() if traced else None
    result.tracer = tracer
    steps = {
        "gen_corpus": lambda: pipeline.step_gen_corpus(config),
        "train_model": lambda: pipeline.step_train_model(config),
        "calibrate": lambda: pipeline.step_calibrate(config),
        "compare": lambda: pipeline.step_compare(config),
        "report": lambda: [pipeline.step_report(config, arm)
                           for arm in pipeline.REPORT_ARMS],
    }
    patches = _trace_patches(tracer) if traced else []
    patches += [(site, name, _recorder(arm, result))
                for site, name, arm in DECODE_SITES]
    with patched(patches):
        for step in STEPS:
            call = steps[step]
            if traced:
                call = tracer.wrap("pipeline.self_s", call)
            result.probe = probe = SpeedProbe()
            probe.edge()
            start = time.perf_counter()
            try:
                out = call()
            except Exception as exc:  # a failed step fails the pass
                result.error = f"{step}: {type(exc).__name__}: {exc}"
                break
            finally:
                result.step_s[step] = (time.perf_counter() - start
                                       - probe.inside_s)
                probe.edge()
                result.scale[step] = probe.scale()
            if step == "compare":
                result.comparison = out[1]
    if traced:
        tracer.unwrap_models()
    if result.error is None:
        result.digests = trace_digests(config.out_dir)
    return result


def trace_digests(out_dir: str) -> dict[str, str]:
    """sha256 of bins.txt and every *-iterations.csv, by file name."""
    paths = [os.path.join(out_dir, pipeline.BINS_FILE)]
    paths += sorted(glob.glob(os.path.join(out_dir, "*-iterations.csv")))
    digests = {}
    for path in paths:
        with open(path, "rb") as fh:
            digests[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def check_pass(result: Pass, config) -> list[str]:
    """Failed prompt decodes of a pass, one message each.

    The reference decodes use the compare step's target model, or the
    model file loaded again when the pass stopped before compare.

    A decode fails when its tokens differ from ``greedy_reference``, when
    ``validate_run`` finds a violation in its records (with the reference
    length as the expected emitted total), when an adaptive output differs
    from the baseline output for the same prompt, or when it never ran
    because a step raised.
    """
    failures = []
    target = result.target
    if target is None and result.decodes:
        target, _ = pipeline.load_models(config)
    references: dict[tuple, list] = {}
    baseline: dict[int, list] = {}
    for d in result.decodes:
        cfg = d.config.resolved()
        key = (d.prompt, cfg.max_new_tokens, cfg.terminator)
        if key not in references:
            references[key] = greedy_reference(target, d.prompt,
                                               cfg.max_new_tokens,
                                               cfg.terminator)
        want = references[key]
        where = f"{d.arm} prompt {d.prompt_index}"
        problems = validate_run(d.records, expected_emitted=len(want))
        if d.tokens != want:
            problems.append("output differs from greedy_reference")
        if d.arm == "baseline":
            baseline[d.prompt_index] = d.tokens
        elif d.arm == "adaptive" and baseline.get(d.prompt_index) != d.tokens:
            problems.append("adaptive output differs from baseline")
        if problems:
            failures.append(f"{where}: {'; '.join(problems)}")
    missing = result.planned - len(result.decodes)
    if missing > 0:
        failures += [f"decode not run: {result.error}"] * missing
    elif result.error is not None:
        failures.append(f"pass failed: {result.error}")
    return failures


def layer_metrics(result: Pass) -> dict[str, float]:
    """Per-layer values of one traced pass, times in reference-speed
    seconds at the pass's average scale.

    Ratio bases: ``*_per_call`` divides by control.iterations, the target
    verification calls of every arm including calibration; ``kept_ratio``
    is nodes verified over nodes drafted, summed over rerank calls;
    ``accept_ratio`` is accepted draft tokens over nodes verified;
    ``low_bin_share`` is the share of adaptive iterations whose bin is a
    low bin.
    """
    t = result.tracer
    scale = result.pipeline_s / sum(result.step_s.values())
    out = {name: t.self_s[name] * scale for name in LAYER_SPANS}
    out["pipeline.self_s"] = t.self_s["pipeline.self_s"] * scale
    iterations = sum(len(d.records) for d in result.decodes)
    for role in ("draft", "target"):
        evals = t.calls[f"models.{role}_eval_s"]
        out[f"models.{role}_evals"] = evals
        out[f"models.{role}_eval_s"] = t.self_s[f"models.{role}_eval_s"] * scale
        out[f"models.{role}_evals_per_call"] = evals / iterations
    out["control.iterations"] = iterations
    out["tree.extend_calls"] = t.calls["tree.extend_self_s"]
    drafted, verified = t.counts["nodes_drafted"], t.counts["nodes_verified"]
    out["tree.nodes_drafted"] = drafted
    out["tree.nodes_verified"] = verified
    out["tree.kept_ratio"] = verified / drafted
    out["verify.accept_ratio"] = t.counts["accepted_draft_tokens"] / verified
    adaptive = low = 0
    for d in result.decodes:
        if d.arm != "adaptive":
            continue
        low_bins = d.config.low_bins
        if low_bins is None:
            low_bins = d.bins.default_low_bins()
        adaptive += len(d.records)
        low += sum(r.bin in low_bins for r in d.records)
    out["binning.low_bin_share"] = low / adaptive
    return out
