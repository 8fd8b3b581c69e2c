"""heterospec benchmark: one workload at one seed for a fixed time.

Run from the repository root:

    python3 bench/run.py --workload planted --seed 0 --seconds 30 --trace 0

The load is a closed loop with one client: passes of the whole pipeline
(gen-corpus, train-model, calibrate, compare, report) run one after
another in this single-threaded process until ``--seconds`` is used up,
each into a fresh directory on the same inputs. Every pass is checked
after it ends, outside the timed region. Timings are medians over passes,
in reference-speed seconds (see speed.py).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from
untraced passes. ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics from the traced ones, plus the tracing
overhead on compare_s. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines above it say
the same in words, with the sample counts and trace digests.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
RUNS = os.path.join(ROOT, ".bench_runs")

MIN_PASSES = 3
MIN_TRACED_PASSES = 2  # one untraced and one traced


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the ceil(p * n)-th smallest value."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes: list) -> tuple[dict[str, float], list[str]]:
    from harness import STEPS

    median = statistics.median
    steps = {step: median([p.seconds(step) for p in passes]) for step in STEPS}
    prompt_ms = [ms for p in passes for ms in p.decode_ms]
    rates = [p.emitted / (sum(p.decode_ms) / 1e3) for p in passes]
    (_, _, base), (_, _, adapt) = passes[0].rows
    metrics = {
        "setup_s": median([p.seconds("gen_corpus") + p.seconds("train_model")
                           for p in passes]),
        "calibrate_s": steps["calibrate"],
        "compare_s": steps["compare"],
        "pipeline_s": median([p.pipeline_s for p in passes]),
        "decode_tok_per_s": median(rates),
        "prompt_ms.p50": percentile(prompt_ms, 0.50),
        "prompt_ms.p85": percentile(prompt_ms, 0.85),
        "peak_rss_mb": peak_rss_mb(),
        "baseline_calls": base.calls,
        "adaptive_calls": adapt.calls,
        "baseline_speedup": base.speedup,
        "adaptive_speedup": adapt.speedup,
    }
    per_pass = len(passes[0].decode_ms)
    raw_compare = median([p.step_s["compare"] for p in passes])
    notes = [f"prompt_ms: {len(prompt_ms)} samples ({per_pass} prompt "
             f"decodes per pass x {len(passes)} passes), "
             f"{len(prompt_ms) - math.ceil(0.85 * len(prompt_ms))} beyond p85",
             f"times in reference-speed seconds; raw wall median of "
             f"compare_s {raw_compare:.4f} s"]
    return metrics, notes


def per_layer(untraced: list, traced: list) -> tuple[dict[str, float], list[str]]:
    per_pass = [p.layers for p in traced]
    metrics = {name: statistics.median(m[name] for m in per_pass)
               for name in per_pass[0]}
    plain = statistics.median(p.seconds("compare") for p in untraced)
    with_spans = statistics.median(p.seconds("compare") for p in traced)
    metrics["tracing.compare_overhead_s"] = with_spans - plain
    metrics["tracing.compare_overhead_pct"] = 100.0 * (with_spans - plain) / plain
    notes = [f"per-layer values: median of {len(traced)} traced passes; "
             f"compare_s untraced {plain:.4f} s ({len(untraced)} passes), "
             f"traced {with_spans:.4f} s",
             "ratio bases: *_per_call over control.iterations (verification "
             "calls, all arms incl. calibration); kept_ratio = "
             "nodes_verified / nodes_drafted; accept_ratio = accepted draft "
             "tokens / nodes_verified; low_bin_share over adaptive iterations"]
    return metrics, notes


def measure(workload, seed: int, seconds: float, trace: bool, run_dir: str):
    """Run passes until the time is used up; returns (passes, failures)."""
    from harness import check_pass, run_pass
    from workloads import make_inputs

    config = make_inputs(workload, seed, os.path.join(run_dir, "input"))
    passes, failures, durations = [], [], []
    min_passes = MIN_TRACED_PASSES if trace else MIN_PASSES
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        out_dir = os.path.join(run_dir, f"pass{len(passes)}")
        traced = trace and len(passes) % 2 == 1
        pass_config = dataclasses.replace(config, out_dir=out_dir)
        result = run_pass(pass_config, traced)
        failures += check_pass(result, pass_config)
        result.compact()
        if passes and result.digests != passes[0].digests:
            failures.append(f"pass {len(passes)}: trace digests differ "
                            "from pass 0")
        shutil.rmtree(out_dir)
        passes.append(result)
        durations.append(time.perf_counter() - began)
        if result.error is not None:
            break
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and \
                elapsed + statistics.median(durations) > seconds:
            break
    return passes, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "heterospec", "__init__.py")):
        print(f"bench: no heterospec sources under {SRC}", file=sys.stderr)
        return 2
    if not os.path.isfile(SPEC):
        print(f"bench: {SPEC} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    run_dir = os.path.join(RUNS, f"{workload.name}-s{args.seed}-p{os.getpid()}")
    # a terminated run still removes its directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        passes, failures = measure(workload, args.seed, args.seconds,
                                   bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if os.path.isdir(RUNS) and not os.listdir(RUNS):
            os.rmdir(RUNS)

    attempted = sum(p.planned for p in passes)
    failed = min(len(failures), attempted)
    ok = [p for p in passes if p.error is None]
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes; prompt decodes attempted {attempted}, "
          f"failed {failed}")
    if workload.note:
        print(f"note: {workload.note}")
    for message in failures[:20]:
        print(f"FAILED {message}")
    metrics, notes = {}, []
    if ok and not failures:
        if args.trace:
            metrics, notes = per_layer([p for p in ok if p.layers is None],
                                       [p for p in ok if p.layers is not None])
        else:
            metrics, notes = end_to_end(ok)
        for name, digest in ok[0].digests.items():
            notes.append(f"sha256 {name} {digest}")
    for note in notes:
        print(note)
    report = {}
    for entry in wanted:
        if entry["name"] in metrics:
            value = metrics[entry["name"]]
            report[entry["name"]] = {"value": value, "unit": entry["unit"]}
            print(f"{entry['name']:<32} {value:>14.6g} {entry['unit']}")
    correct = not failures and len(report) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": report}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
