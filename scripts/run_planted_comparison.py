"""Run the default planted-corpus experiment end to end.

Generates the corpus, trains the target model, calibrates the
entropy bins, decodes the eval prompts with the baseline and adaptive
controllers, writes the report tables for both arms, and prints the digest.
"""
from __future__ import annotations

import argparse
import dataclasses

from heterospec.config import ExperimentConfig
from heterospec.pipeline import (
    render_report,
    step_calibrate,
    step_compare,
    step_gen_corpus,
    step_report,
    step_train_model,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/planted",
                        help="artifact directory (default runs/planted)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the experiment seed")
    parser.add_argument("--alpha", type=int, default=None,
                        help="extension budget for the adaptive arm "
                             "(default (depth + 1) // 2)")
    args = parser.parse_args()

    config = dataclasses.replace(ExperimentConfig(), out_dir=args.out)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.alpha is not None:
        config = dataclasses.replace(
            config,
            controller=dataclasses.replace(config.controller,
                                           alpha=args.alpha))

    print(step_gen_corpus(config))
    print(step_train_model(config))
    print(step_calibrate(config))
    out, result = step_compare(config)
    print(out)
    for name, alpha, summary in result.rows():
        alpha_str = "-" if alpha is None else str(alpha)
        print(f"{name} alpha={alpha_str} calls={summary.calls} "
              f"tokens={summary.tokens} tau={summary.tau:.4f} "
              f"speedup={summary.speedup:.4f}")
    for arm in ("baseline", "adaptive"):
        for path in step_report(config, arm):
            print(path)
    print()
    print(render_report(config), end="")


if __name__ == "__main__":
    main()
