"""Sweep the adaptive extension budget on the planted corpus.

Builds the default lab once, then runs one compare per alpha, each at
that ``controller.alpha``. Prints a table of target calls, verified draft
tokens, acceptance rate tau, and modeled speedup, with the relative change
against baseline. Every compare writes over the same artifacts, so --out
holds those of the last alpha.
"""
from __future__ import annotations

import argparse
import dataclasses

from heterospec.config import ExperimentConfig
from heterospec.pipeline import (
    step_calibrate,
    step_compare,
    step_gen_corpus,
    step_train_model,
)


def parse_alphas(text: str) -> list[int]:
    """Comma-separated distinct non-negative integers, at least one."""
    try:
        alphas = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None
    if not alphas or min(alphas) < 0 or len(set(alphas)) < len(alphas):
        raise argparse.ArgumentTypeError(
            f"expected one or more distinct alphas >= 0, got {text!r}")
    return alphas


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/alpha-sweep",
                        help="artifact directory (default runs/alpha-sweep)")
    parser.add_argument("--alphas", type=parse_alphas, default="1,2,3,4,5",
                        help="comma-separated extension budgets")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    config = dataclasses.replace(ExperimentConfig(), out_dir=args.out)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)

    step_gen_corpus(config)
    step_train_model(config)
    step_calibrate(config)
    results = []
    for alpha in args.alphas:
        ctl = dataclasses.replace(config.controller, alpha=alpha)
        results.append(step_compare(dataclasses.replace(config, controller=ctl))[1])

    base = results[0].baseline.summary
    header = f"{'arm':<10} {'alpha':>5} {'calls':>7} {'tokens':>8} " \
             f"{'tau':>8} {'speedup':>8} {'d_tau':>8}"
    print(header)
    print("-" * len(header))
    print(f"{'baseline':<10} {'-':>5} {base.calls:>7} {base.tokens:>8} "
          f"{base.tau:>8.4f} {base.speedup:>8.4f} {'-':>8}")
    for result in results:
        arm = result.adaptive
        s = arm.summary
        d_tau = (s.tau - base.tau) / base.tau
        print(f"{'adaptive':<10} {arm.alpha:>5} {s.calls:>7} {s.tokens:>8} "
              f"{s.tau:>8.4f} {s.speedup:>8.4f} {d_tau:>+8.2%}")


if __name__ == "__main__":
    main()
