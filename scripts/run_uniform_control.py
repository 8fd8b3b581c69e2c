"""Structure-free control run: coverage-zero twin of the planted lab.

Builds the planted experiment, then rebuilds the same geometry with
template coverage forced to zero and decodes it with the planted run's
calibrated bins; the planted run is printed alongside for contrast.

The zero delta it prints holds by construction, not by experiment: the
coverage-zero corpus's entropies never fall below the copied planted bin
edges, so no iteration lands in a low bin and the adaptive arm decodes
exactly as the baseline. Calibrated on its own corpus instead, the
control exits 3 under the default calibration filter, and under
``accepting`` its adaptive arm makes more calls than its baseline
(ROADMAP item 12).
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import shutil

from heterospec.config import ExperimentConfig
from heterospec.pipeline import (
    step_calibrate,
    step_compare,
    step_gen_corpus,
    step_train_model,
)


def build(config, calibrate=True):
    step_gen_corpus(config)
    step_train_model(config)
    if calibrate:
        step_calibrate(config)


def show(label: str, result) -> None:
    base = result.baseline.summary
    adapt = result.adaptive.summary
    print(f"[{label}]")
    print(f"  baseline  calls={base.calls} tokens={base.tokens} "
          f"tau={base.tau:.4f}")
    print(f"  adaptive  calls={adapt.calls} tokens={adapt.tokens} "
          f"tau={adapt.tau:.4f}")
    for attr in ("calls", "tokens", "tau"):
        b = getattr(base, attr)
        a = getattr(adapt, attr)
        print(f"  delta {attr}: {(a - b) / b:+.2%}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/uniform-control",
                        help="parent directory for both runs")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    planted = dataclasses.replace(ExperimentConfig(),
                                  out_dir=os.path.join(args.out, "planted"))
    if args.seed is not None:
        planted = dataclasses.replace(planted, seed=args.seed)
    build(planted)
    _, planted_result = step_compare(planted)

    uniform = dataclasses.replace(
        planted,
        planted=dataclasses.replace(planted.planted, coverage=0.0),
        out_dir=os.path.join(args.out, "uniform"))
    build(uniform, calibrate=False)
    # reuse the planted bins so only the corpus changes between twins
    shutil.copyfile(os.path.join(planted.out_dir, "bins.txt"),
                    os.path.join(uniform.out_dir, "bins.txt"))
    _, uniform_result = step_compare(uniform)

    show("planted corpus, coverage 0.72", planted_result)
    print()
    show("uniform control, coverage 0.00", uniform_result)


if __name__ == "__main__":
    main()
