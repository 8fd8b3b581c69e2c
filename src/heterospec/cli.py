"""Command-line harness, the one way to run the default experiment.

Subcommands mirror the pipeline stages: gen-corpus, train-model,
calibrate, compare, report; the README's Quick start runs them in order.
Every subcommand accepts --config (JSON experiment file), --seed and --out
overrides, and every setting is checked once, when the config is built.
compare decodes two arms, the baseline and the adaptive one at
``controller.alpha``, which a config file sets.

Exit codes, one distinct status per failure class:

    0  success
    2  configuration or usage error
    3  calibration failure
    4  malformed bins file
    5  arm outputs diverged or a decode's records broke an invariant
    6  filesystem error

Failures print exactly one line to stderr of the form
``heterospec: <kind>: <message>``. Bins that hold none of the low bins,
say a fit of one bin, are not a failure, but leave the adaptive arm
nothing to adapt: calibrate and compare then exit 0 and print one
``heterospec: note: <message>`` line to stderr, judged on the bins the
step fitted or loaded.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .binning import BinningModel
from .config import ExperimentConfig, load_config
from .errors import (BinsFileError, CalibrationError, ConfigError,
                     HeteroSpecError, OutputMismatchError)
from .pipeline import (REPORT_ARMS, load_report_bins, render_report,
                       step_calibrate, step_compare, step_gen_corpus,
                       step_report, step_train_model)

_EXIT_KINDS: list[tuple[type, int, str]] = [
    (ConfigError, 2, "config"),
    (CalibrationError, 3, "calibration"),
    (BinsFileError, 4, "bins-format"),
    (OutputMismatchError, 5, "verify-mismatch"),
]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="experiment config JSON")
    parser.add_argument("--seed", type=int, help="override config seed")
    parser.add_argument("--out", help="override config out_dir")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heterospec",
        description="entropy-adaptive draft-tree speculative decoding lab")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
            ("gen-corpus", "materialize the corpus into out_dir"),
            ("train-model", "train the target model on the training split"),
            ("calibrate", "fit entropy bins from a baseline calibration run"),
            ("compare", "run baseline and adaptive arms on the same prompts"),
            ("report", "write plot-ready tables and print a digest")):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "report":
            p.add_argument("--arm", choices=REPORT_ARMS,
                           default="baseline",
                           help="which iteration trace feeds the tables")
    return parser


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    config = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.out is not None:
        config = replace(config, out_dir=args.out)
    return config


def _note_no_low_bin(config: ExperimentConfig, bins: BinningModel) -> None:
    if not any(b in range(bins.num_bins) for b in config.controller.low_bins_for(bins)):
        print(f"heterospec: note: no low bin is among bins 0..{bins.num_bins - 1},"
              " so the adaptive arm equals the baseline", file=sys.stderr)


def _dispatch(args: argparse.Namespace) -> None:
    config = _resolve_config(args)
    if args.command == "gen-corpus":
        print(step_gen_corpus(config))
    elif args.command == "train-model":
        print(step_train_model(config))
    elif args.command == "calibrate":
        out, bins = step_calibrate(config)
        print(out)
        _note_no_low_bin(config, bins)
    elif args.command == "compare":
        out, result = step_compare(config)
        print(out)
        for name, alpha, summary in result.rows():
            alpha_str = "-" if alpha is None else str(alpha)
            print(f"{name} alpha={alpha_str} calls={summary.calls} "
                  f"tokens={summary.tokens} tau={summary.tau:.4f} "
                  f"speedup={summary.speedup:.4f}")
        _note_no_low_bin(config, result.bins)
    elif args.command == "report":
        # bins.txt is parsed once, for both; the digest is rendered first,
        # so a failing report prints nothing and writes no table
        bins = load_report_bins(config)
        digest = render_report(config, bins)
        paths = step_report(config, args.arm, bins)
        sys.stdout.write("".join(p + "\n" for p in paths) + digest)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _dispatch(args)
    except HeteroSpecError as exc:
        for cls, code, kind in _EXIT_KINDS:
            if isinstance(exc, cls):
                print(f"heterospec: {kind}: {exc}", file=sys.stderr)
                return code
        print(f"heterospec: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"heterospec: io: {exc}", file=sys.stderr)
        return 6
    return 0


if __name__ == "__main__":
    sys.exit(main())
