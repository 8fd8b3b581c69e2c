"""Artifact digests of one pipeline pass of a benchmark workload.

Writes the workload's inputs for a seed (bench/workloads.py), runs
gen-corpus, train-model, calibrate, compare and report for both arms once
in a temporary directory, and prints one JSON object:

- ``sha256``: the digest of every artifact the pass wrote, by file name,
  ``model.bin`` among them, except ``config.json``, which records the
  temporary paths;
- ``calls`` and ``speedup`` of each compare arm.

Two source trees that print the same object made byte-identical
artifacts. Run from the repository root:

    PYTHONPATH=src python3 scripts/artifact_digests.py --workload zipf-word --seed 0
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from workloads import WORKLOADS, make_inputs  # noqa: E402

from heterospec import pipeline  # noqa: E402


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def digests(workload: str, seed: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        config = make_inputs(WORKLOADS[workload], seed, os.path.join(tmp, "input"))
        config = dataclasses.replace(config, out_dir=os.path.join(tmp, "run"))
        pipeline.step_gen_corpus(config)
        pipeline.step_train_model(config)
        pipeline.step_calibrate(config)
        _, result = pipeline.step_compare(config)
        for arm in pipeline.REPORT_ARMS:
            pipeline.step_report(config, arm)
        names = sorted(set(os.listdir(config.out_dir)) - {"config.json"})
        return {
            "sha256": {name: sha256(os.path.join(config.out_dir, name))
                       for name in names},
            "calls": {name: s.calls for name, _, s in result.rows()},
            "speedup": {name: s.speedup for name, _, s in result.rows()},
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:  # the workload's SeedSequence takes none
        parser.error("argument --seed: expected a seed >= 0")
    print(json.dumps(digests(args.workload, args.seed), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
