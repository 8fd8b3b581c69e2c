"""Alternating parent/change pairs of the benchmark on one workload.

Runs each source tree's own ``bench/run.py`` ``--pairs`` times at one seed,
from that tree's root, alternating which side goes first: pair i runs the
parent first when i is odd and the change first when i is even. The last
stdout line of every run, its JSON object, is kept verbatim. The aggregate
goes into ``--out`` under ``workloads.<workload>``, or under
``workloads.<workload>.trace`` with ``--trace 1``; whatever else an
existing ``--out`` file holds is kept, so one file collects every
workload. Per metric of the change tree's BENCHMARK.json:

- ``parent`` and ``change``: inclusive quartiles (q1, median, q3) of the
  side's runs;
- ``change_worse_by``: the relative change of the median, positive when
  the change is worse;
- ``change_wins`` and ``change_losses``: pairs in which the change did
  better or worse; ties count for neither;
- ``runs``: every run's value, in pair order.

Once ``--out`` is written, a verdict table of the workload goes to
stdout: per metric the two medians, ``change_worse_by`` as a percent, the
bound, the wins/losses and ``gain``, marked ``OVER`` where the change is
worse by more than the bound; then the failed decodes of each side,
whether each side's trace digests repeated over its runs, and whether
both repeated and agreed. ``gain`` is yes where the change may claim a
gain on the metric: it won at least nine tenths of the pairs run, ties
counting for neither, and its median is better than the parent's by
more than the parent's q3 - q1.

Nothing under either tree is changed. Run from anywhere:

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload planted --seed 7 --seconds 20 --pairs 10 --out BENCH_19.json
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version

SIDES = ("parent", "change")
DESCRIPTION = (
    "Alternating parent/change pairs of the benchmark, written by "
    "scripts/bench_pairs.py; pair i of a workload ran parent first when i "
    "is odd, change first when i is even. Times are reference-speed seconds "
    "(bench/speed.py). q1/median/q3 are inclusive quartiles over the runs of "
    "one side; 'runs' lists every run in pair order; change_worse_by is the "
    "relative change of the median, positive when worse; change_wins and "
    "change_losses count pairs, ties counting for neither. 'json_lines' "
    "holds the last stdout line of every run and 'passes' its first line; "
    "'trace_sha256' holds each side's trace digests from its first run, "
    "'trace_sha256_repeat' whether every run of the side printed the same, "
    "and 'trace_sha256_equal' whether both sides repeat and agree.")


def run_bench(tree: str, workload: str, seed: int, seconds: float,
              trace: int) -> tuple[str, dict, str]:
    """(first stdout line, trace digests, last stdout line) of one run of
    ``tree``'s bench/run.py."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    try:
        json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"bench_pairs: {tree}: bench/run.py exited "
                 f"{proc.returncode} without a JSON line:\n{proc.stderr}")
    digests = dict(line.split()[1:3] for line in lines
                   if line.startswith("sha256 "))
    return lines[0], digests, lines[-1]


def quartiles(values: list[float]) -> dict[str, float]:
    """Inclusive quartiles; one value is its own quartiles."""
    if len(values) == 1:
        return dict.fromkeys(("q1", "median", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def compare_metric(entry: dict, parent: list, change: list) -> dict:
    """The per-metric block for one BENCHMARK.json ``entry``, over the two
    sides' values in pair order (None where a run did not report it)."""
    sign = 1.0 if entry["better"] == "lower" else -1.0
    out = {key: entry[key] for key in ("unit", "better", "bound") if key in entry}
    present = {side: [v for v in values if v is not None]
               for side, values in zip(SIDES, (parent, change))}
    if not all(present.values()):
        return dict(out, runs={"parent": parent, "change": change})
    for side in SIDES:
        out[side] = quartiles(present[side])
    deltas = [sign * (c - p) for p, c in zip(parent, change)
              if p is not None and c is not None]
    base = out["parent"]["median"]
    out["change_wins"] = sum(d < 0 for d in deltas)
    out["change_losses"] = sum(d > 0 for d in deltas)
    out["change_worse_by"] = (sign * (out["change"]["median"] - base) / base
                              if base else None)
    out["runs"] = {"parent": parent, "change": change}
    return out


def aggregate(spec: list[dict], results: dict[str, list[dict]]) -> dict:
    """Totals and per-metric blocks of the runs in ``results`` (each
    side's parsed JSON lines, in pair order) for the metrics in ``spec``."""
    out = {"correct": {s: all(r["correct"] for r in results[s]) for s in SIDES},
           "attempted": {s: sum(r["attempted"] for r in results[s]) for s in SIDES},
           "failed": {s: sum(r["failed"] for r in results[s]) for s in SIDES},
           "metrics": {}}
    for entry in spec:
        values = [[r["metrics"].get(entry["name"], {}).get("value")
                   for r in results[side]] for side in SIDES]
        out["metrics"][entry["name"]] = compare_metric(entry, *values)
    return out


def run_pairs(trees: dict[str, str], args) -> dict:
    """Run the pairs and return the workload's block."""
    with open(os.path.join(trees["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    lines = {side: [] for side in SIDES}
    digests = {side: [] for side in SIDES}
    passes = []
    for pair in range(1, args.pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for side in order:
            first, sha, last = run_bench(trees[side], args.workload, args.seed,
                                         args.seconds, args.trace)
            print(f"pair {pair} {side}: {first}", flush=True)
            passes.append(f"pair {pair} {side}: {first}")
            digests[side].append(sha)
            lines[side].append(last)
    block = {"seed": args.seed, "seconds_per_run": args.seconds,
             "pairs": args.pairs,
             "command": f"python3 bench/run.py --workload {args.workload} "
                        f"--seed {args.seed} --seconds {args.seconds:g} "
                        f"--trace {args.trace}"}
    block.update(aggregate(spec, {s: [json.loads(x) for x in lines[s]]
                                  for s in SIDES}))
    repeat = {s: all(d == digests[s][0] for d in digests[s]) for s in SIDES}
    block["trace_sha256_repeat"] = repeat
    block["trace_sha256_equal"] = (all(repeat.values())
                                   and digests["parent"][0] == digests["change"][0])
    block["trace_sha256"] = {s: digests[s][0] for s in SIDES}
    block["passes"] = passes
    block["json_lines"] = lines
    return block


def _number(value, fmt: str = ".6g") -> str:
    # + 0 prints a tie of a higher-is-better metric, -0.0, as 0
    return "-" if value is None else format(value + 0, fmt)


def gain(m: dict) -> bool | None:
    """Whether a metric's block shows a gain: the change won at least nine
    tenths of the pairs run and its median beats the parent's by more than
    the parent's q3 - q1. None when a side reported no value."""
    if "change_wins" not in m:
        return None
    parent = m["parent"]
    sign = 1.0 if m["better"] == "lower" else -1.0
    gap = sign * (parent["median"] - m["change"]["median"])
    return (10 * m["change_wins"] >= 9 * len(m["runs"]["parent"])
            and gap > parent["q3"] - parent["q1"])


def verdict_lines(block: dict) -> list[str]:
    """The verdict table of a workload's block, one line per metric, then
    the failed decodes per side, whether each side's trace digests
    repeated, and whether both repeated and agreed."""
    yes = {True: "yes", False: "no", None: "-"}
    lines = [f"{'metric':<30} {'parent':>12} {'change':>12} {'worse_by':>9} "
             f"{'bound':>7} {'wins/losses':>11} {'gain':>4}"]
    for name, m in block["metrics"].items():
        medians = [m[side]["median"] if side in m else None for side in SIDES]
        worse, bound = m.get("change_worse_by"), m.get("bound")
        over = worse is not None and bound is not None and worse > bound
        wins = (f"{m['change_wins']}/{m['change_losses']}"
                if "change_wins" in m else "-")
        lines.append(f"{name:<30} {_number(medians[0]):>12} "
                     f"{_number(medians[1]):>12} {_number(worse, '+.1%'):>9} "
                     f"{_number(bound, '.0%'):>7} {wins:>11} "
                     f"{yes[gain(m)]:>4}" + ("  OVER" if over else ""))
    failed = block["failed"]
    repeat = block["trace_sha256_repeat"]
    lines.append(f"failed decodes: parent {failed['parent']}, "
                 f"change {failed['change']}")
    lines.append(f"trace digests repeat: parent {yes[repeat['parent']]}, "
                 f"change {yes[repeat['change']]}")
    lines.append(f"trace digests equal: {yes[block['trace_sha256_equal']]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="the parent's source tree")
    parser.add_argument("--change", required=True, help="the change's source tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("argument --pairs: expected at least 1")
    trees = {"parent": args.parent, "change": args.change}
    for side, tree in trees.items():
        if not os.path.isfile(os.path.join(tree, "bench", "run.py")):
            parser.error(f"argument --{side}: no bench/run.py under {tree}")
    block = run_pairs(trees, args)
    out = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            out = json.load(fh)
    out.setdefault("description", DESCRIPTION)
    out.setdefault("hardware", f"{os.cpu_count()}-CPU {platform.machine()}, "
                               f"Python {platform.python_version()}, "
                               f"numpy {version('numpy')}")
    workload = out.setdefault("workloads", {}).setdefault(args.workload, {})
    if args.trace:
        workload["trace"] = block
    else:
        workload.update(block)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print("\n".join(verdict_lines(block)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
