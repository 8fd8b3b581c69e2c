"""Per-iteration records, run summaries, cost-model speedup, CSV output.

Acceptance rate tau is emitted tokens per verification call. The cost
model prices one decoding iteration as a fixed call cost plus a per-token
verification cost plus a per-layer drafting cost, and compares against
plain autoregressive decoding, which pays one call and one verified token
per emitted token.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

ITERATIONS_SCHEMA = "# heterospec-iterations v1"
SUMMARY_SCHEMA = "# heterospec-summary v1"
TCR_HISTOGRAM_SCHEMA = "# heterospec-tcr-histogram v1"
TCR_BY_ACCEPTED_SCHEMA = "# heterospec-tcr-by-accepted v1"
BIN_OCCUPANCY_SCHEMA = "# heterospec-bin-occupancy v1"

ITERATION_FIELDS = ("prompt", "iteration", "entropy", "bin", "draft_depth",
                    "top_n", "tree_size", "accepted_len", "emitted", "tcr")

SUMMARY_FIELDS = ("arm", "alpha", "prompts", "calls", "tokens", "emitted",
                  "tau", "mean_accepted_len", "speedup",
                  "tcr_p25", "tcr_p50", "tcr_p75", "tcr_p95", "sentinels")


@dataclass(frozen=True)
class IterationRecord:
    prompt: int
    iteration: int
    entropy: float
    bin: int  # -1 when no binning model was consulted
    draft_depth: int
    top_n: int
    tree_size: int
    accepted_len: int
    emitted: int
    tcr: int  # 1-based value-order rank; tree_size + 1 when nothing accepted

    @property
    def tokens_verified(self) -> int:
        # every reranked node is scored by the one target call
        return self.tree_size


@dataclass(frozen=True)
class CostModel:
    c_call: float = 1.0  # fixed cost of one target call
    c_tok: float = 0.05  # per verified token
    c_draft: float = 0.02  # per draft layer

    def run_cost(self, records: list[IterationRecord]) -> float:
        return sum(self.c_call + self.c_tok * r.tree_size
                   + self.c_draft * r.draft_depth for r in records)

    def autoregressive_cost(self, emitted: int) -> float:
        return emitted * (self.c_call + self.c_tok)


@dataclass(frozen=True)
class RunSummary:
    prompts: int
    calls: int
    tokens: int
    emitted: int
    tau: float
    mean_accepted_len: float
    speedup: float | None
    # rank quantiles cover accepting iterations only; None when there are
    # none. Iterations that accepted nothing are counted in sentinels.
    tcr_p25: int | None
    tcr_p50: int | None
    tcr_p75: int | None
    tcr_p95: int | None
    sentinels: int


def quantile_nearest_rank(values: list[float], p: float) -> float:
    """Nearest-rank quantile: the ceil(p*n)-th smallest value."""
    if not values:
        raise ValueError("quantile of empty list")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"quantile level must be in (0, 1], got {p}")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


TCR_QUANTILE_LEVELS = (0.25, 0.50, 0.75, 0.95)


def tcr_quantiles(records: list[IterationRecord]) -> dict[str, int] | None:
    """Rank quantiles over accepting iterations, keyed p25/p50/p75/p95.

    Sentinel ranks from nothing-accepted iterations would smear the upper
    quantiles, so those iterations are excluded; callers report their
    count separately. Returns None when no iteration accepted anything.
    """
    ranks = [float(r.tcr) for r in records if r.accepted_len >= 1]
    if not ranks:
        return None
    return {"p%d" % round(p * 100): int(quantile_nearest_rank(ranks, p))
            for p in TCR_QUANTILE_LEVELS}


def tcr_histogram(records: list[IterationRecord]) -> list[tuple[int, int]]:
    """(rank, count) pairs over accepting iterations, ascending rank.
    Nothing-accepted iterations are excluded; report them separately."""
    counts: dict[int, int] = {}
    for r in records:
        if r.accepted_len >= 1:
            counts[r.tcr] = counts.get(r.tcr, 0) + 1
    return sorted(counts.items())


def per_bin_stats(records: list[IterationRecord]) \
        -> list[tuple[int, int, float]]:
    """(bin, iteration count, mean accepted length) per observed bin."""
    counts: dict[int, int] = {}
    sums: dict[int, float] = {}
    for r in records:
        counts[r.bin] = counts.get(r.bin, 0) + 1
        sums[r.bin] = sums.get(r.bin, 0.0) + r.accepted_len
    return [(b, counts[b], sums[b] / counts[b]) for b in sorted(counts)]


def summarize(records: list[IterationRecord],
              cost_model: CostModel | None = None) -> RunSummary:
    if not records:
        raise ValueError("cannot summarize an empty run")
    calls = len(records)
    tokens = sum(r.tree_size for r in records)
    emitted = sum(r.emitted for r in records)
    quants = tcr_quantiles(records) or {}
    speedup = None
    if cost_model is not None:
        speedup = (cost_model.autoregressive_cost(emitted)
                   / cost_model.run_cost(records))
    return RunSummary(
        prompts=len({r.prompt for r in records}),
        calls=calls,
        tokens=tokens,
        emitted=emitted,
        tau=emitted / calls,
        mean_accepted_len=sum(r.accepted_len for r in records) / calls,
        speedup=speedup,
        tcr_p25=quants.get("p25"),
        tcr_p50=quants.get("p50"),
        tcr_p75=quants.get("p75"),
        tcr_p95=quants.get("p95"),
        sentinels=sum(1 for r in records if r.accepted_len == 0),
    )


def tcr_bands(records: list[IterationRecord], budget: int,
              num_bands: int = 4) -> list[tuple[int, float | None]]:
    """Bucket iterations into rank bands over [1, budget] and report
    (count, mean accepted length) per band. Ranks past the budget, such
    as the nothing-accepted sentinel, fall in the last band."""
    edges = [math.ceil(k * budget / num_bands) for k in range(1, num_bands + 1)]
    sums = [0.0] * num_bands
    counts = [0] * num_bands
    for r in records:
        band = num_bands - 1
        for k, edge in enumerate(edges):
            if r.tcr <= edge:
                band = k
                break
        sums[band] += r.accepted_len
        counts[band] += 1
    return [(c, s / c if c else None) for c, s in zip(counts, sums)]


def validate_run(records: list[IterationRecord],
                 expected_emitted: int | None = None) -> list[str]:
    """Accounting invariants every run must satisfy; returns violations."""
    problems: list[str] = []
    for r in records:
        where = f"prompt {r.prompt} iteration {r.iteration}"
        if r.emitted != r.accepted_len + 1:
            problems.append(f"{where}: emitted != accepted_len + 1")
        if not 1 <= r.tcr <= r.tree_size + 1:
            problems.append(f"{where}: tcr {r.tcr} outside [1, tree_size+1]")
        if r.tree_size > r.top_n:
            problems.append(f"{where}: tree_size {r.tree_size} > top_n {r.top_n}")
        if r.accepted_len > r.draft_depth:
            problems.append(f"{where}: accepted_len exceeds draft depth")
        if r.accepted_len and r.tcr > r.tree_size:
            problems.append(f"{where}: sentinel tcr with nonzero acceptance")
    if expected_emitted is not None:
        total = sum(r.emitted for r in records)
        if total != expected_emitted:
            problems.append(f"total emitted {total} != expected {expected_emitted}")
    return problems


def _fmt_float(x: float) -> str:
    return "%.17g" % x


def write_iterations_csv(path: str, records: list[IterationRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(ITERATIONS_SCHEMA + "\n")
        writer = csv.writer(fh)
        writer.writerow(ITERATION_FIELDS)
        for r in records:
            writer.writerow([r.prompt, r.iteration, _fmt_float(r.entropy),
                             r.bin, r.draft_depth, r.top_n, r.tree_size,
                             r.accepted_len, r.emitted, r.tcr])


def read_iterations_csv(path: str) -> list[IterationRecord]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        first = fh.readline().rstrip("\n")
        if first != ITERATIONS_SCHEMA:
            raise ValueError(f"{path}: unexpected schema line {first!r}")
        reader = csv.DictReader(fh)
        out = []
        for row in reader:
            out.append(IterationRecord(
                prompt=int(row["prompt"]), iteration=int(row["iteration"]),
                entropy=float(row["entropy"]), bin=int(row["bin"]),
                draft_depth=int(row["draft_depth"]), top_n=int(row["top_n"]),
                tree_size=int(row["tree_size"]),
                accepted_len=int(row["accepted_len"]),
                emitted=int(row["emitted"]), tcr=int(row["tcr"])))
        return out


def write_summary_csv(path: str,
                      rows: list[tuple[str, int | None, RunSummary]]) -> None:
    """Each row is (arm name, alpha or None, summary)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(SUMMARY_SCHEMA + "\n")
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_FIELDS)
        def opt(x) -> str | int:
            return x if x is not None else "-"

        for arm, alpha, s in rows:
            writer.writerow([
                arm, opt(alpha), s.prompts, s.calls,
                s.tokens, s.emitted, _fmt_float(s.tau),
                _fmt_float(s.mean_accepted_len),
                _fmt_float(s.speedup) if s.speedup is not None else "-",
                opt(s.tcr_p25), opt(s.tcr_p50), opt(s.tcr_p75),
                opt(s.tcr_p95), s.sentinels])


def read_summary_csv(path: str) -> list[dict[str, str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        first = fh.readline().rstrip("\n")
        if first != SUMMARY_SCHEMA:
            raise ValueError(f"{path}: unexpected schema line {first!r}")
        return list(csv.DictReader(fh))


def write_tcr_histogram_csv(path: str,
                            records: list[IterationRecord]) -> None:
    """Rank histogram over accepting iterations plus one sentinel row
    counting the iterations that accepted nothing."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(TCR_HISTOGRAM_SCHEMA + "\n")
        writer = csv.writer(fh)
        writer.writerow(("rank", "count"))
        for rank, count in tcr_histogram(records):
            writer.writerow((rank, count))
        writer.writerow(("sentinel",
                         sum(1 for r in records if r.accepted_len == 0)))


def write_tcr_by_accepted_csv(path: str,
                              records: list[IterationRecord]) -> None:
    """Mean accepted length per terminal rank, accepting iterations only."""
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for r in records:
        if r.accepted_len >= 1:
            counts[r.tcr] = counts.get(r.tcr, 0) + 1
            sums[r.tcr] = sums.get(r.tcr, 0.0) + r.accepted_len
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(TCR_BY_ACCEPTED_SCHEMA + "\n")
        writer = csv.writer(fh)
        writer.writerow(("tcr", "iterations", "mean_accepted_len"))
        for rank in sorted(counts):
            writer.writerow((rank, counts[rank],
                             _fmt_float(sums[rank] / counts[rank])))


def write_bin_occupancy_csv(path: str, records: list[IterationRecord],
                            edges: list[tuple[float, float]] | None = None) -> None:
    """Iteration count and mean accepted length per entropy bin. Bins that
    exist in the binning model but saw no iterations still get a row, so
    the count column always sums to the number of iterations."""
    stats = {b: (c, m) for b, c, m in per_bin_stats(records)}
    known = sorted(stats)
    if edges is not None:
        known = sorted(set(range(len(edges))) | set(stats))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(BIN_OCCUPANCY_SCHEMA + "\n")
        writer = csv.writer(fh)
        writer.writerow(("bin", "lo", "hi", "iterations", "mean_accepted_len"))
        for b in known:
            lo = hi = "-"
            if edges is not None and 0 <= b < len(edges):
                lo, hi = (_fmt_float(edges[b][0]), _fmt_float(edges[b][1]))
            count, mean = stats.get(b, (0, None))
            writer.writerow((b, lo, hi, count,
                             _fmt_float(mean) if mean is not None else "-"))
