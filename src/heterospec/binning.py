"""Entropy binning: a depth-3 regression stump tree over calibration data.

Calibration pairs (entropy signal, terminal confidence rank) are fed to a
small CART regressor. Each node picks the threshold minimizing

    L(s) = (1/|D_l|) sum_l (y - c_l)^2  +  (1/|D_r|) sum_r (y - c_r)^2

with the left side holding samples with x <= s and c the side means.
Candidate thresholds are midpoints of consecutive distinct sorted x
values; ties on loss go to the smaller threshold. Three levels of splits
give at most 7 thresholds, so at most 8 ordered bins partitioning
[0, inf). Bin intervals are closed on the left and open on the right: a
query equal to a threshold lands in the bin to its right.

The "sse" criterion drops the 1/|D| normalization (classic CART); the
normalized form is the default.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import BinsFileError, CalibrationError, ConfigError

BINS_FORMAT_VERSION = 1

CRITERIA = ("normalized", "sse")


@dataclass(frozen=True)
class CalibrationSample:
    """One (x, y) calibration pair from a recorded decode iteration.

    x is the cumulative top-K entropy of the iteration's meta path in
    nats, y the terminal confidence rank. The rank may be the sentinel
    value (tree size + 1) when the iteration accepted nothing.
    """

    entropy: float
    tcr: float


# which recorded iterations feed the calibration fit
CALIBRATION_FILTERS = ("fully-accepted", "accepting", "all")

# a fit over fewer distinct signal values than this cannot support the
# depth-3 partition and the calibrate step refuses to proceed
MIN_DISTINCT_ENTROPIES = 8


def check_calibration_diversity(samples: list[CalibrationSample],
                                filter: str = "?") -> None:
    distinct = len({s.entropy for s in samples})
    if distinct < MIN_DISTINCT_ENTROPIES:
        raise CalibrationError(
            f"insufficient calibration samples: {distinct} distinct entropy "
            f"values across {len(samples)} samples under filter {filter!r} "
            f"(need >= {MIN_DISTINCT_ENTROPIES})")


def collect_calibration(records, base_depth: int,
                        filter: str = "fully-accepted",
                        ) -> list[CalibrationSample]:
    """Turn iteration records into calibration samples.

    The default keeps only iterations whose accepted length equals the
    base draft depth; "accepting" keeps any iteration that accepted at
    least one draft token, "all" keeps everything. Raises
    CalibrationError with diagnostic counts when nothing survives.
    """
    if filter not in CALIBRATION_FILTERS:
        raise ConfigError(f"unknown calibration filter {filter!r}; "
                          f"expected one of {CALIBRATION_FILTERS}")
    total = accepting = full = 0
    samples: list[CalibrationSample] = []
    for rec in records:
        total += 1
        if rec.accepted_len >= 1:
            accepting += 1
        if rec.accepted_len == base_depth:
            full += 1
        if filter == "fully-accepted" and rec.accepted_len != base_depth:
            continue
        if filter == "accepting" and rec.accepted_len < 1:
            continue
        samples.append(CalibrationSample(entropy=rec.entropy,
                                         tcr=float(rec.tcr)))
    if not samples:
        raise CalibrationError(
            f"calibration filter {filter!r} left no samples "
            f"(iterations={total}, accepting={accepting}, "
            f"fully_accepted={full}, base_depth={base_depth})")
    return samples


@dataclass(frozen=True)
class Split:
    threshold: float
    loss: float


def _group_sse(q: float, s: float, n: int) -> float:
    # sum (y - mean)^2 from sum of squares q and sum s
    return q - s * s / n


def best_split(xs: np.ndarray, ys: np.ndarray,
               criterion: str = "normalized") -> Split | None:
    """Best single split of (xs, ys), or None when no split exists.

    Returns None when there are fewer than two distinct x values or the
    targets have zero variance.
    """
    if criterion not in CRITERIA:
        raise ConfigError(f"unknown split criterion {criterion!r}")
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    n = xs.shape[0]
    if n < 2:
        return None
    order = np.argsort(xs, kind="stable")
    x = xs[order]
    y = ys[order] - ys.mean()  # centering leaves the loss unchanged
    if x[0] == x[-1] or np.all(ys == ys[0]):
        return None
    csum = np.cumsum(y)
    csq = np.cumsum(y * y)
    total_sum = csum[-1]
    total_sq = csq[-1]
    best: Split | None = None
    for i in range(n - 1):
        if x[i] == x[i + 1]:
            continue
        nl = i + 1
        nr = n - nl
        sse_l = _group_sse(csq[i], csum[i], nl)
        sse_r = _group_sse(total_sq - csq[i], total_sum - csum[i], nr)
        if criterion == "normalized":
            loss = sse_l / nl + sse_r / nr
        else:
            loss = sse_l + sse_r
        if best is None or loss < best.loss:
            best = Split(threshold=(x[i] + x[i + 1]) / 2.0, loss=loss)
    return best


def train_cart(xs: np.ndarray, ys: np.ndarray, max_depth: int = 3,
               criterion: str = "normalized") -> list[float]:
    """Recursive greedy splitting, depth-first; returns sorted thresholds."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    thresholds: list[float] = []

    def grow(mask: np.ndarray, depth: int) -> None:
        if depth >= max_depth:
            return
        split = best_split(xs[mask], ys[mask], criterion)
        if split is None:
            return
        thresholds.append(split.threshold)
        grow(mask & (xs <= split.threshold), depth + 1)
        grow(mask & (xs > split.threshold), depth + 1)

    grow(np.ones(xs.shape[0], dtype=bool), 0)
    return sorted(thresholds)


@dataclass(frozen=True)
class BinningModel:
    """Ordered entropy bins plus per-bin calibration statistics."""

    thresholds: tuple[float, ...]
    means: tuple[float, ...]
    counts: tuple[int, ...]
    criterion: str = "normalized"
    entropy_k: int | None = None
    base_depth: int | None = None

    def __post_init__(self):
        if len(self.means) != len(self.thresholds) + 1:
            raise ConfigError("binning model needs one mean per bin")
        if len(self.counts) != len(self.means):
            raise ConfigError("binning model needs one count per bin")
        if any(b <= a for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise ConfigError("bin thresholds must be strictly increasing")

    @property
    def num_bins(self) -> int:
        return len(self.thresholds) + 1

    def assign_bin(self, x: float) -> int:
        return bisect.bisect_right(self.thresholds, x)

    def default_low_bins(self) -> tuple[int, ...]:
        return tuple(range(min(3, len(self.thresholds))))

    def edges(self) -> list[tuple[float, float]]:
        lo = [0.0, *self.thresholds]
        hi = [*self.thresholds, math.inf]
        return list(zip(lo, hi))


def fit_binning(samples: list[CalibrationSample], max_depth: int = 3,
                criterion: str = "normalized", entropy_k: int | None = None,
                base_depth: int | None = None) -> BinningModel:
    if not samples:
        raise CalibrationError("no calibration samples")
    xs = np.array([s.entropy for s in samples], dtype=np.float64)
    ys = np.array([s.tcr for s in samples], dtype=np.float64)
    thresholds = train_cart(xs, ys, max_depth=max_depth, criterion=criterion)
    nbins = len(thresholds) + 1
    means, counts = [], []
    for b in range(nbins):
        if b == 0:
            sel = xs <= thresholds[0] if thresholds else np.ones_like(xs, bool)
        elif b == nbins - 1:
            sel = xs > thresholds[-1]
        else:
            sel = (xs > thresholds[b - 1]) & (xs <= thresholds[b])
        counts.append(int(sel.sum()))
        means.append(float(ys[sel].mean()) if counts[-1] else 0.0)
    return BinningModel(thresholds=tuple(thresholds), means=tuple(means),
                        counts=tuple(counts), criterion=criterion,
                        entropy_k=entropy_k, base_depth=base_depth)


def _fmt(x: float) -> str:
    return "%.17g" % x


def save_bins(model: BinningModel, path: str) -> None:
    lines = [f"heterospec-bins v{BINS_FORMAT_VERSION}",
             f"criterion: {model.criterion}",
             f"entropy_k: {model.entropy_k if model.entropy_k is not None else '-'}",
             f"base_depth: {model.base_depth if model.base_depth is not None else '-'}",
             f"num_bins: {model.num_bins}"]
    for (lo, hi), mean, count in zip(model.edges(), model.means, model.counts):
        lines.append(f"bin {_fmt(lo)} {_fmt(hi)} {_fmt(mean)} {count}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _bins_err(path: str, lineno: int, msg: str) -> BinsFileError:
    return BinsFileError(f"{path}:{lineno}: {msg}")


def load_bins(path: str) -> BinningModel:
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    if not raw or raw[0].strip() != f"heterospec-bins v{BINS_FORMAT_VERSION}":
        raise _bins_err(path, 1, "missing or unsupported version line")
    meta: dict[str, str] = {}
    rows: list[tuple[int, list[str]]] = []
    for lineno, line in enumerate(raw[1:], start=2):
        line = line.strip()
        if not line:
            continue
        if line.startswith("bin "):
            fields = line.split()
            if len(fields) != 5:
                raise _bins_err(path, lineno, "bin line needs lo hi mean count")
            rows.append((lineno, fields[1:]))
        elif ": " in line:
            key, value = line.split(": ", 1)
            meta[key] = value
        else:
            raise _bins_err(path, lineno, f"unrecognized line {line!r}")
    criterion = meta.get("criterion", "normalized")
    if criterion not in CRITERIA:
        raise _bins_err(path, 1, f"unknown criterion {criterion!r}")

    def opt_int(key: str) -> int | None:
        value = meta.get(key, "-")
        try:
            return None if value == "-" else int(value)
        except ValueError:
            raise _bins_err(path, 1, f"bad {key}: {value!r}") from None

    if not rows:
        raise _bins_err(path, len(raw), "no bin lines")
    lo_list, hi_list, means, counts = [], [], [], []
    for lineno, fields in rows:
        try:
            lo, hi, mean = (float(fields[0]), float(fields[1]), float(fields[2]))
            count = int(fields[3])
        except ValueError as exc:
            raise _bins_err(path, lineno, f"bad number: {exc}") from None
        lo_list.append(lo)
        hi_list.append(hi)
        means.append(mean)
        counts.append(count)
    if lo_list[0] != 0.0:
        raise _bins_err(path, rows[0][0], "first bin must start at 0")
    if not math.isinf(hi_list[-1]):
        raise _bins_err(path, rows[-1][0], "last bin must end at inf")
    for i in range(len(rows) - 1):
        if hi_list[i] != lo_list[i + 1]:
            raise _bins_err(path, rows[i + 1][0],
                            "bins must be contiguous: lo != previous hi")
    if "num_bins" in meta and opt_int("num_bins") != len(rows):
        raise _bins_err(path, 1, "num_bins does not match bin line count")
    try:
        return BinningModel(thresholds=tuple(hi_list[:-1]), means=tuple(means),
                            counts=tuple(counts), criterion=criterion,
                            entropy_k=opt_int("entropy_k"),
                            base_depth=opt_int("base_depth"))
    except ConfigError as exc:
        raise _bins_err(path, 1, str(exc)) from None
