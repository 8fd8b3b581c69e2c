"""Entropy binning: a depth-3 regression stump tree over calibration data.

Calibration pairs (entropy signal, terminal confidence rank) are fed to a
small CART regressor. Each node picks the threshold minimizing

    L(s) = (1/|D_l|) sum_l (y - c_l)^2  +  (1/|D_r|) sum_r (y - c_r)^2

with the left side holding samples with x < s and c the side means.
Candidate thresholds lie between consecutive distinct sorted x values,
x[i] < s <= x[i+1]: the midpoint, or x[i+1] when the midpoint of two
adjacent doubles rounds down onto x[i]. Ties on loss go to the smaller
threshold. Three levels of splits give at most 7 thresholds, so at most 8
ordered bins partitioning [0, inf). Bin intervals are closed on the left
and open on the right: a query equal to a threshold lands in the bin to
its right, the side training put it on.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import BinsFileError, CalibrationError, ConfigError, utf8_errors
from .metrics import fmt_float

BINS_FORMAT_VERSION = 1

# the split loss above, recorded in bins.txt; the only one load_bins accepts
CRITERION = "normalized"
CART_DEPTH = 3  # levels of splits in the regression tree
# bins.txt metadata keys, in written order; each optional, and at most once
BINS_KEYS = ("criterion", "entropy_k", "base_depth", "num_bins")


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
    least one draft token, "all" keeps everything; ``CalibrationSpec``
    checks that the filter is one of these. Raises CalibrationError with
    diagnostic counts when nothing survives.
    """
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


def best_split(xs: np.ndarray, ys: np.ndarray) -> Split | None:
    """Split of (xs, ys) minimizing the normalized loss L(s), or None when
    no split exists.

    Returns None when there are fewer than two distinct x values or the
    targets have zero variance.
    """
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
    # candidate i puts x[:i+1] on the left; a side's squared error is its
    # sum of squares less its sum squared over its size
    sl, ql = csum[:-1], csq[:-1]
    sr, qr = csum[-1] - sl, csq[-1] - ql
    nl = np.arange(1, n)
    nr = n - nl
    loss = (ql - sl * sl / nl) / nl + (qr - sr * sr / nr) / nr
    loss[x[:-1] == x[1:]] = np.inf  # no threshold between equal x values
    i = int(np.argmin(loss))  # the first minimum: ties keep the smaller threshold
    mid = (x[i] + x[i + 1]) / 2.0
    return Split(threshold=mid if mid > x[i] else x[i + 1], loss=loss[i])


def train_cart(xs: np.ndarray, ys: np.ndarray) -> list[float]:
    """Recursive greedy splitting, depth-first, CART_DEPTH levels deep;
    returns sorted thresholds."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    thresholds: list[float] = []

    def grow(mask: np.ndarray, depth: int) -> None:
        if depth >= CART_DEPTH:
            return
        split = best_split(xs[mask], ys[mask])
        if split is None:
            return
        thresholds.append(split.threshold)
        grow(mask & (xs < split.threshold), depth + 1)
        grow(mask & (xs >= split.threshold), depth + 1)

    grow(np.ones(xs.shape[0], dtype=bool), 0)
    return sorted(thresholds)


@dataclass(frozen=True)
class BinningModel:
    """Ordered entropy bins plus per-bin calibration statistics."""

    thresholds: tuple[float, ...]
    means: tuple[float, ...]
    counts: tuple[int, ...]
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


def fit_binning(samples: list[CalibrationSample], entropy_k: int | None = None,
                base_depth: int | None = None) -> BinningModel:
    if not samples:
        raise CalibrationError("no calibration samples")
    xs = np.array([s.entropy for s in samples], dtype=np.float64)
    ys = np.array([s.tcr for s in samples], dtype=np.float64)
    thresholds = train_cart(xs, ys)
    means, counts = [], []
    # closed on the left and open on the right, the rule assign_bin applies
    for lo, hi in zip([-math.inf, *thresholds], [*thresholds, math.inf]):
        sel = (xs >= lo) & (xs < hi)
        counts.append(int(sel.sum()))
        means.append(float(ys[sel].mean()) if counts[-1] else 0.0)
    return BinningModel(thresholds=tuple(thresholds), means=tuple(means),
                        counts=tuple(counts), entropy_k=entropy_k,
                        base_depth=base_depth)


def save_bins(model: BinningModel, path: str) -> None:
    meta = (CRITERION, model.entropy_k, model.base_depth, model.num_bins)
    lines = [f"heterospec-bins v{BINS_FORMAT_VERSION}"]
    lines += [f"{key}: {'-' if value is None else value}"
              for key, value in zip(BINS_KEYS, meta)]
    for (lo, hi), mean, count in zip(model.edges(), model.means, model.counts):
        lines.append(f"bin {fmt_float(lo)} {fmt_float(hi)} {fmt_float(mean)} {count}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _bins_err(path: str, lineno: int, msg: str) -> BinsFileError:
    return BinsFileError(f"{path}:{lineno}: {msg}")


def load_bins(path: str) -> BinningModel:
    with utf8_errors(path, BinsFileError), open(path, encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    if not raw or raw[0].strip() != f"heterospec-bins v{BINS_FORMAT_VERSION}":
        raise _bins_err(path, 1, "missing or unsupported version line")
    meta: dict[str, tuple[int, str]] = {}  # key -> (its line, its value)
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
            if key not in BINS_KEYS:
                raise _bins_err(path, lineno, f"unknown key {key!r}")
            if key in meta:
                raise _bins_err(path, lineno, f"repeated key {key!r}")
            meta[key] = (lineno, value)
        else:
            raise _bins_err(path, lineno, f"unrecognized line {line!r}")
    lineno, criterion = meta.get("criterion", (0, CRITERION))
    if criterion != CRITERION:
        raise _bins_err(path, lineno, f"unknown criterion {criterion!r}")

    def opt_int(key: str) -> int | None:
        lineno, value = meta.get(key, (0, "-"))
        try:
            return None if value == "-" else int(value)
        except ValueError:
            raise _bins_err(path, lineno, f"bad {key}: {value!r}") from None

    if not rows:
        raise _bins_err(path, len(raw), "no bin lines")
    hi_list, means, counts = [], [], []
    for lineno, fields in rows:
        try:
            lo, hi, mean = (float(fields[0]), float(fields[1]), float(fields[2]))
            count = int(fields[3])
        except ValueError as exc:
            raise _bins_err(path, lineno, f"bad number: {exc}") from None
        if not hi_list and lo != 0.0:
            raise _bins_err(path, lineno, "first bin must start at 0")
        if hi_list and lo != hi_list[-1]:
            raise _bins_err(path, lineno, "bins must be contiguous: lo != previous hi")
        if not lo < hi:  # with contiguity, thresholds strictly increase
            raise _bins_err(path, lineno, "bin thresholds must be strictly "
                            f"increasing: lo {lo} is not below hi {hi}")
        if count < 0:
            raise _bins_err(path, lineno, f"negative bin count {count}")
        hi_list.append(hi)
        means.append(mean)
        counts.append(count)
    if not math.isinf(hi_list[-1]):
        raise _bins_err(path, rows[-1][0], "last bin must end at inf")
    if "num_bins" in meta and opt_int("num_bins") != len(rows):
        raise _bins_err(path, meta["num_bins"][0],
                        "num_bins does not match bin line count")
    return BinningModel(thresholds=tuple(hi_list[:-1]), means=tuple(means),
                        counts=tuple(counts), entropy_k=opt_int("entropy_k"),
                        base_depth=opt_int("base_depth"))
