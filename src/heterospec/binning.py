"""Entropy binning: a depth-3 regression stump tree over calibration data.

Calibration samples are two float64 arrays, the entropy signals ``xs`` and
the terminal confidence ranks ``ys`` of the kept decode iterations, fed to
a small CART regressor. Each node picks the threshold minimizing

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
import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (BinsFileError, CalibrationError, ConfigError, _build,
                     check_setting, finite, read_json, utf8_errors)

BINS_FORMAT = "heterospec-bins v2"  # a bins file's format key
# the split loss above, recorded in bins.txt; the only one load_bins accepts
CRITERION = "normalized"
CART_DEPTH = 3  # levels of splits in the regression tree


# which recorded iterations feed the calibration fit
CALIBRATION_FILTERS = ("fully-accepted", "accepting", "all")

# a fit over fewer distinct signal values than this cannot support the
# depth-3 partition and the calibrate step refuses to proceed
MIN_DISTINCT_ENTROPIES = 8


def check_calibration_diversity(xs: np.ndarray, filter: str) -> None:
    distinct = len(set(xs.tolist()))
    if distinct < MIN_DISTINCT_ENTROPIES:
        raise CalibrationError(
            f"insufficient calibration samples: {distinct} distinct entropy "
            f"values across {len(xs)} samples under filter {filter!r} "
            f"(need >= {MIN_DISTINCT_ENTROPIES})")


def collect_calibration(records, base_depth: int,
                        filter: str) -> tuple[np.ndarray, np.ndarray]:
    """The samples of the kept iteration records as two float64 arrays:
    ``xs``, the entropy signals, and ``ys``, the terminal confidence
    ranks, the sentinel tree size + 1 where nothing was accepted.

    "fully-accepted" keeps only iterations whose accepted length equals
    the base draft depth; "accepting" keeps any iteration that accepted at
    least one draft token, "all" keeps everything; ``CalibrationSpec``
    checks that the filter is one of these. Raises CalibrationError with
    diagnostic counts when nothing survives.
    """
    total = accepting = full = 0
    xs, ys = [], []
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
        xs.append(rec.entropy)
        ys.append(float(rec.tcr))
    if not xs:
        raise CalibrationError(
            f"calibration filter {filter!r} left no samples "
            f"(iterations={total}, accepting={accepting}, "
            f"fully_accepted={full}, base_depth={base_depth})")
    # two 1-D builds: np.array(pairs).T raised zipf-word's peak RSS 0.3 MB
    return np.array(xs, dtype=np.float64), np.array(ys, dtype=np.float64)


def best_split(xs: np.ndarray, ys: np.ndarray) -> float | None:
    """Threshold of the float64 arrays (xs, ys) minimizing the normalized
    loss L(s), or None when no split exists.

    Returns None when there are fewer than two distinct x values or the
    targets have zero variance.
    """
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
    return mid if mid > x[i] else x[i + 1]


def train_cart(xs: np.ndarray, ys: np.ndarray) -> list[float]:
    """Recursive greedy splitting of float64 arrays, depth-first,
    CART_DEPTH levels deep; returns sorted thresholds."""
    thresholds: list[float] = []

    def grow(mask: np.ndarray, depth: int) -> None:
        if depth >= CART_DEPTH:
            return
        threshold = best_split(xs[mask], ys[mask])
        if threshold is None:
            return
        thresholds.append(threshold)
        grow(mask & (xs < threshold), depth + 1)
        grow(mask & (xs >= threshold), depth + 1)

    grow(np.ones(xs.shape[0], dtype=bool), 0)
    return sorted(thresholds)


@dataclass(frozen=True)
class BinningModel:
    """Ordered entropy bins plus per-bin calibration statistics."""

    thresholds: tuple[float, ...]
    means: tuple[float, ...]
    counts: tuple[int, ...]
    entropy_k: int  # the tree shape whose meta-path entropy was binned
    base_depth: int

    def __post_init__(self):
        if len(self.means) != len(self.thresholds) + 1:
            raise ConfigError("binning model needs one mean per bin")
        if len(self.counts) != len(self.means):
            raise ConfigError("binning model needs one count per bin")
        check_setting(all(map(finite, self.thresholds))
                      and all(lo < hi for lo, hi in self.edges()), "thresholds",
                      "finite, > 0 and strictly increasing", self.thresholds)
        check_setting(all(map(finite, self.means)), "means", "finite", self.means)
        check_setting(min(self.counts) >= 0, "counts", ">= 0", self.counts)
        check_setting(self.entropy_k >= 1, "entropy_k", ">= 1", self.entropy_k)
        check_setting(self.base_depth >= 1, "base_depth", ">= 1", self.base_depth)

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


def fit_binning(xs: np.ndarray, ys: np.ndarray, entropy_k: int,
                base_depth: int) -> BinningModel:
    """Bins of the calibration samples ``xs`` and ``ys``, float64 arrays
    as ``collect_calibration`` returns them."""
    thresholds = train_cart(xs, ys)
    # closed on the left and open on the right, the rule assign_bin applies
    which = np.searchsorted(thresholds, xs, side="right")
    counts = np.bincount(which, minlength=len(thresholds) + 1)
    sums = np.bincount(which, weights=ys, minlength=len(thresholds) + 1)
    means = [float(s / c) if c else 0.0 for s, c in zip(sums, counts)]
    return BinningModel(thresholds=tuple(thresholds), means=tuple(means),
                        counts=tuple(map(int, counts)), entropy_k=entropy_k,
                        base_depth=base_depth)


def save_bins(model: BinningModel, path: str) -> None:
    """One JSON object on one line: ``format``, ``criterion``, then the
    model's fields, floats as ``json`` writes them, which round-trip."""
    data = {"format": BINS_FORMAT, "criterion": CRITERION,
            **dataclasses.asdict(model)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data) + "\n")


def load_bins(path: str) -> BinningModel:
    """The bins of a ``save_bins`` file, read by the ``BinningModel``
    fields. Any other file, a v1 file among them, is refused with a
    BinsFileError naming ``path``."""
    try:  # a BinsFileError for non-UTF-8 bytes passes through
        with utf8_errors(path, BinsFileError), open(path, encoding="utf-8") as fh:
            data = read_json(fh.read(), "bins")
        if type(data) is not dict or data.pop("format", None) != BINS_FORMAT:
            raise ConfigError(f"not a {BINS_FORMAT} file")
        if data.pop("criterion", None) != CRITERION:
            raise ConfigError(f"criterion must be {CRITERION!r}")
        return _build(BinningModel, data, "bins")
    except ConfigError as exc:
        raise BinsFileError(f"{path}: {exc}; run calibrate again") from None
