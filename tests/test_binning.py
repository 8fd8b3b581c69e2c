"""Entropy binning: split search, CART training, bin assignment, and the
bins file format. The split search is checked against a plain exhaustive
enumeration with fsum accumulation."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heterospec.binning import (
    CALIBRATION_FILTERS,
    MIN_DISTINCT_ENTROPIES,
    BinningModel,
    best_split,
    check_calibration_diversity,
    collect_calibration,
    fit_binning,
    load_bins,
    save_bins,
    train_cart,
)
from heterospec.errors import BinsFileError, CalibrationError, ConfigError
from heterospec.metrics import IterationRecord


def rec(accepted_len: int, entropy: float = 1.0, tcr: int | None = None,
        iteration: int = 0) -> IterationRecord:
    tree_size = 8
    if tcr is None:
        tcr = tree_size + 1 if accepted_len == 0 else accepted_len
    return IterationRecord(prompt=0, iteration=iteration, entropy=entropy,
                           bin=-1, draft_depth=4, top_n=8, tree_size=tree_size,
                           accepted_len=accepted_len, emitted=accepted_len + 1,
                           tcr=tcr)


# ------------------------------------------------------------- best_split


def test_best_split_separable_clusters():
    xs, ys = np.asarray([0.1, 0.2, 0.9, 1.0]), np.asarray([1.0, 1.0, 5.0, 5.0])
    threshold = best_split(xs, ys)
    assert threshold == pytest.approx(0.55)
    assert _naive_loss(xs, ys, threshold) == pytest.approx(0.0, abs=1e-12)


def test_best_split_two_points():
    xs, ys = np.asarray([0.0, 1.0]), np.asarray([0.0, 10.0])
    assert best_split(xs, ys) == 0.5
    assert _naive_loss(xs, ys, 0.5) == pytest.approx(0.0, abs=1e-12)


def test_best_split_degenerate_inputs():
    assert best_split(np.asarray([1.0]), np.asarray([3.0])) is None
    assert best_split(np.asarray([2.0, 2.0, 2.0]), np.asarray([0.0, 5.0, 9.0])) is None
    assert best_split(np.asarray([0.0, 1.0, 2.0]), np.asarray([4.0, 4.0, 4.0])) is None


def test_best_split_tie_takes_smaller_threshold():
    # zero-mean symmetric data: both candidate losses are exactly 2.25 in
    # float arithmetic, so the tie rule is exercised
    threshold = best_split(np.asarray([0.0, 1.0, 2.0]),
                           np.asarray([-1.0, 2.0, -1.0]))
    assert threshold == 0.5


def test_best_split_skips_duplicate_x():
    assert best_split(np.asarray([0.0, 0.0, 1.0]),
                      np.asarray([0.0, 5.0, 10.0])) == 0.5


def _naive_loss(xs, ys, s):
    """L(s) summed with fsum, x < s on the left."""
    def sse(group):
        mean = math.fsum(group) / len(group)
        return math.fsum((y - mean) ** 2 for y in group)

    pts = list(zip(xs.tolist(), ys.tolist()))
    left = [y for x, y in pts if x < s]
    right = [y for x, y in pts if x >= s]
    return sse(left) / len(left) + sse(right) / len(right)


def _naive_best_split(xs, ys):
    distinct = sorted(set(xs.tolist()))
    if len(distinct) < 2 or len(set(ys.tolist())) < 2:
        return None
    best = None
    for a, b in zip(distinct, distinct[1:]):
        s = (a + b) / 2.0
        loss = _naive_loss(xs, ys, s)
        if best is None or loss < best[1]:
            best = (s, loss)
    return best


def test_best_split_matches_exhaustive_enumeration():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(2, 60))
        xs = np.round(rng.uniform(0.0, 3.0, n), 1)  # duplicate-heavy
        ys = rng.normal(0.0, 1.0, n) + np.where(xs > 1.5, 3.0, 0.0)
        got = best_split(xs, ys)
        want = _naive_best_split(xs, ys)
        if want is None:
            assert got is None
            continue
        # the loss at the returned threshold is the minimum
        assert abs(_naive_loss(xs, ys, got) - want[1]) <= 1e-9
        assert abs(got - want[0]) <= 1e-9


# ------------------------------------------------------------- train_cart


def _clusters(levels: int, per: int = 3):
    xs = np.repeat(np.arange(float(levels)), per) + np.tile(
        np.arange(per) * 0.02, levels)
    ys = np.repeat(np.arange(float(levels)) * 10.0, per)
    return xs, ys


def test_train_cart_full_depth_on_eight_levels():
    xs, ys = _clusters(8)
    thresholds = train_cart(xs, ys)
    assert len(thresholds) == 7
    assert all(b > a for a, b in zip(thresholds, thresholds[1:]))
    for i, t in enumerate(thresholds):
        assert i + 0.04 < t < i + 1  # separates cluster i from i + 1


def test_train_cart_stops_when_pure():
    xs = np.asarray([0.0, 0.1, 5.0, 5.1])
    ys = np.asarray([1.0, 1.0, 9.0, 9.0])
    assert len(train_cart(xs, ys)) == 1


def test_train_cart_degenerate():
    assert train_cart(np.asarray([2.0, 2.0]), np.asarray([1.0, 9.0])) == []


# the midpoint of two adjacent doubles rounds onto one of them: up for the
# first pair, down for the second
@pytest.mark.parametrize("lo,hi", [(1.0000000000000002, 1.0000000000000004),
                                   (1.0, 1.0000000000000002)])
def test_adjacent_doubles_split_between_them(lo, hi):
    assert np.nextafter(lo, 2.0) == hi and (lo + hi) / 2.0 in (lo, hi)
    xs = np.asarray([lo] * 5 + [hi] * 5)
    ys = np.asarray([1.0] * 5 + [9.0] * 5)
    assert best_split(xs, ys) == hi
    assert train_cart(xs, ys) == [hi]
    model = fit_binning(xs, ys, entropy_k=2, base_depth=5)
    assert model.thresholds == (hi,)
    assert model.counts == (5, 5) and model.means == (1.0, 9.0)
    assert [model.assign_bin(x) for x in (lo, hi)] == [0, 1]


# ------------------------------------------------------------ fit_binning


def test_fit_binning_two_clusters():
    model = fit_binning(np.asarray([0.0, 0.1, 5.0, 5.1]),
                        np.asarray([1.0, 1.0, 9.0, 9.0]), entropy_k=2,
                        base_depth=5)
    assert model.num_bins == 2
    assert model.means == (1.0, 9.0)
    assert model.counts == (2, 2)
    assert model.entropy_k == 2 and model.base_depth == 5


def test_fit_binning_means_match_partition():
    rng = np.random.default_rng(8)
    xs = rng.uniform(0.0, 4.0, 120)
    ys = np.floor(xs) * 3.0 + rng.normal(0.0, 0.3, 120)
    model = fit_binning(xs, ys, entropy_k=2, base_depth=5)
    assert sum(model.counts) == 120
    for b in range(model.num_bins):
        members = [y for x, y in zip(xs.tolist(), ys.tolist())
                   if model.assign_bin(x) == b]
        assert len(members) == model.counts[b]
        if members:
            assert model.means[b] == pytest.approx(np.mean(members), abs=1e-12)


def test_fit_binning_constant_signal_yields_single_bin():
    model = fit_binning(np.ones(10), np.arange(10.0), entropy_k=2,
                        base_depth=5)
    assert model.thresholds == ()
    assert model.num_bins == 1
    assert model.counts == (10,)
    assert model.default_low_bins() == ()


# ----------------------------------------------------------- BinningModel


def test_assign_bin_boundary_goes_right():
    model = BinningModel(thresholds=(1.0, 2.0), means=(0.0, 0.0, 0.0),
                         counts=(1, 1, 1), entropy_k=2, base_depth=5)
    assert model.assign_bin(0.0) == 0
    assert model.assign_bin(0.99) == 0
    assert model.assign_bin(1.0) == 1  # closed-left, open-right intervals
    assert model.assign_bin(2.0) == 2
    assert model.assign_bin(50.0) == 2


@given(st.floats(0.0, 100.0, allow_nan=False))
def test_assign_bin_agrees_with_edges(x):
    model = BinningModel(thresholds=(0.5, 1.5, 4.0), means=(0.0,) * 4,
                         counts=(1,) * 4, entropy_k=2, base_depth=5)
    b = model.assign_bin(x)
    lo, hi = model.edges()[b]
    assert lo <= x < hi


def test_edges_partition_nonnegative_reals():
    model = BinningModel(thresholds=(1.0, 3.0), means=(0.0,) * 3, counts=(1,) * 3,
                         entropy_k=2, base_depth=5)
    edges = model.edges()
    assert edges[0][0] == 0.0
    assert math.isinf(edges[-1][1])
    assert all(edges[i][1] == edges[i + 1][0] for i in range(len(edges) - 1))


def test_default_low_bins_caps_at_three():
    def mk(nthr):
        return BinningModel(thresholds=tuple(float(i + 1) for i in range(nthr)),
                            means=(0.0,) * (nthr + 1), counts=(1,) * (nthr + 1),
                            entropy_k=2, base_depth=5)
    assert mk(0).default_low_bins() == ()
    assert mk(1).default_low_bins() == (0,)
    assert mk(2).default_low_bins() == (0, 1)
    assert mk(3).default_low_bins() == (0, 1, 2)
    assert mk(7).default_low_bins() == (0, 1, 2)


def test_binning_model_validation():
    with pytest.raises(ConfigError):
        BinningModel(thresholds=(1.0,), means=(0.0,), counts=(1,),
                     entropy_k=2, base_depth=5)
    with pytest.raises(ConfigError):
        BinningModel(thresholds=(1.0,), means=(0.0, 0.0), counts=(1,),
                     entropy_k=2, base_depth=5)
    with pytest.raises(ConfigError):
        BinningModel(thresholds=(2.0, 2.0), means=(0.0,) * 3, counts=(1,) * 3,
                     entropy_k=2, base_depth=5)


# ------------------------------------------------------------ file format


def test_bins_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    xs = rng.uniform(0.0, 5.0, 200)
    model = fit_binning(xs, np.floor(xs) + 1, entropy_k=2, base_depth=5)
    path = str(tmp_path / "bins.txt")
    save_bins(model, path)
    loaded = load_bins(path)
    assert loaded.thresholds == model.thresholds  # %.17g is lossless
    assert loaded.means == model.means
    assert loaded.counts == model.counts
    assert open(path).read().splitlines()[1] == "criterion: normalized"
    assert loaded.entropy_k == 2 and loaded.base_depth == 5
    for x in rng.uniform(0.0, 6.0, 500):
        assert loaded.assign_bin(float(x)) == model.assign_bin(float(x))


def test_bins_without_tree_shape_metadata_are_refused(tmp_path):
    # thresholds fitted on one tree shape bin another's signal differently,
    # so a file that does not say its shape is not read as any shape
    model = fit_binning(np.asarray([0.0, 2.0]), np.asarray([1.0, 5.0]),
                        entropy_k=2, base_depth=5)
    path = tmp_path / "bins.txt"
    save_bins(model, str(path))
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(line for line in lines if not line.startswith(
        ("entropy_k:", "base_depth:"))), encoding="utf-8")
    want = r"bins\.txt:3: expected entropy_k: \.\.\., got 'num_bins: 2'"
    with pytest.raises(BinsFileError, match=want):
        load_bins(str(path))


@st.composite
def _binning_models(draw):
    """A binning model of 1-8 bins: increasing positive thresholds, as the
    fit places them between non-negative entropies, any means and counts."""
    thresholds = sorted(draw(st.sets(st.floats(0.0, exclude_min=True,
                                               allow_infinity=False), max_size=7)))
    n = len(thresholds) + 1
    means = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                          min_size=n, max_size=n))
    counts = draw(st.lists(st.integers(0, 2 ** 63 - 1), min_size=n, max_size=n))
    return BinningModel(thresholds=tuple(thresholds), means=tuple(means),
                        counts=tuple(counts), entropy_k=draw(st.integers(1, 64)),
                        base_depth=draw(st.integers(1, 64)))


@given(_binning_models())
def test_bins_file_round_trips_any_model(tmp_path_factory, model):
    out = tmp_path_factory.mktemp("bins")
    save_bins(model, str(out / "bins.txt"))
    loaded = load_bins(str(out / "bins.txt"))
    assert loaded == model
    # saving the loaded model again writes the same bytes
    save_bins(loaded, str(out / "again.txt"))
    assert (out / "bins.txt").read_bytes() == (out / "again.txt").read_bytes()


V1 = "heterospec-bins v1\ncriterion: normalized\n"


def good_header(num_bins: int) -> str:
    """The version line and the four key lines save_bins writes."""
    return V1 + f"entropy_k: 2\nbase_depth: 5\nnum_bins: {num_bins}\n"


@pytest.mark.parametrize("text,msg", [
    ("heterospec-bins v2\nbin 0 inf 3 4\n", "version"),
    (good_header(1) + "bin 0 inf 3\n", "lo hi mean count"),
    (V1 + "what is this\nbin 0 inf 3 4\n", r"bins\.txt:3: expected entropy_k: "),
    (good_header(1) + "bin 0 oops 3 4\n", "bad number"),
    (good_header(1) + "bin 1 inf 3 4\n", "start at 0"),
    (good_header(1) + "bin 0 5 3 4\n", "end at inf"),
    (good_header(2) + "bin 0 1 3 4\nbin 2 inf 3 4\n", "contiguous"),
    (V1 + "entropy_k: 2\nbase_depth: 5\nnum_bins: x\nbin 0 inf 3 4\n", "num_bins"),
    ("heterospec-bins v1\ncriterion: gini\nbin 0 inf 3 4\n", "criterion"),
    (good_header(1), "no bin lines"),
    # a bin whose lo is not below its hi is reported at its own line
    (good_header(3) + "bin 0 1 3 4\nbin 1 1 3 4\nbin 1 inf 3 4\n",
     r"bins\.txt:7: bin thresholds must be strictly increasing"),
    (good_header(3) + "bin 0 2 3 4\nbin 2 1 3 4\nbin 1 inf 3 4\n",
     r"bins\.txt:7: bin thresholds must be strictly increasing"),
    # a bin holds a number of calibration samples, never fewer than none
    (good_header(2) + "bin 0 0.5 1.0 -4\nbin 0.5 inf 2 3\n",
     r"bins\.txt:6: negative bin count -4"),
    # metadata errors name the line that holds the key
    (V1 + "entropy_k: two\nbase_depth: 5\nnum_bins: 1\nbin 0 inf 3 4\n",
     r"bins\.txt:3: bad entropy_k"),
    (V1 + "entropy_k: 2\nbase_depth: x\nnum_bins: 1\nbin 0 inf 3 4\n",
     r"bins\.txt:4: bad base_depth"),
    (good_header(3) + "bin 0 inf 3 4\n", r"bins\.txt:5: num_bins does not"),
    ("heterospec-bins v1\ncriterion: gini\nbin 0 inf 3 4\n", r"bins\.txt:2: unknown"),
    # each key has its line: a blank, misspelt, repeated, reordered or
    # missing key line is refused where the key belongs
    (V1 + "\nentropy_k: 2\nbase_depth: 5\nnum_bins: 1\nbin 0 inf 3 4\n",
     r"bins\.txt:3: expected entropy_k: \.\.\., got ''"),
    (V1 + "entropy-k: 4\nbin 0 inf 3 4\n",
     r"bins\.txt:3: expected entropy_k: \.\.\., got 'entropy-k: 4'"),
    (V1 + "entropy_k: 2\nentropy_k: 2\nnum_bins: 1\nbin 0 inf 3 4\n",
     r"bins\.txt:4: expected base_depth: \.\.\., got 'entropy_k: 2'"),
    (V1 + "base_depth: 5\nentropy_k: 2\nnum_bins: 1\nbin 0 inf 3 4\n",
     r"bins\.txt:3: expected entropy_k: \.\.\., got 'base_depth: 5'"),
    (V1 + "entropy_k: 2\nbase_depth: 5\nbin 0 inf 3 4\n",
     r"bins\.txt:5: expected num_bins: \.\.\., got 'bin 0 inf 3 4'"),
    (V1, r"bins\.txt:3: expected entropy_k: \.\.\., got ''"),
    # the per-side normalized loss is the only split loss
    ("heterospec-bins v1\ncriterion: sse\nbin 0 inf 3 4\n",
     r"bins\.txt:2: unknown criterion 'sse'"),
])
def test_load_bins_rejects_malformed(tmp_path, text, msg):
    path = tmp_path / "bins.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(BinsFileError, match=msg) as err:
        load_bins(str(path))
    assert str(path) + ":" in str(err.value)  # path:line prefix


# ------------------------------------------------------------ calibration


def test_collect_calibration_filters():
    records = [rec(4, entropy=0.5, iteration=0), rec(4, entropy=0.7, iteration=1),
               rec(2, entropy=0.9, iteration=2), rec(0, entropy=1.1, iteration=3)]
    xs, ys = collect_calibration(records, base_depth=4, filter="fully-accepted")
    assert xs.dtype == ys.dtype == np.float64
    assert (xs.tolist(), ys.tolist()) == ([0.5, 0.7], [4.0, 4.0])
    xs, ys = collect_calibration(records, 4, filter="accepting")
    assert (xs.tolist(), ys.tolist()) == ([0.5, 0.7, 0.9], [4.0, 4.0, 2.0])
    xs, ys = collect_calibration(records, 4, filter="all")
    assert xs.tolist() == [0.5, 0.7, 0.9, 1.1]
    assert ys.tolist() == [4.0, 4.0, 2.0, 9.0]  # sentinel rank tree_size + 1
    assert CALIBRATION_FILTERS == ("fully-accepted", "accepting", "all")


def test_collect_calibration_empty_reports_counts():
    records = [rec(0, entropy=float(i)) for i in range(3)]
    with pytest.raises(CalibrationError, match=r"iterations=3.*accepting=0"):
        collect_calibration(records, base_depth=4, filter="accepting")


def test_diversity_check_needs_eight_distinct_signals():
    assert MIN_DISTINCT_ENTROPIES == 8
    check_calibration_diversity(np.arange(8.0), filter="all")  # no raise
    clumped = np.arange(9.0) % 7
    with pytest.raises(CalibrationError,
                       match=r"7 distinct entropy values across 9 samples"):
        check_calibration_diversity(clumped, filter="fully-accepted")
