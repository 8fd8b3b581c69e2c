"""Entropy binning: split search, CART training, bin assignment, and the
bins file format. The split search is checked against a plain exhaustive
enumeration with fsum accumulation."""
from __future__ import annotations

import json
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


@pytest.mark.parametrize("thresholds,means,counts,error", [
    ((1.0,), (0.0,), (1,), "one mean per bin"),
    ((1.0,), (0.0, 0.0), (1,), "one count per bin"),
    ((2.0, 2.0), (0.0,) * 3, (1,) * 3, "strictly increasing"),
    ((0.0,), (0.0,) * 2, (1,) * 2, "strictly increasing"),
    ((math.inf,), (0.0,) * 2, (1,) * 2, "strictly increasing"),
    ((math.nan,), (0.0,) * 2, (1,) * 2, "strictly increasing"),
    # an int too large for a float, which report's %.4f edges overflowed on
    ((10 ** 400,), (0.0,) * 2, (1,) * 2, "strictly increasing"),
    ((1.0,), (0.0, math.nan), (1,) * 2, "means must be finite, got"),
    ((1.0,), (-math.inf, 0.0), (1,) * 2, "means must be finite, got"),
    ((1.0,), (0.0, 0.0), (1, -1), "counts must be >= 0, got"),
])
def test_binning_model_validation(thresholds, means, counts, error):
    with pytest.raises(ConfigError, match=error):
        BinningModel(thresholds=thresholds, means=means, counts=counts,
                     entropy_k=2, base_depth=5)


# ------------------------------------------------------------ file format


def test_bins_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    xs = rng.uniform(0.0, 5.0, 200)
    model = fit_binning(xs, np.floor(xs) + 1, entropy_k=2, base_depth=5)
    path = str(tmp_path / "bins.txt")
    save_bins(model, path)
    loaded = load_bins(path)
    assert loaded.thresholds == model.thresholds  # repr floats are lossless
    assert loaded.means == model.means
    assert loaded.counts == model.counts
    assert loaded.entropy_k == 2 and loaded.base_depth == 5
    text = open(path, encoding="utf-8").read()
    assert text.startswith('{"format": "heterospec-bins v2", '
                           '"criterion": "normalized", "thresholds": [')
    assert text.endswith("}\n") and text.count("\n") == 1
    for x in rng.uniform(0.0, 6.0, 500):
        assert loaded.assign_bin(float(x)) == model.assign_bin(float(x))


def test_bins_without_tree_shape_metadata_are_refused(tmp_path):
    # thresholds fitted on one tree shape bin another's signal differently,
    # so a file that does not say its shape is not read as any shape
    path = tmp_path / "bins.txt"
    path.write_text(bins_text(drop=("entropy_k", "base_depth")), encoding="utf-8")
    want = (rf"bins\.txt: bins: missing keys \['entropy_k', 'base_depth'\]; "
            "run calibrate again")
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


GOOD_BINS = {"format": "heterospec-bins v2", "criterion": "normalized",
             "thresholds": [1.5], "means": [2.0, 4.0], "counts": [3, 5],
             "entropy_k": 2, "base_depth": 5}


def bins_text(drop=(), **changes) -> str:
    """A bins file: GOOD_BINS with ``changes``, without the ``drop`` keys."""
    data = {**GOOD_BINS, **changes}
    return json.dumps({k: v for k, v in data.items() if k not in drop}) + "\n"


def test_good_bins_text_loads(tmp_path):
    path = tmp_path / "bins.txt"
    path.write_text(bins_text(), encoding="utf-8")
    assert load_bins(str(path)) == BinningModel(
        thresholds=(1.5,), means=(2.0, 4.0), counts=(3, 5), entropy_k=2,
        base_depth=5)


@pytest.mark.parametrize("data,msg", [
    # a v1 file is not read as any v2 model
    ("heterospec-bins v1\ncriterion: normalized\nentropy_k: 2\nbase_depth: 5\n"
     "num_bins: 1\nbin 0 inf 3 4\n", "bins: invalid JSON: Expecting value"),
    ("", "bins: invalid JSON: Expecting value"),
    ("[]\n", "not a heterospec-bins v2 file"),
    (bins_text(format="heterospec-bins v1"), "not a heterospec-bins v2 file"),
    (bins_text(drop=("format",)), "not a heterospec-bins v2 file"),
    # the per-side normalized loss is the only split loss
    (bins_text(criterion="sse"), "criterion must be .normalized."),
    (bins_text(drop=("criterion",)), "criterion must be .normalized."),
    # every field has its key, and no other key is read
    (bins_text(drop=("thresholds",)), r"bins: missing keys \['thresholds'\]"),
    (bins_text(drop=("counts",)), r"bins: missing keys \['counts'\]"),
    (bins_text(num_bins=2), r"bins: unknown keys \['num_bins'\]"),
    (bins_text().replace('"entropy_k": 2', '"entropy_k": 2, "entropy_k": 3'),
     "bins: invalid JSON: repeated key 'entropy_k'"),
    # numbers are JSON numbers of the field's type
    (bins_text(entropy_k="2"), "bins.entropy_k: expected an integer, got '2'"),
    (bins_text(base_depth=5.0), "bins.base_depth: expected an integer, got 5.0"),
    (bins_text(thresholds=["1.5"]),
     r"bins.thresholds\[0\]: expected a number, got '1.5'"),
    (bins_text(counts=[3, True]), r"bins.counts\[1\]: expected an integer, got True"),
    (bins_text(means=[2.0, False]), r"bins.means\[1\]: expected a number, got False"),
    (bins_text(means=2.0), "bins.means: expected a list, got 2.0"),
    # the forms the v1 line parser took that save_bins never wrote
    (bins_text().replace("[1.5]", "[1_0]"), "bins: invalid JSON"),
    (bins_text().replace('"entropy_k": 2', '"entropy_k": +2'), "bins: invalid JSON"),
    (bins_text().replace('"base_depth": 5', '"base_depth": \uff15'),
     "bins: invalid JSON"),
    # NaN and Infinity literals parse, and the model refuses them
    (bins_text().replace("[1.5]", "[NaN]"), "strictly increasing"),
    (bins_text().replace("[1.5]", "[Infinity]"), "strictly increasing"),
    (bins_text(thresholds=[10 ** 400]), "strictly increasing"),
    (bins_text(means=[2.0, 10 ** 400]), "means must be finite, got"),
    (bins_text().replace("[2.0, 4.0]", "[NaN, 4.0]"), "means must be finite, got"),
    (bins_text().replace("[2.0, 4.0]", "[2.0, -Infinity]"), "means must be finite, got"),
    # thresholds strictly increase from above 0
    (bins_text(thresholds=[0.0], means=[1.0, 2.0]), "strictly increasing"),
    (bins_text(thresholds=[-1.0], means=[1.0, 2.0]), "strictly increasing"),
    (bins_text(thresholds=[2.0, 1.0], means=[1.0] * 3, counts=[1] * 3),
     "strictly increasing"),
    (bins_text(thresholds=[1.0, 1.0], means=[1.0] * 3, counts=[1] * 3),
     "strictly increasing"),
    # one mean and one count per bin, never fewer than no samples
    (bins_text(means=[2.0]), "one mean per bin"),
    (bins_text(counts=[3, 5, 1]), "one count per bin"),
    (bins_text(counts=[3, -4]), "counts must be >= 0, got"),
    # the tree shape is a controller's top_k and depth, both >= 1
    (bins_text(entropy_k=-1, base_depth=0), "entropy_k must be >= 1, got -1"),
    (bins_text(entropy_k=0), "entropy_k must be >= 1, got 0"),
    (bins_text(base_depth=0), "base_depth must be >= 1, got 0"),
    (b'{"format": "heterospec-bins v2\xff"}\n', "not UTF-8 text"),
])
def test_load_bins_rejects_malformed(tmp_path, data, msg):
    path = tmp_path / "bins.txt"
    if isinstance(data, str):
        data = data.encode("utf-8")
    path.write_bytes(data)
    with pytest.raises(BinsFileError, match=msg) as err:
        load_bins(str(path))
    assert str(err.value).startswith(f"{path}: ")


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
