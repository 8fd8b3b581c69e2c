"""Top-K step entropy and meta-path selection.

Closed-form values are pinned to high precision; hypothesis covers the
k = 1 degeneracy, the ln(min(K, V)) bound, and permutation invariance."""
from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (FixedDistModel, ScriptedModel, make_vocab, prob_dists, selection_ks,
                      selection_rows, topk_entropy)
from heterospec.entropy import select_meta_path, step_entropy, tree_entropy_signal
from heterospec.errors import ConfigError
from heterospec.models import DistRecord
from heterospec.tree import DEPTH, STEP, TOKEN, TopK, expand, path


def _entropy_full_sort(dist, k):
    """topk_step_entropy with a full sort, as the selection oracle."""
    top = np.sort(dist)[-k:] if k < dist.shape[0] else dist
    total = top.sum()
    if total <= 0.0:
        return 0.0
    p = top / total
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum()) + 0.0


@given(selection_rows(), st.data())
def test_topk_entropy_bitwise_equals_full_sort(dist, data):
    # k >= 8 reaches numpy's 8-lane summation, k >= V the index-order path
    k = data.draw(selection_ks(dist.shape[0]), label="k")
    assert topk_entropy(dist, k).hex() == _entropy_full_sort(dist, k).hex()


def test_step_entropy_is_kept_in_the_records_selection():
    rec = DistRecord(np.asarray([0.5, 0.25, 0.125, 0.125]))
    for k in (2, 3):
        value = step_entropy(rec, k)
        assert value == topk_entropy(rec.dist, k)
        assert rec.derive(TopK, k).entropy == value  # the one selection
        assert step_entropy(rec, k) == value
    assert step_entropy(rec, 2) != step_entropy(rec, 3)


def test_one_hot_entropy_is_zero():
    assert topk_entropy(np.asarray([0.0, 1.0, 0.0]), 2) == 0.0


def test_uniform_pair_entropy_is_ln2():
    val = topk_entropy(np.asarray([0.25, 0.25, 0.25, 0.25]), 2)
    assert val == pytest.approx(math.log(2.0), rel=1e-15)


def test_top2_slice_of_skewed_dist():
    # top-2 of (0.7, 0.2, 0.1) renormalizes to (7/9, 2/9)
    val = topk_entropy(np.asarray([0.7, 0.2, 0.1]), 2)
    assert val == pytest.approx(0.52970619905765452117, abs=1e-15)


def test_k_larger_than_support_clamps():
    dist = np.asarray([0.5, 0.3, 0.2])
    assert topk_entropy(dist, 3) == topk_entropy(dist, 50)


def test_zero_mass_slice_returns_zero():
    assert topk_entropy(np.zeros(4), 2) == 0.0


@given(prob_dists())
def test_k1_always_zero(dist):
    assert topk_entropy(dist, 1) == 0.0


@given(prob_dists(), st.integers(1, 20))
def test_entropy_bounded_by_log_slice_size(dist, k):
    val = topk_entropy(dist, k)
    assert 0.0 <= val <= math.log(min(k, dist.shape[0])) + 1e-12


@given(prob_dists(max_size=10), st.integers(1, 12), st.randoms(use_true_random=False))
def test_entropy_permutation_invariant(dist, k, pyrandom):
    shuffled = dist.copy()
    pyrandom.shuffle(shuffled)
    assert topk_entropy(shuffled, k) == pytest.approx(
        topk_entropy(dist, k), abs=1e-12)


def test_agrees_with_extended_precision():
    rng = np.random.default_rng(13)
    with mpmath.workdps(50):
        for _ in range(200):
            size = int(rng.integers(2, 12))
            dist = rng.dirichlet(np.full(size, 0.5))
            k = int(rng.integers(1, size + 2))
            top = sorted((mpmath.mpf(x) for x in dist), reverse=True)[:k]
            total = mpmath.fsum(top)
            exact = -mpmath.fsum(p / total * mpmath.log(p / total)
                                 for p in top if p > 0)
            assert abs(topk_entropy(dist, k) - float(exact)) <= 1e-9


def test_cumulative_signal_adds_steps():
    # two identical (0.7, 0.2, 0.1) steps along a chain
    model = FixedDistModel((0.7, 0.2, 0.1))
    tree = expand(model, (5,), depth=2, top_k=1)
    leaf = select_meta_path(tree)
    steps = [topk_entropy(n[STEP].dist, 2) for n in path(leaf)]
    assert len(steps) == 2
    assert steps == pytest.approx([0.52970619905765452117] * 2)
    signal = tree_entropy_signal(tree, 2)
    assert signal == pytest.approx(1.0594123981153090423, abs=1e-15)
    assert signal == sum(steps)
    assert np.max(leaf[STEP].dist) == 0.7
    assert leaf is tree.deepest_layer()[0]


def test_meta_path_prefers_confident_final_step():
    # branch 1 ends on a sharper distribution despite the lower path value
    table = {
        (9,): (0.6, 0.4, 0.0),
        (9, 0): (0.5, 0.25, 0.25),
        (9, 1): (0.9, 0.05, 0.05),
    }
    tree = expand(ScriptedModel(table, make_vocab(3)), (9,), depth=2, top_k=2)
    leaf = select_meta_path(tree)
    assert np.max(leaf[STEP].dist) == 0.9
    assert path(leaf)[0][TOKEN] == 1


def test_meta_path_tie_prefers_higher_value():
    # equal final top-1: the higher-value parent branch wins
    table = {
        (3,): (0.7, 0.3, 0.0),
        (3, 0): (0.8, 0.1, 0.1),
        (3, 1): (0.8, 0.2, 0.0),
    }
    tree = expand(ScriptedModel(table, make_vocab(3)), (3,), depth=2, top_k=2)
    leaf = select_meta_path(tree)
    assert path(leaf)[0][TOKEN] == 0


def test_meta_path_uses_deepest_layer_after_truncation():
    dead = np.zeros(3)
    model = ScriptedModel({(): (0.6, 0.4, 0.0), (0,): dead, (1,): dead},
                          make_vocab(3))
    tree = expand(model, (), depth=3, top_k=2)
    leaf = select_meta_path(tree)
    assert [n[DEPTH] for n in path(leaf)] == [1]


def test_meta_path_empty_tree_rejected():
    tree = expand(FixedDistModel(np.zeros(3)), (0,), depth=2, top_k=2)
    with pytest.raises(ConfigError):
        select_meta_path(tree)
