"""Greedy tree verification, and the stochastic accept/residual rule of the
chain sampling reference that acceptance criterion 2 runs."""
from __future__ import annotations

import numpy as np
import pytest

from chain_sampling import (
    accept_prob,
    residual_dist,
    sample_chain,
    sample_from,
    verify_stochastic_chain,
)
from conftest import FixedDistModel, ScriptedModel, chain_template_model, make_vocab
from heterospec.tree import expand, rerank
from heterospec.control import argmax_token, verify_greedy


def test_argmax_token_tie_goes_to_smaller_id():
    assert argmax_token(np.asarray([0.4, 0.4, 0.2])) == 0
    assert argmax_token(np.asarray([0.1, 0.5, 0.5])) == 1
    assert argmax_token(np.asarray([0.0, 0.0, 1.0])) == 2


def test_accept_prob_ratio_and_cap():
    target = np.asarray([0.5, 0.5])
    draft = np.asarray([0.9, 0.1])
    assert accept_prob(target, draft, 0) == pytest.approx(5.0 / 9.0)
    assert accept_prob(target, draft, 1) == 1.0  # ratio 5 capped
    assert accept_prob(target, target, 0) == 1.0
    # zero draft mass is vacuously accepted
    assert accept_prob(np.asarray([0.3, 0.7]), np.asarray([1.0, 0.0]), 1) == 1.0


def test_residual_dist_clips_and_normalizes():
    resid = residual_dist(np.asarray([0.6, 0.4]), np.asarray([0.2, 0.8]))
    assert resid == pytest.approx([1.0, 0.0])
    resid = residual_dist(np.asarray([0.0, 1.0]), np.asarray([1.0, 0.0]))
    assert resid == pytest.approx([0.0, 1.0])


def test_residual_dist_identical_models_falls_back_to_target():
    target = np.asarray([0.25, 0.75])
    resid = residual_dist(target, target.copy())
    assert resid == pytest.approx([0.25, 0.75])
    assert resid is not target  # caller may mutate freely


def _hand_tree():
    # a(0): 0.6   b(1): 0.4   c(2) under a: 0.9 -> value 0.54, and a 0.03
    # node under a that a budget of 3 prunes
    draft = ScriptedModel({(): (0.6, 0.4, 0.0), (0,): (0.05, 0.05, 0.9),
                           (1,): np.zeros(3)}, make_vocab(3))
    return expand(draft, (), depth=2, top_k=2)


def test_verify_greedy_hand_walk():
    ranks = rerank(_hand_tree(), 3)
    assert list(ranks.items()) == [((0,), 1), ((0, 2), 2), ((1,), 3)]  # value order
    target = ScriptedModel({(): (0.5, 0.3, 0.2),
                            (0,): (0.1, 0.2, 0.7),
                            (0, 2): (0.2, 0.7, 0.1)}, make_vocab(3))
    res = verify_greedy(ranks, target, ())
    assert res.accepted_tokens == (0, 2)
    assert ranks[res.accepted_tokens] == 2
    assert res.bonus_token == 1
    assert res.accepted_len == 2
    assert res.accepted_tokens + (res.bonus_token,) == (0, 2, 1)


def test_verify_greedy_immediate_mismatch():
    tree = expand(FixedDistModel((0.7, 0.2, 0.1)), (4,), depth=2, top_k=2)
    target = FixedDistModel((0.1, 0.1, 0.8))
    ranks = rerank(tree, 6)
    res = verify_greedy(ranks, target, (4,))
    assert res.accepted_tokens == ()
    assert (res.bonus_token,) not in ranks
    assert res.bonus_token == 2
    assert res.accepted_tokens + (res.bonus_token,) == (2,)


def test_verify_greedy_full_chain_acceptance():
    model, template = chain_template_model(length=40)
    prompt = template[:3]
    ranks = rerank(expand(model, prompt, depth=4, top_k=2), 10)
    res = verify_greedy(ranks, model, prompt)
    assert res.accepted_tokens == template[3:7]
    assert res.bonus_token == template[7]
    # the planted chain occupies the first ranks, so its leaf sits at depth
    assert ranks[res.accepted_tokens] == 4


def test_verify_greedy_respects_pruned_children():
    # budget 1 drops the accepted node's children: walk must stop there
    tree = expand(FixedDistModel((0.7, 0.2, 0.1)), (0,), depth=2, top_k=2)
    ranks = rerank(tree, 1)
    res = verify_greedy(ranks, FixedDistModel((0.7, 0.2, 0.1)), (0,))
    assert res.accepted_tokens == (0,)
    assert res.bonus_token == 0
    assert ranks == {(0,): 1}
    assert res.accepted_tokens + (res.bonus_token,) == (0, 0)


def test_sample_from_seeded_and_supported():
    rng = np.random.default_rng(0)
    onehot = np.asarray([0.0, 1.0, 0.0])
    assert all(sample_from(onehot, rng) == 1 for _ in range(50))
    dist = np.asarray([0.7, 0.3, 0.0])
    draws = [sample_from(dist, rng) for _ in range(2000)]
    assert 2 not in draws
    assert abs(np.mean([d == 0 for d in draws]) - 0.7) < 0.05
    a = [sample_from(dist, np.random.default_rng(9)) for _ in range(20)]
    b = [sample_from(dist, np.random.default_rng(9)) for _ in range(20)]
    assert a == b


def test_sample_from_tolerates_unnormalized_weights():
    rng = np.random.default_rng(1)
    draws = [sample_from(np.asarray([2.0, 6.0]), rng) for _ in range(4000)]
    assert abs(np.mean(draws) - 0.75) < 0.03


def test_sample_chain_shapes():
    model = FixedDistModel((0.5, 0.4, 0.1))
    tokens, dists = sample_chain(model, (2, 2), 3, np.random.default_rng(5))
    assert len(tokens) == len(dists) == 3
    assert all(d == pytest.approx([0.5, 0.4, 0.1]) for d in dists)
    again, _ = sample_chain(model, (2, 2), 3, np.random.default_rng(5))
    assert tokens == again


def test_stochastic_chain_identical_models_accept_everything():
    model = FixedDistModel((0.3, 0.3, 0.4))
    res = verify_stochastic_chain(model, model, (0,), 5, np.random.default_rng(2))
    assert res.accepted_tokens == res.draft_tokens
    assert len(res.emitted) == 6


def test_stochastic_chain_certain_rejection_uses_residual():
    draft = FixedDistModel((1.0, 0.0))
    target = FixedDistModel((0.0, 1.0))
    res = verify_stochastic_chain(draft, target, (), 3, np.random.default_rng(3))
    assert res.draft_tokens == [0, 0, 0]
    assert res.accepted_tokens == []
    assert res.bonus_token == 1  # residual is a point mass on token 1
    assert res.emitted == [1]


def test_stochastic_chain_acceptance_rate():
    # P(accept) = 0.9 * (0.5/0.9) + 0.1 * 1 = 0.6 for a single step
    draft = FixedDistModel((0.9, 0.1))
    target = FixedDistModel((0.5, 0.5))
    rng = np.random.default_rng(7)
    accepted = 0
    rejected_bonus = []
    for _ in range(4000):
        res = verify_stochastic_chain(draft, target, (), 1, rng)
        accepted += len(res.accepted_tokens)
        if not res.accepted_tokens:
            rejected_bonus.append(res.bonus_token)
    assert abs(accepted / 4000 - 0.6) < 0.03
    # residual max(p - q, 0) concentrates on the under-drafted token
    assert set(rejected_bonus) == {1}
