"""Decoding loops and the per-bin adaptation rule.

The deterministic planted chain makes every quantity in these tests exact:
a rho-0.97 template gives full 5-token acceptance each iteration, so call
counts, ranks, and tau are known in closed form."""
from __future__ import annotations

import numpy as np
import pytest

from conftest import FixedDistModel, chain_template_model, make_vocab
from heterospec.binning import BinningModel
from heterospec.config import config_from_dict
from heterospec.control import (
    GAMMAS,
    AdaptDecision,
    HeteroConfig,
    adapt,
    decode_adaptive,
    decode_baseline,
    default_alpha,
    greedy_reference,
    round_half_up,
    run_arm,
    run_comparison,
)
from heterospec.errors import ConfigError, OutputMismatchError
from heterospec.metrics import validate_run
from heterospec.models import LanguageModel, PerturbedDraftModel
from heterospec.vocab import Vocabulary


def flat_bins(*thresholds: float) -> BinningModel:
    n = len(thresholds) + 1
    return BinningModel(thresholds=tuple(thresholds), means=(0.0,) * n,
                        counts=(1,) * n)


# ------------------------------------------------------------ adaptation


def test_round_half_up_rounds_halves_away_from_floor():
    assert round_half_up(0.5) == 1
    assert round_half_up(1.5) == 2
    assert round_half_up(2.5) == 3  # unlike banker's rounding
    assert round_half_up(0.49) == 0
    assert round_half_up(6.0) == 6
    assert round_half_up(-0.5) == 0


def test_default_alpha_is_ceil_half_depth():
    assert [default_alpha(d) for d in range(1, 7)] == [1, 1, 2, 2, 3, 3]


def test_adapt_worked_examples():
    low = (0, 1, 2)
    assert adapt(0, 3, 20, low) == AdaptDecision(3, 9)    # 0.3*20 + 3
    assert adapt(1, 3, 20, low) == AdaptDecision(2, 14)   # 0.6*20 + 2
    assert adapt(2, 3, 20, low) == AdaptDecision(1, 21)   # 1.0*20 + 1
    assert adapt(5, 3, 20, low) == AdaptDecision(0, 20)   # not a low bin
    assert GAMMAS == (0.3, 0.6, 1.0)


def test_adapt_alpha_zero_prunes_without_deepening():
    assert adapt(0, 0, 20, (0, 1, 2)) == AdaptDecision(0, 6)


def test_adapt_budget_floors_at_one():
    assert adapt(0, 0, 1, (0,)) == AdaptDecision(0, 1)


def test_adapt_negative_depth_delta_clamps():
    # bin past alpha: no extra layers, budget still shifted down
    assert adapt(2, 1, 20, (0, 1, 2)) == AdaptDecision(0, 19)


def test_adapt_gamma_defaults_to_one_past_table():
    assert adapt(4, 6, 20, (0, 1, 2, 3, 4)) == AdaptDecision(2, 22)


# -------------------------------------------------------------- config


def test_config_validation():
    for bad in [dict(depth=0), dict(top_k=0), dict(top_n=0),
                dict(max_new_tokens=0), dict(alpha=-1), dict(expand_width=0),
                dict(entropy_k=0)]:
        with pytest.raises(ConfigError):
            HeteroConfig(**bad)
    # the extra layers are grown in one batch; there is no extension mode
    with pytest.raises(ConfigError, match="unknown keys"):
        config_from_dict({"controller": {"extension": "iterative"}})


def test_config_resolution_fills_derived_fields():
    cfg = HeteroConfig().resolved()
    assert cfg.expand_width == cfg.top_k == 2
    assert cfg.alpha == 3  # depth 5
    assert cfg.entropy_k == 2
    explicit = HeteroConfig(depth=4, expand_width=1, alpha=0, entropy_k=5)
    res = explicit.resolved()
    assert (res.expand_width, res.alpha, res.entropy_k) == (1, 0, 5)
    assert res.resolved() == res


# ------------------------------------------------------------- decoding


def test_greedy_reference_follows_template():
    model, tpl = chain_template_model()
    assert greedy_reference(model, tpl[:4], 10) == list(tpl[4:14])
    assert greedy_reference(model, tpl[:4], 10, terminator=tpl[6]) == \
        list(tpl[4:7])
    assert greedy_reference(model, tpl[:4], 3) == list(tpl[4:7])


def test_baseline_perfect_draft_accepts_full_depth():
    model, tpl = chain_template_model()
    cfg = HeteroConfig(depth=5, top_k=2, top_n=20, max_new_tokens=60)
    res = decode_baseline(model, model, tpl[:6], cfg)
    assert res.tokens == greedy_reference(model, tpl[:6], 60)
    assert len(res.records) == 10  # 6 tokens per call
    for r in res.records:
        assert r.accepted_len == 5
        assert r.emitted == 6
        assert r.tcr == 5  # the chain occupies the top ranks
        assert r.bin == -1  # no binning model consulted
        assert r.tree_size <= 20
    assert [r.iteration for r in res.records] == list(range(10))
    assert validate_run(res.records, expected_emitted=60) == []


def test_baseline_uniform_draft_still_exact():
    model, tpl = chain_template_model()
    blind = PerturbedDraftModel(model, noise=1.0)  # uniform proposals
    cfg = HeteroConfig(depth=5, top_k=2, top_n=20, max_new_tokens=40)
    res = decode_baseline(model, blind, tpl[:6], cfg)
    assert res.tokens == greedy_reference(model, tpl[:6], 40)
    # past the prompt the chain never revisits tokens 0/1, the only ones a
    # uniform draft proposes, so nothing is ever accepted
    assert all(r.accepted_len == 0 for r in res.records)
    assert all(r.tcr == r.tree_size + 1 for r in res.records)
    assert len(res.records) == 40


def test_terminator_cuts_emitted_block():
    model, tpl = chain_template_model()
    cfg = HeteroConfig(depth=5, top_k=2, top_n=20, max_new_tokens=60,
                       terminator=tpl[9])
    res = decode_baseline(model, model, tpl[:6], cfg)
    assert res.tokens == list(tpl[6:10])
    assert res.tokens == greedy_reference(model, tpl[:6], 60, terminator=tpl[9])
    (r,) = res.records
    assert (r.accepted_len, r.emitted, r.tcr) == (3, 4, 3)
    assert validate_run(res.records) == []


def test_token_budget_cuts_emitted_block():
    model, tpl = chain_template_model()
    cfg = HeteroConfig(depth=5, top_k=2, top_n=20, max_new_tokens=4)
    res = decode_baseline(model, model, tpl[:6], cfg)
    assert res.tokens == greedy_reference(model, tpl[:6], 4)
    (r,) = res.records
    assert (r.accepted_len, r.emitted, r.tcr) == (3, 4, 3)


def test_vocabulary_mismatch_rejected():
    model, tpl = chain_template_model()
    with pytest.raises(ConfigError, match="vocabularies"):
        decode_baseline(model, FixedDistModel((0.5, 0.5)), tpl[:6],
                        HeteroConfig())


def test_adaptive_with_no_low_bins_reduces_to_baseline():
    model, tpl = chain_template_model()
    draft = PerturbedDraftModel(model, noise=0.1)
    bins = flat_bins(0.02, 0.05)
    cfg = HeteroConfig(depth=4, top_k=2, top_n=12, max_new_tokens=48,
                       low_bins=())
    adaptive = decode_adaptive(model, draft, tpl[:6], cfg, bins)
    baseline = decode_baseline(model, draft, tpl[:6], cfg, bins=bins)
    assert adaptive.tokens == baseline.tokens
    assert adaptive.records == baseline.records


def test_adaptive_low_entropy_drafts_deeper():
    # rho 0.99: cumulative entropy ~0.006 nats, far below every threshold
    model, tpl = chain_template_model(rho=0.99)
    bins = flat_bins(0.5, 1.0, 1.5)
    cfg = HeteroConfig(depth=5, top_k=2, top_n=20, alpha=3, max_new_tokens=60)
    res = decode_adaptive(model, model, tpl[:6], cfg, bins)
    assert res.tokens == greedy_reference(model, tpl[:6], 60)
    for r in res.records:
        assert r.bin == 0
        assert r.draft_depth == 8  # 5 + (alpha - bin)
        assert r.top_n == 9        # round_half_up(0.3 * 20) + 3
    # 9-token blocks instead of 6: fewer verification calls
    assert len(res.records) == 7
    assert max(r.accepted_len for r in res.records) == 8
    assert validate_run(res.records, expected_emitted=60) == []


def test_adaptive_alpha_zero_keeps_depth():
    model, tpl = chain_template_model(rho=0.99)
    bins = flat_bins(0.5, 1.0, 1.5)
    cfg = HeteroConfig(depth=5, top_k=2, top_n=20, alpha=0, max_new_tokens=30)
    res = decode_adaptive(model, model, tpl[:6], cfg, bins)
    assert res.tokens == greedy_reference(model, tpl[:6], 30)
    for r in res.records:
        assert r.draft_depth == 5
        assert r.top_n == 6  # round_half_up(0.3 * 20) + 0


# ------------------------------------------------------------ arm runner


def test_run_arm_indexes_prompts():
    model, tpl = chain_template_model()
    prompts = [tpl[:4], tpl[1:6]]
    cfg = HeteroConfig(depth=3, top_k=2, top_n=8, max_new_tokens=12)
    arm = run_arm("baseline", decode_baseline, model, model, prompts, cfg)
    assert arm.name == "baseline"
    assert arm.alpha == 2  # resolved from depth 3
    assert len(arm.outputs) == 2
    assert sorted({r.prompt for r in arm.records}) == [0, 1]
    assert arm.summary.prompts == 2
    assert arm.summary.emitted == 24


def test_run_comparison_rows_and_agreement():
    model, tpl = chain_template_model(rho=0.99)
    draft = PerturbedDraftModel(model, noise=0.02)
    bins = flat_bins(0.5, 1.0, 1.5)
    cfg = HeteroConfig(depth=4, top_k=2, top_n=12, max_new_tokens=24)
    comp = run_comparison(model, draft, [tpl[:5], tpl[:7]], cfg, bins,
                          alphas=[1, 2])
    rows = comp.rows()
    assert [(name, alpha) for name, alpha, _ in rows] == \
        [("baseline", None), ("adaptive", 1), ("adaptive", 2)]
    for arm in comp.adaptive:
        assert arm.outputs == comp.baseline.outputs


class _CountingDraft(LanguageModel):
    """One-hot proposals for token 0; counts its own calls."""

    def __init__(self, vocab: Vocabulary):
        self.vocab = vocab
        self.calls = 0

    def next_dist(self, context):
        self.calls += 1
        dist = np.zeros(self.vocab.size)
        dist[0] = 1.0
        return dist


class _SpitefulTarget(LanguageModel):
    """Greedy continuation flips once the draft has been called enough.

    Deterministic in context for any single arm, but the adaptive arm
    drafts deeper and trips the flip earlier: a controlled way to make two
    arms disagree and exercise the output cross-check."""

    def __init__(self, vocab: Vocabulary, draft: _CountingDraft, flip_after: int):
        self.vocab = vocab
        self.draft = draft
        self.flip_after = flip_after

    def next_dist(self, context):
        tok = 0 if self.draft.calls <= self.flip_after else 1
        dist = np.zeros(self.vocab.size)
        dist[tok] = 1.0
        return dist


def test_run_comparison_detects_output_divergence():
    # baseline finishes after 2 draft calls; the adaptive arm reaches 5
    # within one iteration, so a flip at 3 splits the two arms
    vocab = make_vocab(2)
    draft = _CountingDraft(vocab)
    target = _SpitefulTarget(vocab, draft, flip_after=3)
    cfg = HeteroConfig(depth=1, top_k=1, top_n=4, alpha=2, low_bins=(0,),
                       max_new_tokens=4)
    with pytest.raises(OutputMismatchError, match="alpha=2"):
        run_comparison(target, draft, [(0,)], cfg, flat_bins(), alphas=[2])
