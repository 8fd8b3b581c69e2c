"""Decoding loops and the per-bin adaptation rule.

The deterministic planted chain makes every quantity in these tests exact:
a rho-0.97 template gives full 5-token acceptance each iteration, so call
counts, ranks, and tau are known in closed form."""
from __future__ import annotations

import numpy as np
import pytest

from conftest import (FixedDistModel, PlantedTemplateModel, chain_template_model,
                      make_vocab)
from heterospec import control, pipeline
from heterospec.binning import BinningModel
from heterospec.config import config_from_dict
from heterospec.control import (
    GAMMAS,
    AcceptResult,
    HeteroConfig,
    adapt,
    decode_adaptive,
    decode_baseline,
    default_alpha,
    greedy_reference,
    round_half_up,
    run_arm,
    run_comparison,
    step,
    verify_greedy,
)
from heterospec.errors import ConfigError, OutputMismatchError
from heterospec.metrics import IterationRecord, validate_run
from heterospec.models import DistRecord, LanguageModel, PerturbedDraftModel
from heterospec.tree import expand, rerank, tree_entropy_signal
from heterospec.vocab import Vocabulary


def flat_bins(*thresholds: float) -> BinningModel:
    n = len(thresholds) + 1
    return BinningModel(thresholds=tuple(thresholds), means=(0.0,) * n,
                        counts=(1,) * n, entropy_k=2, base_depth=4)


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
    assert adapt(0, 3, 20, low) == (3, 9)    # 0.3*20 + 3
    assert adapt(1, 3, 20, low) == (2, 14)   # 0.6*20 + 2
    assert adapt(2, 3, 20, low) == (1, 21)   # 1.0*20 + 1
    assert adapt(5, 3, 20, low) == (0, 20)   # not a low bin
    assert GAMMAS == (0.3, 0.6, 1.0)


def test_adapt_alpha_zero_prunes_without_deepening():
    assert adapt(0, 0, 20, (0, 1, 2)) == (0, 6)


def test_adapt_budget_floors_at_one():
    assert adapt(0, 0, 1, (0,)) == (0, 1)


def test_adapt_negative_depth_delta_clamps():
    # bin past alpha: no extra layers, budget still shifted down
    assert adapt(2, 1, 20, (0, 1, 2)) == (0, 19)


def test_adapt_gamma_defaults_to_one_past_table():
    assert adapt(4, 6, 20, (0, 1, 2, 3, 4)) == (2, 22)


# -------------------------------------------------------------- config


def test_config_validation():
    for bad in [dict(depth=0), dict(top_k=0), dict(top_n=0),
                dict(max_new_tokens=0), dict(alpha=-1)]:
        with pytest.raises(ConfigError):
            HeteroConfig(**bad)
    # the extra layers are grown in one batch; there is no extension mode
    with pytest.raises(ConfigError, match="unknown keys"):
        config_from_dict({"controller": {"extension": "iterative"}})


def test_config_resolution_fills_derived_fields():
    cfg = HeteroConfig().resolved()
    assert cfg.alpha == 3  # depth 5
    assert cfg == HeteroConfig(alpha=3)  # alpha is the only derived field
    explicit = HeteroConfig(depth=4, alpha=0)
    res = explicit.resolved()
    assert res.alpha == 0
    # a resolved config is returned as it is, with no copy
    assert res is explicit
    assert cfg.resolved() is cfg
    for depth in range(1, 7):
        assert HeteroConfig(depth=depth).resolved().alpha == (depth + 1) // 2


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
    # the loop builds records with tuple.__new__, which checks no arity
    assert all(type(r) is IterationRecord
               and len(r) == len(IterationRecord._fields) for r in res.records)
    ranks = rerank(expand(model, tpl[:6], 5, 2), 20)
    result = verify_greedy(ranks, model, tpl[:6])
    assert type(result) is AcceptResult
    assert result == (tpl[6:11], tpl[11])
    assert result.accepted_len == len(result.accepted_tokens) == 5


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


def test_step_scores_a_held_out_position(monkeypatch):
    # the draft's chain swaps token 73 for 90, so from the held-out context
    # tpl[:70] it drafts 70, 71, 72, 90, 74 at ranks 1-5: every other node
    # is worth under (1 - rho) / 90 of its parent
    target, tpl = chain_template_model()
    swapped = tpl[:73] + (90,) + tpl[74:]
    draft = PlantedTemplateModel(target.vocab, [swapped], rho=0.97)
    cfg = HeteroConfig(depth=5, top_k=2, top_n=8, max_new_tokens=60).resolved()
    context = tpl[:70]
    free = decode_baseline(target, draft, tpl[:6], cfg)
    assert context not in _decode_states(draft, tpl[:6], free)
    entropy = tree_entropy_signal(expand(draft, context, 5, 2))

    expanded = []
    real_expand = control.expand

    def counting_expand(model, context, depth, top_k):
        expanded.append(context)
        return real_expand(model, context, depth, top_k)

    monkeypatch.setattr(control, "expand", counting_expand)
    memo = {}
    # the target walks 70, 71, 72 through the kept nodes of ranks 1-3; its
    # 73 is no child of 72 (those are 90 and 0), so 73 is the bonus
    want = ((70, 71, 72, 73), (entropy, -1, 5, 8, 8, 3, 4, 3))
    assert step(target, draft, context, context, cfg, None, (), memo, 60) == want
    assert step(target, draft, context, context, cfg, None, (), memo, 60) == want
    # the budget cut restates the accounting: 2 emitted, 1 accepted at rank 1
    assert step(target, draft, context, context, cfg, None, (), memo, 2) == \
        ((70, 71), (entropy, -1, 5, 8, 8, 1, 2, 1))
    assert expanded == [context]


def test_vocabulary_mismatch_rejected():
    model, tpl = chain_template_model()
    with pytest.raises(ConfigError, match="vocabularies"):
        decode_baseline(model, FixedDistModel((0.5, 0.5)), tpl[:6],
                        HeteroConfig())
    symbols = model.vocab.symbols
    renamed = Vocabulary(symbols[1:-1] + symbols[:1] + symbols[-1:], "word")
    with pytest.raises(ConfigError, match="vocabularies"):
        decode_baseline(model, PlantedTemplateModel(renamed, [tpl], rho=0.97),
                        tpl[:6], HeteroConfig())
    # a distinct Vocabulary object with equal symbols is the same vocabulary
    twin = Vocabulary(symbols, "word")
    assert twin is not model.vocab
    cfg = HeteroConfig(max_new_tokens=12)
    res = decode_baseline(model, PlantedTemplateModel(twin, [tpl], rho=0.97),
                          tpl[:6], cfg)
    assert res.tokens == greedy_reference(model, tpl[:6], 12)


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
    for alpha in (None, 1, 2):
        cfg = HeteroConfig(depth=4, top_k=2, top_n=12, alpha=alpha,
                           max_new_tokens=24)
        comp = run_comparison(model, draft, [tpl[:5], tpl[:7]], cfg, bins)
        rows = comp.rows()
        assert [(name, a) for name, a, _ in rows] == \
            [("baseline", None), ("adaptive", cfg.resolved().alpha)]
        assert [s for _, _, s in rows] == [comp.baseline.summary,
                                           comp.adaptive.summary]
        assert comp.adaptive.outputs == comp.baseline.outputs


class _CountingDraft(LanguageModel):
    """One-hot proposals for token 0; counts its own calls."""

    def __init__(self, vocab: Vocabulary):
        self.vocab = vocab
        self.calls = 0

    def next_dist(self, context):
        # a fresh record per call: the memo would hide calls from the count
        self.calls += 1
        dist = np.zeros(self.vocab.size)
        dist[0] = 1.0
        return DistRecord(dist)


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
        # not a function of context, so a fresh record per call
        tok = 0 if self.draft.calls <= self.flip_after else 1
        dist = np.zeros(self.vocab.size)
        dist[tok] = 1.0
        return DistRecord(dist)


def test_run_comparison_detects_output_divergence():
    # baseline finishes after 2 draft calls; the adaptive arm reaches 5
    # within one iteration, so a flip at 3 splits the two arms
    vocab = make_vocab(2)
    draft = _CountingDraft(vocab)
    target = _SpitefulTarget(vocab, draft, flip_after=3)
    cfg = HeteroConfig(depth=1, top_k=1, top_n=4, alpha=2, low_bins=(0,),
                       max_new_tokens=4)
    with pytest.raises(OutputMismatchError, match="alpha=2"):
        run_comparison(target, draft, [(0,)], cfg, flat_bins())


# ------------------------------------------------------------ draft memo


class _WholeContextModel(LanguageModel):
    """The same distributions under the default ``state_key``, the whole
    context: as a draft, the decode loop never reuses a drafted tree, and
    each model is called on the whole context, not on a state key."""

    def __init__(self, base: LanguageModel):
        super().__init__()
        self.base = base
        self.vocab = base.vocab

    def _compute(self, context):
        return self.base.next_dist(context).dist


def _tiny_lab(config):
    for step in (pipeline.step_gen_corpus, pipeline.step_train_model,
                 pipeline.step_calibrate):
        step(config)
    target, draft = pipeline.load_models(config)
    bins = pipeline.load_pipeline_bins(config)
    prompts = pipeline._prompt_split(config, target, "eval")
    return target, draft, bins, prompts


def _decode_states(draft, prompt, result) -> set:
    """The draft state of every iteration's context in one decode."""
    states, done = set(), 0
    for r in result.records:
        states.add(draft.state_key(tuple(prompt) + tuple(result.tokens[:done])))
        done += r.emitted
    return states


@pytest.mark.parametrize("decode", [decode_baseline, decode_adaptive],
                         ids=["baseline", "adaptive"])
def test_draft_memo_matches_decoding_without_reuse(tiny_config, decode):
    target, draft, bins, prompts = _tiny_lab(tiny_config)
    cfg = tiny_config.controller
    reused, extended = 0, 0
    for i, prompt in enumerate(prompts):
        got = decode(target, draft, prompt, cfg, bins, prompt_index=i)
        want = decode(target, _WholeContextModel(draft), prompt, cfg, bins,
                      prompt_index=i)
        assert got.tokens == want.tokens
        assert got.records == want.records
        reused += len(got.records) - len(_decode_states(draft, prompt, got))
        extended += sum(r.draft_depth > cfg.depth for r in got.records)
    assert reused > 0  # the memo was hit, so the comparison means something
    assert (extended > 0) == (decode is decode_adaptive)


@pytest.mark.parametrize("decode", [decode_baseline, decode_adaptive],
                         ids=["baseline", "adaptive"])
def test_decoding_on_model_states_matches_decoding_on_whole_contexts(
        tiny_config, decode):
    target, draft, bins, prompts = _tiny_lab(tiny_config)
    whole_target, whole_draft = _WholeContextModel(target), _WholeContextModel(draft)
    cfg = tiny_config.controller
    for i, prompt in enumerate(prompts):
        got = decode(target, draft, prompt, cfg, bins, prompt_index=i)
        want = decode(whole_target, whole_draft, prompt, cfg, bins,
                      prompt_index=i)
        assert len(prompt) + len(got.tokens) > target.order  # states differ
        assert got.tokens == want.tokens
        assert got.records == want.records


def test_draft_memo_expands_once_per_draft_state_per_decode(tiny_config,
                                                             monkeypatch):
    target, draft, bins, prompts = _tiny_lab(tiny_config)
    calls = []
    real_expand = control.expand

    def counting_expand(model, context, depth, top_k):
        calls.append(model.state_key(context))
        return real_expand(model, context, depth, top_k)

    monkeypatch.setattr(control, "expand", counting_expand)
    # the same prompt twice per arm: the memo must not outlive a decode
    for decode in (decode_baseline, decode_adaptive, decode_baseline):
        for prompt in (prompts[0], prompts[0], prompts[1]):
            calls.clear()
            result = decode(target, draft, prompt, tiny_config.controller, bins)
            states = _decode_states(draft, prompt, result)
            assert len(calls) == len(set(calls)) == len(states)
            assert set(calls) == states
            assert len(result.records) > len(states)


def test_tiny_lab_comparison_makes_the_pinned_evals_and_computes(tiny_config):
    # each instance's next_dist wrapped as the benchmark wraps it, and its
    # _compute, the one memo miss per state; a change to the eval pattern
    # moves these counts here before it moves the benchmark's
    target, draft, bins, prompts = _tiny_lab(tiny_config)
    counts = {}

    def counted(name, fn):
        counts[name] = 0

        def wrapper(context):
            counts[name] += 1
            return fn(context)
        return wrapper

    for role, model in (("target", target), ("draft", draft),
                        ("draft base", draft.base)):
        model.next_dist = counted(f"{role} evals", model.next_dist)
        model._compute = counted(f"{role} computes", model._compute)
    run_comparison(target, draft, prompts, tiny_config.controller, bins)
    assert counts == {"target evals": 370, "target computes": 13,
                      "draft evals": 297, "draft computes": 15,
                      "draft base evals": 15, "draft base computes": 15}


def test_run_arm_rejects_records_that_break_accounting():
    model, tpl = chain_template_model()
    cfg = HeteroConfig(depth=3, top_k=2, top_n=8, max_new_tokens=12)

    def short_trace(*args, **kwargs):
        result = decode_baseline(*args, **kwargs)
        result.records.pop()
        return result

    with pytest.raises(OutputMismatchError,
                       match=r"^broken arm, prompt 0: total emitted \d+ != expected 12$"):
        run_arm("broken", short_trace, model, model, [tpl[:4]], cfg)

    def bad_rank(*args, **kwargs):
        result = decode_baseline(*args, **kwargs)
        result.records[1] = result.records[1]._replace(tcr=0)
        return result

    with pytest.raises(OutputMismatchError, match="iteration 1: tcr 0 outside"):
        run_arm("broken", bad_rank, model, model, [tpl[:4]], cfg)
