"""The decoding loop, run by the static baseline and the entropy-adaptive arm.

Both arms use greedy (argmax) verification, so for a fixed target model
and prompt they emit the same token sequence as plain greedy decoding;
adaptivity only changes how many verification calls that takes.

Each iteration expands a depth-d tree whose layers grow from their
top_k most valuable nodes, measures the top_k entropy of its meta path,
assigns it to a calibrated bin, and for low-entropy bins drafts deeper
and reshapes the verification budget:

    extra layers   = max(0, alpha - bin)
    top_n for bin  = max(1, round_half_up(gamma[bin] * top_n) + (alpha - bin))

with gamma = (0.3, 0.6, 1.0) for the three lowest bins and 1.0 beyond.
The baseline is the same loop with no low bins.

One iteration is ``step``: from a target state and a draft state it
drafts, reranks and verifies, and returns the emitted tokens with the
iteration's record fields. The decode loop is ``step`` plus the state
advance. Each model decodes on its own state, its ``_window`` of the
context (see ``models``), not on the growing context: the loop keeps the
target's and the draft's state keys and after each iteration advances
each by slicing, ``(state + emitted)[window]``. A state key is a context
in its own state, so every model call sees the distribution the whole
context would get. Everything before verification depends only on the
draft state and on settings fixed for one decode, so each decode drafts a
tree once per draft state and reuses it, with its entropy, bin and shape,
whenever greedy decoding returns to that state.
Verification against the target runs on every iteration: it walks the
target's argmax from the root through the kept nodes, the map ``rerank``
returns from each kept node's path tokens to its rank, so each step is
one lookup of the path so far plus the target's token, the ``argmax`` of
the ``DistRecord`` that ``next_dist`` returns, computed once per target
state. ``step`` reads the terminal rank from the map once the emitted
block is cut.

The per-iteration values are named tuples built with ``tuple.__new__``:
``verify_greedy``'s ``AcceptResult`` and the loop's ``IterationRecord``,
the same objects the class call makes, without the Python frame of its
generated ``__new__``. The loop takes a resolved config, whose ``alpha``
is set; ``HeteroConfig.resolved()`` returns one as it is, so ``run_arm``
resolves once per arm and each decode's own call copies nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from .binning import BinningModel
from .errors import ConfigError, OutputMismatchError, check_setting, finite
from .metrics import (CostModel, IterationRecord, RunSummary, summarize,
                      validate_run)
from .models import LanguageModel, argmax_token
from .tree import expand, extend, rerank, tree_entropy_signal
from .vocab import Context

GAMMAS = (0.3, 0.6, 1.0)
_new = tuple.__new__  # builds a NamedTuple from a tuple with no Python frame


def round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def default_alpha(depth: int) -> int:
    return (depth + 1) // 2


def adapt(bin_index: int, alpha: int, top_n_default: int,
          low_bins: tuple[int, ...]) -> tuple[int, int]:
    """Per-bin ``(extra_layers, top_n)``; identity outside the low bins."""
    if bin_index not in low_bins:
        return 0, top_n_default
    gamma = GAMMAS[bin_index] if bin_index < len(GAMMAS) else 1.0
    budget = round_half_up(gamma * top_n_default) + (alpha - bin_index)
    return max(0, alpha - bin_index), max(1, budget)


@dataclass(frozen=True)
class HeteroConfig:
    depth: int = 5
    top_k: int = 2
    top_n: int = 20
    alpha: int | None = None  # None: ceil(depth / 2)
    low_bins: tuple[int, ...] | None = None  # None: binning model default
    max_new_tokens: int = 200
    terminator: int | None = None

    def __post_init__(self):
        for key in ("depth", "top_k", "top_n", "max_new_tokens"):
            value = getattr(self, key)
            check_setting(value >= 1, f"controller.{key}", ">= 1", value)
        # adapt scales top_n by a float gamma
        check_setting(finite(self.top_n), "controller.top_n",
                      "finite as a float", self.top_n)
        check_setting(self.alpha is None or self.alpha >= 0, "controller.alpha",
                      ">= 0", self.alpha)
        check_setting(self.low_bins is None or min(self.low_bins, default=0) >= 0,
                      "controller.low_bins", ">= 0", self.low_bins)
        # the upper bound, the vocabulary size, is checked once the model is
        # loaded (pipeline.load_models)
        check_setting(self.terminator is None or self.terminator >= 0,
                      "controller.terminator", "a token id >= 0 or null",
                      self.terminator)

    def resolved(self) -> "HeteroConfig":
        """This config with ``alpha`` set: itself once it is, so resolving
        a resolved config costs no copy."""
        if self.alpha is not None:
            return self
        return replace(self, alpha=default_alpha(self.depth))

    def low_bins_for(self, bins: BinningModel) -> tuple[int, ...]:
        """The configured low bins, or the binning model's default ones."""
        return self.low_bins if self.low_bins is not None else bins.default_low_bins()


@dataclass
class GenerationResult:
    tokens: list[int]
    records: list[IterationRecord]


def greedy_reference(target_model: LanguageModel, prompt: Context,
                     max_new_tokens: int, terminator: int | None = None) -> list[int]:
    """Plain autoregressive argmax decoding, taking each argmax itself; the
    sequence every arm must reproduce."""
    ctx = tuple(prompt)
    out: list[int] = []
    while len(out) < max_new_tokens:
        t = argmax_token(target_model.next_dist(ctx).dist)
        out.append(t)
        ctx = ctx + (t,)
        if terminator is not None and t == terminator:
            break
    return out


class AcceptResult(NamedTuple):
    accepted_tokens: tuple[int, ...]
    bonus_token: int

    @property
    def accepted_len(self) -> int:
        return len(self.accepted_tokens)


def verify_greedy(ranks: dict[tuple[int, ...], int],
                  target_model: LanguageModel,
                  context: Context) -> AcceptResult:
    """Accept the longest root path of the kept nodes, ``ranks`` as
    ``rerank`` returns them, that matches the target's greedy
    continuation, then emit the target argmax as the bonus token."""
    ctx = tuple(context)
    # bound once per call through the instance, so a per-instance wrapper
    # still sees every eval
    next_dist = target_model.next_dist
    accepted: tuple[int, ...] = ()
    while True:
        star = next_dist(ctx).argmax
        walked = accepted + (star,)
        if walked not in ranks:
            return _new(AcceptResult, (accepted, star))
        accepted = walked
        ctx += (star,)


def step(target_model: LanguageModel, draft_model: LanguageModel,
         tstate: Context, dstate: Context, cfg: HeteroConfig,
         bins: BinningModel | None, low_bins: tuple[int, ...], memo: dict,
         budget: int) -> tuple[tuple[int, ...], tuple]:
    """One speculative iteration from a target state and a draft state, with
    ``cfg`` resolved: draft, rerank and verify, then cut the emitted block at
    the terminator or at ``budget`` tokens so emitted == accepted + 1 still
    holds. Returns the emitted tokens and the ``IterationRecord`` fields
    from ``entropy`` on. ``memo`` maps a draft state to the rank map that
    ``rerank`` returned for it and its shape fields; it is valid for one
    draft model, ``cfg``, ``bins`` and ``low_bins``, since the draft side
    depends on nothing else."""
    hit = memo.get(dstate)
    if hit is None:
        tree = expand(draft_model, dstate, cfg.depth, cfg.top_k)
        entropy = tree_entropy_signal(tree)
        bin_index = bins.assign_bin(entropy) if bins is not None else -1
        extra_layers, top_n = adapt(bin_index, cfg.alpha, cfg.top_n, low_bins)
        if extra_layers > 0:
            extend(tree, draft_model, extra_layers)
        ranks = rerank(tree, top_n)
        hit = memo[dstate] = (ranks, (entropy, bin_index,
                                      cfg.depth + extra_layers, top_n,
                                      len(ranks)))
    ranks, shape = hit
    accepted, bonus = verify_greedy(ranks, target_model, tstate)
    emit = accepted + (bonus,)
    if cfg.terminator in emit:
        emit = emit[:emit.index(cfg.terminator) + 1]
    emit = emit[:budget]
    k = len(emit) - 1
    # emit[:k] is an accepted root path, so a kept node, under either cut
    tcr = ranks[emit[:k]] if k else len(ranks) + 1
    return emit, (*shape, k, len(emit), tcr)


def _decode(target_model: LanguageModel, draft_model: LanguageModel,
            prompt: Context, config: HeteroConfig, bins: BinningModel | None,
            low_bins: tuple[int, ...], prompt_index: int) -> GenerationResult:
    """``step`` until the token budget or the terminator, advancing both
    state keys by each emitted block. Only iterations whose bin is in
    ``low_bins`` change the tree shape. bin = -1 means no binning model
    was consulted."""
    tvocab, dvocab = target_model.vocab, draft_model.vocab
    if tvocab is not dvocab and tvocab.symbols != dvocab.symbols:
        raise ConfigError("target and draft models use different vocabularies")
    cfg = config.resolved()
    max_new, terminator = cfg.max_new_tokens, cfg.terminator
    twin, dwin = target_model._window, draft_model._window
    tstate, dstate = tuple(prompt[twin]), tuple(prompt[dwin])
    out: list[int] = []
    records: list[IterationRecord] = []
    memo: dict = {}  # one per decode, never shared across prompts or arms
    while len(out) < max_new:
        emit, fields = step(target_model, draft_model, tstate, dstate, cfg,
                            bins, low_bins, memo, max_new - len(out))
        records.append(_new(IterationRecord,
                            (prompt_index, len(records), *fields)))
        out.extend(emit)
        if emit[-1] == terminator:
            break
        tstate = (tstate + emit)[twin]
        dstate = (dstate + emit)[dwin]
    return GenerationResult(tokens=out, records=records)


def decode_baseline(target_model: LanguageModel, draft_model: LanguageModel,
                    prompt: Context, config: HeteroConfig,
                    bins: BinningModel | None = None,
                    prompt_index: int = 0) -> GenerationResult:
    """Static drafting: fixed depth and verification budget every
    iteration. Bins, when given, label iterations (the entropy signal
    feeds calibration) but never change behavior."""
    return _decode(target_model, draft_model, prompt, config, bins, (),
                   prompt_index)


def decode_adaptive(target_model: LanguageModel, draft_model: LanguageModel,
                    prompt: Context, config: HeteroConfig, bins: BinningModel,
                    prompt_index: int = 0) -> GenerationResult:
    """Entropy-adaptive drafting over the configured low bins, or the
    binning model's default ones."""
    return _decode(target_model, draft_model, prompt, config, bins,
                   config.low_bins_for(bins), prompt_index)


@dataclass
class ArmResult:
    name: str
    alpha: int | None
    outputs: list[list[int]]
    records: list[IterationRecord]
    summary: RunSummary


def run_arm(name: str, decode, target_model: LanguageModel,
            draft_model: LanguageModel, prompts: list[Context],
            config: HeteroConfig, cost_model: CostModel | None = None,
            **kwargs) -> ArmResult:
    """Decode every prompt with one arm. Each decode's records must pass
    ``validate_run`` against the tokens it emitted, or the arm raises."""
    cfg = config.resolved()
    outputs: list[list[int]] = []
    records: list[IterationRecord] = []
    for i, prompt in enumerate(prompts):
        result = decode(target_model, draft_model, prompt, cfg,
                        prompt_index=i, **kwargs)
        problems = validate_run(result.records,
                                expected_emitted=len(result.tokens))
        if problems:
            raise OutputMismatchError(
                f"{name} arm, prompt {i}: {'; '.join(problems)}")
        outputs.append(result.tokens)
        records.extend(result.records)
    return ArmResult(name=name, alpha=cfg.alpha, outputs=outputs,
                     records=records,
                     summary=summarize(records, cost_model))


@dataclass
class ComparisonResult:
    baseline: ArmResult
    adaptive: ArmResult
    bins: BinningModel  # the bins both arms were decoded with

    def rows(self) -> list[tuple[str, int | None, RunSummary]]:
        return [(self.baseline.name, None, self.baseline.summary),
                (self.adaptive.name, self.adaptive.alpha, self.adaptive.summary)]


def run_comparison(target_model: LanguageModel, draft_model: LanguageModel,
                   prompts: list[Context], config: HeteroConfig,
                   bins: BinningModel,
                   cost_model: CostModel | None = None) -> ComparisonResult:
    """Run the static baseline and the adaptive arm at ``config.alpha`` over
    the same prompts, then check both emitted the same tokens."""
    baseline = run_arm("baseline", decode_baseline, target_model, draft_model,
                       prompts, config, cost_model, bins=bins)
    adaptive = run_arm("adaptive", decode_adaptive, target_model, draft_model,
                       prompts, config, cost_model, bins=bins)
    for i, (want, got) in enumerate(zip(baseline.outputs, adaptive.outputs)):
        if want != got:
            raise OutputMismatchError(
                f"prompt {i}: adaptive arm (alpha={adaptive.alpha}) diverged "
                f"from baseline output")
    return ComparisonResult(baseline=baseline, adaptive=adaptive, bins=bins)
