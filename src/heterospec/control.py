"""The decoding loop, run by the static baseline and the entropy-adaptive arm.

Both arms use greedy (argmax) verification, so for a fixed target model
and prompt they emit the same token sequence as plain greedy decoding;
adaptivity only changes how many verification calls that takes.

Each iteration measures the meta-path entropy of the freshly expanded
tree, assigns it to a calibrated bin, and for low-entropy bins drafts
deeper and reshapes the verification budget:

    extra layers   = max(0, alpha - bin)
    top_n for bin  = max(1, round_half_up(gamma[bin] * top_n) + (alpha - bin))

with gamma = (0.3, 0.6, 1.0) for the three lowest bins and 1.0 beyond.
The baseline is the same loop with no low bins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .binning import BinningModel
from .entropy import tree_entropy_signal
from .errors import ConfigError, OutputMismatchError
from .metrics import CostModel, IterationRecord, RunSummary, summarize
from .models import LanguageModel
from .tree import RerankedTree, expand, extend, rerank
from .verify import AcceptResult, argmax_token, verify_greedy
from .vocab import Context

GAMMAS = (0.3, 0.6, 1.0)


def round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def default_alpha(depth: int) -> int:
    return (depth + 1) // 2


@dataclass(frozen=True)
class AdaptDecision:
    extra_layers: int
    top_n: int


def adapt(bin_index: int, alpha: int, top_n_default: int,
          low_bins: tuple[int, ...]) -> AdaptDecision:
    """Per-bin drafting adjustments; identity outside the low bins."""
    if bin_index not in low_bins:
        return AdaptDecision(extra_layers=0, top_n=top_n_default)
    gamma = GAMMAS[bin_index] if bin_index < len(GAMMAS) else 1.0
    budget = round_half_up(gamma * top_n_default) + (alpha - bin_index)
    return AdaptDecision(extra_layers=max(0, alpha - bin_index),
                         top_n=max(1, budget))


@dataclass(frozen=True)
class HeteroConfig:
    depth: int = 5
    top_k: int = 2
    top_n: int = 20
    expand_width: int | None = None  # None: expand the top_k best nodes
    alpha: int | None = None  # None: ceil(depth / 2)
    entropy_k: int | None = None  # None: use top_k
    low_bins: tuple[int, ...] | None = None  # None: binning model default
    max_new_tokens: int = 200
    terminator: int | None = None

    def __post_init__(self):
        if self.depth < 1 or self.top_k < 1 or self.top_n < 1:
            raise ConfigError("depth, top_k and top_n must be >= 1")
        if self.max_new_tokens < 1:
            raise ConfigError("max_new_tokens must be >= 1")
        if self.alpha is not None and self.alpha < 0:
            raise ConfigError("alpha must be >= 0")
        if self.expand_width is not None and self.expand_width < 1:
            raise ConfigError("expand_width must be >= 1")
        if self.entropy_k is not None and self.entropy_k < 1:
            raise ConfigError("entropy_k must be >= 1")

    def resolved(self) -> "HeteroConfig":
        return replace(
            self,
            expand_width=(self.expand_width if self.expand_width is not None
                          else self.top_k),
            alpha=self.alpha if self.alpha is not None else default_alpha(self.depth),
            entropy_k=self.entropy_k if self.entropy_k is not None else self.top_k,
        )


@dataclass
class GenerationResult:
    tokens: list[int]
    records: list[IterationRecord]


def greedy_reference(target_model: LanguageModel, prompt: Context,
                     max_new_tokens: int, terminator: int | None = None) -> list[int]:
    """Plain autoregressive argmax decoding; the sequence every arm must
    reproduce."""
    ctx = tuple(prompt)
    out: list[int] = []
    while len(out) < max_new_tokens:
        t = argmax_token(target_model.next_dist(ctx))
        out.append(t)
        ctx = ctx + (t,)
        if terminator is not None and t == terminator:
            break
    return out


def _check_pair(target_model: LanguageModel, draft_model: LanguageModel) -> None:
    if target_model.vocab.symbols != draft_model.vocab.symbols:
        raise ConfigError("target and draft models use different vocabularies")


def _emit(result: AcceptResult, tree2: RerankedTree, remaining: int,
          terminator: int | None) -> tuple[list[int], int, int, bool]:
    """Cut the emitted block at the terminator or the token budget and
    restate the accounting so emitted == accepted + 1 still holds."""
    emit = result.emitted
    stop = False
    if terminator is not None and terminator in emit:
        emit = emit[:emit.index(terminator) + 1]
        stop = True
    if len(emit) >= remaining:
        emit = emit[:remaining]
        stop = True
    k = len(emit) - 1
    if k >= 1:
        tcr = tree2.rank_of(result.accepted_nodes[k - 1])
    else:
        tcr = len(tree2) + 1
    return emit, k, tcr, stop


def _decode(target_model: LanguageModel, draft_model: LanguageModel,
            prompt: Context, config: HeteroConfig, bins: BinningModel | None,
            low_bins: tuple[int, ...], prompt_index: int) -> GenerationResult:
    """Draft, rerank and verify until the token budget or the terminator.
    Only iterations whose bin is in ``low_bins`` change the tree shape.
    bin = -1 means no binning model was consulted."""
    _check_pair(target_model, draft_model)
    cfg = config.resolved()
    ctx = tuple(prompt)
    out: list[int] = []
    records: list[IterationRecord] = []
    iteration = 0
    while len(out) < cfg.max_new_tokens:
        remaining = cfg.max_new_tokens - len(out)
        tree = expand(draft_model, ctx, cfg.depth, cfg.top_k, cfg.expand_width)
        entropy = tree_entropy_signal(tree, cfg.entropy_k)
        bin_index = bins.assign_bin(entropy) if bins is not None else -1
        decision = adapt(bin_index, cfg.alpha, cfg.top_n, low_bins)
        if decision.extra_layers > 0:
            extend(tree, draft_model, decision.extra_layers)
        tree2 = rerank(tree, decision.top_n)
        result = verify_greedy(tree2, target_model, ctx)
        emit, k, tcr, stop = _emit(result, tree2, remaining, cfg.terminator)
        records.append(IterationRecord(
            prompt=prompt_index, iteration=iteration, entropy=entropy,
            bin=bin_index, draft_depth=cfg.depth + decision.extra_layers,
            top_n=decision.top_n, tree_size=len(tree2), accepted_len=k,
            emitted=len(emit), tcr=tcr))
        out.extend(emit)
        ctx = ctx + tuple(emit)
        iteration += 1
        if stop:
            break
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
    low_bins = (config.low_bins if config.low_bins is not None
                else bins.default_low_bins())
    return _decode(target_model, draft_model, prompt, config, bins,
                   tuple(low_bins), prompt_index)


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
    outputs: list[list[int]] = []
    records: list[IterationRecord] = []
    for i, prompt in enumerate(prompts):
        result = decode(target_model, draft_model, prompt, config,
                        prompt_index=i, **kwargs)
        outputs.append(result.tokens)
        records.extend(result.records)
    cfg = config.resolved()
    return ArmResult(name=name, alpha=cfg.alpha, outputs=outputs,
                     records=records,
                     summary=summarize(records, cost_model))


@dataclass
class ComparisonResult:
    baseline: ArmResult
    adaptive: list[ArmResult]  # one entry per alpha

    def rows(self) -> list[tuple[str, int | None, RunSummary]]:
        out = [(self.baseline.name, None, self.baseline.summary)]
        out.extend((a.name, a.alpha, a.summary) for a in self.adaptive)
        return out


def run_comparison(target_model: LanguageModel, draft_model: LanguageModel,
                   prompts: list[Context], config: HeteroConfig,
                   bins: BinningModel, cost_model: CostModel | None = None,
                   alphas: list[int] | None = None) -> ComparisonResult:
    """Run the static baseline and one adaptive arm per alpha over the
    same prompts, then check every arm emitted the same tokens."""
    baseline = run_arm("baseline", decode_baseline, target_model, draft_model,
                       prompts, config, cost_model, bins=bins)
    arms: list[ArmResult] = []
    if alphas is None:
        alphas = [config.resolved().alpha]
    for alpha in alphas:
        cfg = replace(config, alpha=alpha)
        arm = run_arm("adaptive", decode_adaptive, target_model, draft_model,
                      prompts, cfg, cost_model, bins=bins)
        arms.append(arm)
    for arm in arms:
        for i, (want, got) in enumerate(zip(baseline.outputs, arm.outputs)):
            if want != got:
                raise OutputMismatchError(
                    f"prompt {i}: adaptive arm (alpha={arm.alpha}) diverged "
                    f"from baseline output")
    return ComparisonResult(baseline=baseline, adaptive=arms)
