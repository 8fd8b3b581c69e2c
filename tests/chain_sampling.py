"""Stochastic chain speculative sampling: the accept/residual rule that
makes speculative sampling distribution-exact.

The decoding loop verifies greedily; this reference exists so that
losslessness can be checked empirically (acceptance criterion 2).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from heterospec.models import LanguageModel, ProbDist
from heterospec.vocab import Context


def accept_prob(target: ProbDist, draft: ProbDist, token: int) -> float:
    q = float(draft[token])
    if q <= 0.0:
        return 1.0  # draft can never propose such a token; accept vacuously
    return min(1.0, float(target[token]) / q)


def residual_dist(target: ProbDist, draft: ProbDist) -> ProbDist:
    resid = np.maximum(target - draft, 0.0)
    total = resid.sum()
    if total <= 0.0:
        return np.asarray(target, dtype=np.float64).copy()
    return resid / total


def sample_from(dist: ProbDist, rng: np.random.Generator) -> int:
    """Inverse-CDF sampling; robust to distributions that sum to 1 only up
    to float rounding."""
    cdf = np.cumsum(dist)
    idx = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
    return min(idx, len(dist) - 1)


@dataclass
class ChainResult:
    draft_tokens: list[int]
    accepted_tokens: list[int]
    bonus_token: int

    @property
    def emitted(self) -> list[int]:
        return self.accepted_tokens + [self.bonus_token]


def sample_chain(draft_model: LanguageModel, context: Context, length: int,
                 rng: np.random.Generator) -> tuple[list[int], list[ProbDist]]:
    """Draw a linear draft chain by sampling each step distribution."""
    tokens: list[int] = []
    dists: list[ProbDist] = []
    ctx = tuple(context)
    for _ in range(length):
        q = draft_model.next_dist(ctx).dist
        t = sample_from(q, rng)
        tokens.append(t)
        dists.append(q)
        ctx = ctx + (t,)
    return tokens, dists


def verify_stochastic_chain(draft_model: LanguageModel,
                            target_model: LanguageModel, context: Context,
                            length: int, rng: np.random.Generator) -> ChainResult:
    """One round of chain speculative sampling.

    Each draft token is accepted with probability min(1, p/q). On the first
    rejection the replacement token comes from the normalized residual
    max(0, p - q); if every draft token is accepted the bonus comes from
    the target distribution after the full chain. The emitted prefix is
    distributed exactly as target autoregressive sampling.
    """
    ctx = tuple(context)
    tokens, dists = sample_chain(draft_model, context, length, rng)
    accepted: list[int] = []
    for t, q in zip(tokens, dists):
        p = target_model.next_dist(ctx).dist
        if rng.random() < accept_prob(p, q, t):
            accepted.append(t)
            ctx = ctx + (t,)
        else:
            bonus = sample_from(residual_dist(p, q), rng)
            return ChainResult(tokens, accepted, bonus)
    p = target_model.next_dist(ctx).dist
    bonus = sample_from(p, rng)
    return ChainResult(tokens, accepted, bonus)
