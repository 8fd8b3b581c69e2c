"""Verification of draft trees and chains against a target model.

Greedy verification walks the target argmax through a reranked tree and is
used by the decoding loop. Stochastic chain verification implements the
accept/residual rule that makes speculative sampling distribution-exact;
it exists so losslessness can be checked empirically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import LanguageModel, ProbDist
from .tree import DraftNode, RerankedTree
from .vocab import Context


def argmax_token(dist: ProbDist) -> int:
    # np.argmax returns the first maximum: ties go to the smaller token id.
    return int(np.argmax(dist))


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


@dataclass
class AcceptResult:
    accepted_nodes: list[DraftNode]
    accepted_tokens: list[int]
    bonus_token: int

    @property
    def accepted_len(self) -> int:
        return len(self.accepted_tokens)

    @property
    def emitted(self) -> list[int]:
        return self.accepted_tokens + [self.bonus_token]


def verify_greedy(tree: RerankedTree, target_model: LanguageModel,
                  context: Context) -> AcceptResult:
    """Accept the longest root path of the tree that matches the target's
    greedy continuation, then emit the target argmax as the bonus token."""
    ctx = tuple(context)
    node = tree.root
    accepted: list[DraftNode] = []
    while True:
        star = argmax_token(target_model.next_dist(ctx))
        match = None
        for child in tree.children_in(node):
            if child.token == star:
                match = child
                break
        if match is None:
            bonus = star
            break
        accepted.append(match)
        ctx = ctx + (match.token,)
        node = match
    return AcceptResult(accepted_nodes=accepted,
                        accepted_tokens=[n.token for n in accepted],
                        bonus_token=bonus)


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
        q = draft_model.next_dist(ctx)
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
        p = target_model.next_dist(ctx)
        if rng.random() < accept_prob(p, q, t):
            accepted.append(t)
            ctx = ctx + (t,)
        else:
            bonus = sample_from(residual_dist(p, q), rng)
            return ChainResult(tokens, accepted, bonus)
    p = target_model.next_dist(ctx)
    bonus = sample_from(p, rng)
    return ChainResult(tokens, accepted, bonus)
