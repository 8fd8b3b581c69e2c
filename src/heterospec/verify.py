"""Greedy verification of reranked draft trees against a target model.

Verification walks the target's argmax from the root through the kept
nodes of a draft tree, the map ``rerank`` returns from each kept node's
path tokens to its rank, so each step is one lookup of the path so far
plus the target's token, derived once per target state from the
``DistRecord`` that ``next_dist`` returns; the accepted ranks come back
with the tokens. The walk starts from the context it is given, which may
be the target's state key in place of the whole context (see ``models``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import LanguageModel, ProbDist
from .vocab import Context


def argmax_token(dist: ProbDist) -> int:
    # np.argmax returns the first maximum: ties go to the smaller token id.
    return int(np.argmax(dist))


@dataclass
class AcceptResult:
    accepted_tokens: list[int]
    accepted_ranks: list[int]  # rank in the reranked tree of each accepted node
    bonus_token: int

    @property
    def accepted_len(self) -> int:
        return len(self.accepted_tokens)

    @property
    def emitted(self) -> list[int]:
        return self.accepted_tokens + [self.bonus_token]


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
    accepted_ranks: list[int] = []
    while True:
        star = next_dist(ctx).derive(argmax_token)
        rank = ranks.get(accepted + (star,))
        if rank is None:
            return AcceptResult(accepted_tokens=list(accepted),
                                accepted_ranks=accepted_ranks,
                                bonus_token=star)
        accepted += (star,)
        accepted_ranks.append(rank)
        ctx += (star,)
