"""Draft-side uncertainty signal: cumulative top-K entropy of the meta path.

Each expansion step of a draft tree produced a full next-token
distribution. The per-step signal keeps only the K largest probabilities,
renormalizes them, and takes the Shannon entropy in nats. The iteration
signal sums this over the steps of the meta path: the root-to-leaf path
ending at the full-depth node whose final step distribution has the
largest top-1 probability.

All distributions involved were already computed while the tree was
built, so the signal is free of extra model calls.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .models import ProbDist
from .tree import DraftNode, DraftTree


def topk_step_entropy(dist: ProbDist, k: int) -> float:
    """Entropy in nats of the renormalized top-k slice of ``dist``.

    k = 1 always gives exactly 0.0. Zero probabilities inside the slice
    contribute nothing.
    """
    if k < 1:
        raise ConfigError(f"entropy k must be >= 1, got {k}")
    arr = np.asarray(dist, dtype=np.float64)
    if k < arr.shape[0]:
        top = np.sort(arr)[-k:]
    else:
        top = arr
    total = top.sum()
    if total <= 0.0:
        return 0.0
    p = top / total
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum()) + 0.0


def select_meta_path(tree: DraftTree) -> DraftNode:
    """Leaf of the meta path of a draft tree.

    Candidates are the nodes of the deepest layer. The winner maximizes
    the top-1 probability of its final step distribution; ties prefer the
    higher-value node, then the earlier-created one.
    """
    candidates = tree.deepest_layer()
    if not candidates:
        raise ConfigError("cannot select a meta path from an empty tree")

    def key(node: DraftNode) -> tuple[float, float, int]:
        return (-float(np.max(node.step_dist)), -node.log_value,
                node.insertion_index)

    return min(candidates, key=key)


def tree_entropy_signal(tree: DraftTree, k: int) -> float:
    """Sum of the top-k step entropies along the meta path."""
    leaf = select_meta_path(tree)
    return float(sum(topk_step_entropy(n.step_dist, k) for n in leaf.path()))
