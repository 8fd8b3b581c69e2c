"""Draft-side uncertainty signal: cumulative top-K entropy of the meta path.

Each expansion step of a draft tree produced a full next-token
distribution. The per-step signal keeps only the K largest probabilities,
renormalizes them, and takes the Shannon entropy in nats. The iteration
signal sums this over the steps of the meta path: the root-to-leaf path
ending at the node of the tree's deepest layer whose final step
distribution has the largest top-1 probability. Ties go to the
higher-value node, then to the earlier-created one: ``min`` keeps the
first of equal keys, and the layer is in creation order.

All distributions involved were already computed while the tree was
built, so the signal is free of extra model calls. Each step's top-1
probability and entropy are derived once per draft state, in the
``DistRecord`` of that state, which a node tuple holds in its ``STEP``
field; the entropy from the same ``TopK`` selection the tree took the
step's children from, and kept in it.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .models import DistRecord, ProbDist
from .tree import NEG_VALUE, STEP, DraftNode, DraftTree, TopK, path


def topk_step_entropy(dist: ProbDist, top: TopK) -> float:
    """Entropy in nats of the renormalized top-k slice of ``dist``, the
    probabilities of the tokens ``top = TopK(dist, k)`` selected.

    k = 1 always gives exactly 0.0. Zero probabilities inside the slice
    contribute nothing.
    """
    v = dist.shape[0]
    # ascending, the order of np.sort(dist)[-k:], so numpy sums the same
    # bits as over a full sort; all of dist in index order when k >= V
    arr = dist[top.tokens[::-1]] if top.tokens.size < v else dist
    total = arr.sum()
    if total <= 0.0:
        return 0.0
    p = arr / total
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum()) + 0.0


def step_entropy(step: DistRecord, k: int) -> float:
    """The top-k step entropy of a draft state, from the ``TopK``
    selection of its record, computed once per record and k."""
    top = step.derive(TopK, k)
    if top.entropy is None:
        top.entropy = topk_step_entropy(step.dist, top)
    return top.entropy


def top1_prob(dist: ProbDist) -> float:
    # np.max rather than the TopK selection: a derive without arguments is
    # keyed by the function alone, a cheaper lookup per candidate node than
    # the tuple (TopK, k)
    return float(np.max(dist))


def select_meta_path(tree: DraftTree) -> DraftNode:
    """Leaf of the meta path of a draft tree.

    Candidates are the nodes of the deepest layer, in creation order. The
    winner maximizes the top-1 probability of its final step distribution;
    ties prefer the higher-value node, then the earlier-created one, the
    first that ``min`` meets.
    """
    if not tree.deepest:
        raise ConfigError("cannot select a meta path from an empty tree")

    def key(node: DraftNode) -> tuple[float, float]:
        return (-node[STEP].derive(top1_prob), node[NEG_VALUE])

    return min(tree.deepest, key=key)


def tree_entropy_signal(tree: DraftTree, k: int) -> float:
    """Sum of the top-k step entropies along the meta path."""
    leaf = select_meta_path(tree)
    return float(sum(step_entropy(n[STEP], k) for n in path(leaf)))
