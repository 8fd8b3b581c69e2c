"""Dynamic draft trees: selective expansion and top-N reranking.

Expansion grows the tree layer by layer, as in EAGLE-2. Layer 1 holds the
top-k tokens of the root distribution; each deeper layer expands the k
highest-value nodes of the previous layer, each contributing its top-k
positive-probability children. A node's value is the product of the draft
confidences along its path, kept in log domain so deep products stay stable.
The root is a context; the decode loop passes the draft model's state key,
a context in the same state (see ``models``), so each draft call sees a
few tokens of state plus the node's path tokens.

A node is one plain tuple:

    (-log value, parent, step, path tokens)

Layer 1 hangs off the shared ``ROOT``, the one node whose parent is None.
``step`` is the ``TopK`` selection the token was drawn from, the ``topk``
of the ``DistRecord`` the draft's ``next_dist`` returns for the parent's
state, and ``path tokens`` are the tokens below the root, this node's
last; their length is the node's depth.
A tree keeps its nodes in creation order, layer by layer, and its deepest
non-empty layer, the only one the next layer and the meta path read.

Higher value ranks first; ties go to the earlier-created node, which is
never deeper. The rank order is therefore a stable sort on the value over
creation order, and selecting the best n nodes is
``sorted(nodes, key=itemgetter(NEG_VALUE))[:n]``. Because a parent always
has at least its child's value and is created before it, top-N selection
under this order is guaranteed to return a root-connected subtree.
``rerank`` returns it as verification reads it: a map from each kept
node's path tokens, unique within a tree, to its 1-based rank, in rank
order.

The draft-side uncertainty signal is the cumulative top-K entropy of the
meta path. Each step's signal keeps the K largest probabilities of its
distribution, K the tree's ``top_k``, renormalizes them and takes the
Shannon entropy in nats; ``TopK`` computes it, and the top-1
probability, with the selection the step's children come from. The tree's
signal sums it over the steps of the meta path: the root-to-leaf path
ending at the node of the deepest layer whose final step has the largest
top-1 probability. Ties go to the higher-value node, then to the
earlier-created one: ``min`` keeps the first of equal keys, and the layer
is in creation order. Every node carries its step's selection, so the
signal costs no model call and no lookup.
"""

from __future__ import annotations

import math
from operator import itemgetter

import numpy as np

from .errors import ConfigError
from .models import DistRecord, LanguageModel, fill_tokens
from .vocab import Context

DraftNode = tuple  # (-log value, parent, step, path tokens)
NEG_VALUE, PARENT, STEP, TOKENS = range(4)
ROOT: DraftNode = (0.0, None, None, ())
_by_value = itemgetter(NEG_VALUE)  # stable sort key of nodes in creation order


def path(node: DraftNode) -> list[DraftNode]:
    """Nodes from the layer-1 ancestor down to ``node``."""
    out = []
    while node[PARENT] is not None:
        out.append(node)
        node = node[PARENT]
    out.reverse()
    return out


class DraftTree:
    """Expansion-phase tree rooted at a decoding context or a state key of
    one; each layer below the first grows from the top_k highest-value
    nodes of the one above."""

    def __init__(self, context: Context, top_k: int):
        self.context = tuple(context)
        self.top_k = top_k
        self.nodes: list[DraftNode] = []  # creation order, excludes ROOT
        self.deepest: list[DraftNode] = []  # deepest non-empty layer

    def size(self) -> int:
        return len(self.nodes)


def top_tokens(row: DistRecord, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The first k entries of ``np.argsort(-row.dist, kind="stable")``, the
    k most probable tokens, most probable first, ties to the smaller id,
    and their probabilities; all V tokens, in that order, when k >= V.

    It reads the row, not the dense vector, so a state costs a sort of its
    support: the support in stable order of its values, cut to k, when its
    k-th value lies above ``fill``. Otherwise the first k tokens outside
    the support (``fill_tokens``), all at ``fill``, join it, sorted by
    value and then id.
    """
    fill, idx, vals = row.fill, row.idx, row.vals
    top = (-vals).argsort(kind="stable")[:k]
    probs = vals[top]
    if top.size == k and probs[-1] > fill:
        return idx[top], probs
    tokens = np.concatenate((idx, fill_tokens(idx, k, row.size)))
    probs = np.concatenate((vals, np.full(tokens.size - idx.size, fill)))
    top = np.lexsort((tokens, -probs))[:k]
    return tokens[top], probs[top]


def topk_step_entropy(probs: np.ndarray) -> float:
    """Entropy in nats of ``probs`` renormalized, summed in the order
    given.

    k = 1 always gives exactly 0.0. Zero probabilities inside the slice
    contribute nothing.
    """
    total = probs.sum()
    if total <= 0.0:
        return 0.0
    p = probs / total
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum()) + 0.0


class TopK:
    """The k most probable tokens of one row (``top_tokens``), kept as the
    ``DistRecord``'s ``topk``, with what the tree reads of that selection:
    ``children``, (token, log p) of the tokens with positive probability in
    selection order, ``top1``, the probability of the first token, the
    maximum of ``dist``, and ``entropy``, the top-k step entropy. The
    entropy sums the k probabilities in ascending order, the order of
    ``np.sort(dist)[-k:]``, so numpy sums the same bits as over a full
    sort; at k >= V all of ``dist`` in index order."""

    __slots__ = ("k", "children", "top1", "entropy")

    def __init__(self, row: DistRecord, k: int):
        self.k = k
        tokens, probs = top_tokens(row, k)
        plist = probs.tolist()
        self.children = [(t, math.log(p))
                         for t, p in zip(tokens.tolist(), plist) if p > 0.0]
        self.top1 = plist[0]
        self.entropy = topk_step_entropy(probs[::-1] if k < row.size
                                         else row.dist)


def _grow_layers(tree: DraftTree, draft_model: LanguageModel, layers: int) -> None:
    context, top_k, nodes = tree.context, tree.top_k, tree.nodes
    # bound once per call through the instance, so a per-instance wrapper
    # still sees every eval
    next_dist = draft_model.next_dist
    for _ in range(layers):
        frontier = (sorted(tree.deepest, key=_by_value)[:top_k]
                    if tree.deepest else [ROOT])
        layer = []
        for parent in frontier:
            neg_value, tokens = parent[NEG_VALUE], parent[TOKENS]
            rec = next_dist(context + tokens)
            step = rec.topk
            if step is None or step.k != top_k:
                step = rec.topk = TopK(rec, top_k)
            # -(a + log p) == -a - log p exactly, so values and ties match
            # the sum of logs along the path
            for token, logp in step.children:
                layer.append((neg_value - logp, parent, step, tokens + (token,)))
        if not layer:  # a dead frontier: every deeper layer is empty too
            return
        nodes.extend(layer)
        tree.deepest = layer


def expand(draft_model: LanguageModel, context: Context, depth: int,
           top_k: int) -> DraftTree:
    """Build the expansion-phase tree down to ``depth`` layers."""
    tree = DraftTree(context, top_k)
    _grow_layers(tree, draft_model, depth)
    return tree


def extend(tree: DraftTree, draft_model: LanguageModel,
           extra_layers: int) -> DraftTree:
    """Deepen an existing tree in place; equivalent to having expanded to
    depth + extra_layers in the first place."""
    _grow_layers(tree, draft_model, extra_layers)
    return tree


def rerank(tree: DraftTree, budget: int) -> dict[tuple[int, ...], int]:
    """The ``budget`` highest-value nodes of the tree, in rank order, as a
    map from each kept node's path tokens to its 1-based rank."""
    kept = sorted(tree.nodes, key=_by_value)[:budget]
    return {node[TOKENS]: rank for rank, node in enumerate(kept, 1)}


def select_meta_path(tree: DraftTree) -> DraftNode:
    """Leaf of the meta path of a draft tree.

    Candidates are the nodes of the deepest layer, in creation order. The
    winner maximizes the top-1 probability of its final step;
    ties prefer the higher-value node, then the earlier-created one, the
    first that ``min`` meets.
    """
    if not tree.deepest:
        raise ConfigError("cannot select a meta path from an empty tree")

    def key(node: DraftNode) -> tuple[float, float]:
        return (-node[STEP].top1, node[NEG_VALUE])

    return min(tree.deepest, key=key)


def tree_entropy_signal(tree: DraftTree) -> float:
    """Sum of the top-k step entropies along the meta path, k the tree's
    ``top_k``."""
    return float(sum(node[STEP].entropy for node in path(select_meta_path(tree))))
