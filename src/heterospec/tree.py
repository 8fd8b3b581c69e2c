"""Dynamic draft trees: selective expansion and top-N reranking.

Expansion grows the tree layer by layer, as in EAGLE-2. Layer 1 holds the
top-k tokens of the root distribution; each deeper layer expands the k
highest-value nodes of the previous layer, each contributing its top-k
positive-probability children. A node's value is the product of the draft
confidences along its path, kept in log domain so deep products stay stable.
The root is a context; the decode loop passes the draft model's state key,
a context in the same state (see ``models``), so each draft call sees a
few tokens of state plus the node's path tokens.

A node is one plain tuple, laid out so that its natural order is the rank
order:

    (-log value, depth, index, token, parent, step, path tokens)

Higher value ranks first; ties go to smaller depth, then to the smaller
creation index. Indices are unique within a tree, so a comparison never
reaches the fields after it. Nodes are created in index order, layer by
layer, so depth never decreases with index, and a list in creation order
is already in (depth, index) order. A stable sort on the value alone
therefore gives the rank order, and selecting the best n nodes is
``sorted(nodes, key=itemgetter(NEG_VALUE))[:n]``. That skips the equality
test a tuple comparison makes on its first field before it orders it, and
cut wide-tree rerank time by about a third. ``step`` is the ``DistRecord``
of the draft state the token was drawn from, as the draft's ``next_dist``
returns it, and ``path tokens`` are the tokens below the root, this node's
last. Because a parent always has at least its child's value and strictly
smaller depth, top-N selection under this order is guaranteed to return a
root-connected subtree.
"""

from __future__ import annotations

import math
from operator import itemgetter

import numpy as np

from .models import LanguageModel, ProbDist
from .vocab import Context

DraftNode = tuple  # (-log value, depth, index, token, parent, step, path tokens)
NEG_VALUE, DEPTH, INDEX, TOKEN, PARENT, STEP, TOKENS = range(7)
_by_value = itemgetter(NEG_VALUE)  # stable sort key of nodes in creation order


def path(node: DraftNode) -> list[DraftNode]:
    """Nodes from the layer-1 ancestor down to ``node``."""
    out = []
    while node[DEPTH] > 0:
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
        self.depth_limit = 0
        self.root: DraftNode = (0.0, 0, -1, -1, None, None, ())
        self.nodes: list[DraftNode] = []  # creation order, excludes root
        self.layers: list[list[DraftNode]] = []

    def deepest_layer(self) -> list[DraftNode]:
        return self.layers[-1] if self.layers else []

    def size(self) -> int:
        return len(self.nodes)


def top_tokens(dist: ProbDist, k: int) -> np.ndarray:
    """The first k entries of ``np.argsort(-dist, kind="stable")``: the k
    most probable tokens, most probable first, ties to the smaller id; all
    V tokens, in that order, when k >= V.

    For k < V only the entries above the k-th largest value are sorted,
    and the ties at that value are filled in by lowest id. That value
    comes from ``np.sort``: ``np.partition`` is about five times slower on
    a smoothed row, whose unseen tokens all tie at the minimum.
    """
    v = dist.shape[0]
    if k >= v:
        return np.argsort(-dist, kind="stable")
    kth = np.sort(dist)[v - k]
    above = np.flatnonzero(dist > kth)  # fewer than k tokens
    ties = np.flatnonzero(dist == kth)[:k - above.size]
    return np.concatenate((above[np.argsort(-dist[above], kind="stable")],
                           ties))


class TopK:
    """The k most probable tokens of one distribution (``top_tokens``),
    selected once per ``DistRecord`` and k as ``record.derive(TopK, k)``.

    A node's children and the top-K step entropy both read this one
    selection. ``children`` are (token, log p) of the tokens with positive
    probability, in selection order; ``entropy`` is the top-K step entropy,
    None until ``entropy.step_entropy`` first asks for it.
    """

    __slots__ = ("tokens", "children", "entropy")

    def __init__(self, dist: ProbDist, k: int):
        self.tokens = top_tokens(dist, k)
        self.children = [(t, math.log(p))
                         for t, p in zip(self.tokens.tolist(),
                                         dist[self.tokens].tolist()) if p > 0.0]
        self.entropy: float | None = None


def _grow_layers(tree: DraftTree, draft_model: LanguageModel, layers: int) -> None:
    context, top_k, nodes = tree.context, tree.top_k, tree.nodes
    # bound once per call through the instance, so a per-instance wrapper
    # still sees every eval
    next_dist = draft_model.next_dist
    for _ in range(layers):
        if tree.depth_limit == 0:
            frontier = [tree.root]
        elif len(tree.layers) < tree.depth_limit:
            tree.depth_limit += 1  # previous layer empty: tree is truncated
            continue
        else:
            frontier = sorted(tree.layers[tree.depth_limit - 1],
                              key=_by_value)[:top_k]
        tree.depth_limit += 1
        depth = tree.depth_limit
        index = len(nodes)
        layer = []
        for parent in frontier:
            neg_value, tokens = parent[NEG_VALUE], parent[TOKENS]
            step = next_dist(context + tokens)
            # -(a + log p) == -a - log p exactly, so values and ties match
            # the sum of logs along the path
            for token, logp in step.derive(TopK, top_k).children:
                layer.append((neg_value - logp, depth, index, token, parent,
                              step, tokens + (token,)))
                index += 1
        if layer:
            nodes.extend(layer)
            tree.layers.append(layer)


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


class RerankedTree:
    """Top-N selection of a draft tree, in rank order.

    The rank order lists ancestors before descendants. ``ranks`` maps each
    kept node's path tokens to its 1-based rank, so verification finds the
    kept child of a node for a token with one lookup.
    """

    def __init__(self, nodes: list[DraftNode]):
        self.nodes = nodes
        self.ranks = {node[TOKENS]: rank for rank, node in enumerate(nodes, 1)}

    def __len__(self) -> int:
        return len(self.nodes)


def rerank(tree: DraftTree, budget: int) -> RerankedTree:
    """Select the ``budget`` highest-value nodes of the tree."""
    return RerankedTree(sorted(tree.nodes, key=_by_value)[:budget])
