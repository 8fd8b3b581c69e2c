"""Dynamic draft trees: selective expansion and top-N reranking.

Expansion grows the tree layer by layer, as in EAGLE-2. Layer 1 holds the
top-k tokens of the root distribution; each deeper layer expands the k
highest-value nodes of the previous layer, each contributing its top-k
positive-probability children. A node's value is the product of the draft
confidences along its path, kept in log domain so deep products stay stable.

Ties on value are broken by smaller depth, then smaller insertion index.
Because a parent always has at least its child's value and strictly
smaller depth, top-N selection under this order is guaranteed to return a
root-connected subtree.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .models import DistRecord, LanguageModel, ProbDist
from .vocab import Context


@dataclass(eq=False, slots=True)
class DraftNode:
    token: int
    confidence: float
    log_value: float
    depth: int
    parent: DraftNode | None
    step: DistRecord | None  # record of the distribution this token was drawn from
    insertion_index: int
    tokens: tuple[int, ...] = ()  # path tokens below the root, this one last
    children: list[DraftNode] = field(default_factory=list)

    def path(self) -> list[DraftNode]:
        """Nodes from the layer-1 ancestor down to this node."""
        out, node = [], self
        while node is not None and node.depth > 0:
            out.append(node)
            node = node.parent
        out.reverse()
        return out

    def sort_key(self) -> tuple[float, int, int]:
        return (-self.log_value, self.depth, self.insertion_index)


class DraftTree:
    """Expansion-phase tree rooted at a decoding context; each layer below
    the first grows from the top_k highest-value nodes of the one above."""

    def __init__(self, context: Context, top_k: int):
        if top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {top_k}")
        self.context = tuple(context)
        self.top_k = top_k
        self.depth_limit = 0
        self.root = DraftNode(token=-1, confidence=1.0, log_value=0.0, depth=0,
                              parent=None, step=None, insertion_index=-1)
        self.nodes: list[DraftNode] = []  # creation order, excludes root
        self.layers: list[list[DraftNode]] = []

    def add_child(self, parent: DraftNode, token: int, confidence: float,
                  step: DistRecord) -> DraftNode:
        depth = parent.depth + 1
        node = DraftNode(token, confidence,
                         parent.log_value + math.log(confidence), depth,
                         parent, step, len(self.nodes),
                         parent.tokens + (token,))
        parent.children.append(node)
        self.nodes.append(node)
        if len(self.layers) < depth:
            self.layers.append([])
        self.layers[depth - 1].append(node)
        return node

    def deepest_layer(self) -> list[DraftNode]:
        return self.layers[-1] if self.layers else []

    def size(self) -> int:
        return len(self.nodes)


def top_children(dist: ProbDist, k: int) -> list[tuple[int, float]]:
    """The k most probable tokens with positive probability, as (token,
    probability), most probable first; ties go to the smaller token id.

    Equals a full stable argsort on -p cut at k, in O(V): the k-th largest
    value bounds the candidates, and only those are sorted.
    """
    v = dist.shape[0]
    if k < v:
        kth = np.partition(dist, v - k)[v - k]
        candidates = np.flatnonzero(dist >= kth)
        order = candidates[np.argsort(-dist[candidates], kind="stable")[:k]]
    else:
        order = np.argsort(-dist, kind="stable")
    return [(int(t), float(dist[t])) for t in order if dist[t] > 0.0]


def _grow_layers(tree: DraftTree, draft_model: LanguageModel, layers: int) -> None:
    for _ in range(layers):
        if tree.depth_limit == 0:
            frontier: list[DraftNode] = [tree.root]
        elif len(tree.layers) < tree.depth_limit:
            tree.depth_limit += 1  # previous layer empty: tree is truncated
            continue
        else:
            prev = tree.layers[tree.depth_limit - 1]
            frontier = sorted(prev, key=DraftNode.sort_key)[:tree.top_k]
        tree.depth_limit += 1
        for node in frontier:
            dist = draft_model.next_dist(tree.context + node.tokens)
            step = draft_model.record(dist)
            for token, prob in step.derive(top_children, tree.top_k):
                tree.add_child(node, token, prob, step)


def expand(draft_model: LanguageModel, context: Context, depth: int,
           top_k: int) -> DraftTree:
    """Build the expansion-phase tree down to ``depth`` layers."""
    if depth < 1:
        raise ConfigError(f"tree depth must be >= 1, got {depth}")
    tree = DraftTree(context, top_k)
    _grow_layers(tree, draft_model, depth)
    return tree


def extend(tree: DraftTree, draft_model: LanguageModel,
           extra_layers: int) -> DraftTree:
    """Deepen an existing tree in place; equivalent to having expanded to
    depth + extra_layers in the first place."""
    if extra_layers < 1:
        raise ConfigError(f"extra_layers must be >= 1, got {extra_layers}")
    _grow_layers(tree, draft_model, extra_layers)
    return tree


class RerankedTree:
    """Top-N selection of a draft tree, in value order.

    The selection order lists ancestors before descendants, so it doubles
    as the rank order used for terminal confidence ranks.
    """

    def __init__(self, root: DraftNode, nodes: list[DraftNode]):
        self.root = root
        self.nodes = nodes
        self._rank = {id(n): i + 1 for i, n in enumerate(nodes)}

    def __len__(self) -> int:
        return len(self.nodes)

    def rank_of(self, node: DraftNode) -> int:
        return self._rank[id(node)]

    def children_in(self, node: DraftNode) -> list[DraftNode]:
        return [c for c in node.children if id(c) in self._rank]


def rerank(tree: DraftTree, budget: int) -> RerankedTree:
    """Select the ``budget`` highest-value nodes of the tree."""
    if budget < 1:
        raise ConfigError(f"rerank budget must be >= 1, got {budget}")
    picked = heapq.nsmallest(budget, tree.nodes, key=DraftNode.sort_key)
    return RerankedTree(tree.root, picked)
