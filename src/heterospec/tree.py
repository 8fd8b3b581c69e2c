"""Dynamic draft trees: selective expansion and top-N reranking.

Expansion grows the tree layer by layer. Layer 1 holds the top-k tokens of
the root distribution; each deeper layer expands the highest-value nodes of
the previous layer, each contributing its top-k positive-probability
children. A node's value is the product of the draft confidences along its
path, kept in log domain so deep products stay stable.

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
from .models import LanguageModel, ProbDist
from .vocab import Context


@dataclass(eq=False)
class DraftNode:
    token: int
    confidence: float
    log_value: float
    depth: int
    parent: DraftNode | None
    step_dist: ProbDist | None  # distribution this token was drawn from
    insertion_index: int
    children: list[DraftNode] = field(default_factory=list)

    @property
    def value(self) -> float:
        return math.exp(self.log_value)

    def path(self) -> list[DraftNode]:
        """Nodes from the layer-1 ancestor down to this node."""
        out, node = [], self
        while node is not None and node.depth > 0:
            out.append(node)
            node = node.parent
        out.reverse()
        return out

    def path_tokens(self) -> tuple[int, ...]:
        return tuple(n.token for n in self.path())

    def sort_key(self) -> tuple[float, int, int]:
        return (-self.log_value, self.depth, self.insertion_index)


class DraftTree:
    """Expansion-phase tree rooted at a decoding context.

    expand_width = None expands every node of the previous layer; an
    integer caps the frontier to the width highest-value nodes.
    """

    def __init__(self, context: Context, top_k: int,
                 expand_width: int | None = None):
        if top_k < 1 or (expand_width is not None and expand_width < 1):
            raise ConfigError("top_k and expand_width must be >= 1")
        self.context = tuple(context)
        self.top_k = top_k
        self.expand_width = expand_width
        self.depth_limit = 0
        self.root = DraftNode(token=-1, confidence=1.0, log_value=0.0, depth=0,
                              parent=None, step_dist=None, insertion_index=-1)
        self.nodes: list[DraftNode] = []  # creation order, excludes root
        self.layers: list[list[DraftNode]] = []

    def add_child(self, parent: DraftNode, token: int, confidence: float,
                  step_dist: ProbDist) -> DraftNode:
        node = DraftNode(token=token, confidence=confidence,
                         log_value=parent.log_value + math.log(confidence),
                         depth=parent.depth + 1, parent=parent,
                         step_dist=step_dist, insertion_index=len(self.nodes))
        parent.children.append(node)
        self.nodes.append(node)
        while len(self.layers) < node.depth:
            self.layers.append([])
        self.layers[node.depth - 1].append(node)
        return node

    def deepest_layer(self) -> list[DraftNode]:
        return self.layers[-1] if self.layers else []

    def size(self) -> int:
        return len(self.nodes)


def _top_children(dist: ProbDist, k: int) -> list[tuple[int, float]]:
    # Stable argsort on -p keeps smaller token ids first among ties.
    order = np.argsort(-dist, kind="stable")[:k]
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
            frontier = sorted(prev, key=DraftNode.sort_key)
            if tree.expand_width is not None:
                frontier = frontier[:tree.expand_width]
        tree.depth_limit += 1
        for node in frontier:
            if node is tree.root:
                ctx = tree.context
            else:
                ctx = tree.context + node.path_tokens()
            dist = draft_model.next_dist(ctx)
            for token, prob in _top_children(dist, tree.top_k):
                tree.add_child(node, token, prob, dist)


def expand(draft_model: LanguageModel, context: Context, depth: int,
           top_k: int, expand_width: int | None = None) -> DraftTree:
    """Build the expansion-phase tree down to ``depth`` layers."""
    if depth < 1:
        raise ConfigError(f"tree depth must be >= 1, got {depth}")
    tree = DraftTree(context, top_k, expand_width)
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

    def __contains__(self, node: DraftNode) -> bool:
        return id(node) in self._rank

    def rank_of(self, node: DraftNode) -> int:
        return self._rank[id(node)]

    def children_in(self, node: DraftNode) -> list[DraftNode]:
        return [c for c in node.children if id(c) in self._rank]

    def depth(self) -> int:
        return max((n.depth for n in self.nodes), default=0)


def rerank(tree: DraftTree, budget: int) -> RerankedTree:
    """Select the ``budget`` highest-value nodes of the tree."""
    if budget < 1:
        raise ConfigError(f"rerank budget must be >= 1, got {budget}")
    picked = heapq.nsmallest(budget, tree.nodes, key=DraftNode.sort_key)
    return RerankedTree(tree.root, picked)
