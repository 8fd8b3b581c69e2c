"""Draft-tree expansion and top-N reranking.

Hand-sized trees pin confidences, values, and layer geometry; a randomized
sweep checks the reranker against a plain sort oracle and the structural
guarantees (root-connected, ancestors ranked first, value monotone along
edges)."""
from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import DrawnDistModel, FixedDistModel, ScriptedModel, chain_template_model, make_vocab
from heterospec.errors import ConfigError
from heterospec.tree import DraftNode, DraftTree, expand, extend, rerank

TRI = (0.7, 0.2, 0.1)


def test_single_layer_top_children():
    tree = expand(FixedDistModel(TRI), (5,), depth=1, top_k=2)
    assert tree.size() == 2
    a, b = tree.nodes
    assert (a.token, a.depth, a.insertion_index) == (0, 1, 0)
    assert (b.token, b.depth, b.insertion_index) == (1, 1, 1)
    assert a.confidence == 0.7 and b.confidence == 0.2
    assert a.value == pytest.approx(0.7, rel=1e-12)
    assert tree.deepest_layer() == [a, b]


def test_leaf_value_is_confidence_product():
    model = ScriptedModel({(): (0.9, 0.1), (0,): (0.8, 0.2)}, make_vocab(2))
    tree = expand(model, (), depth=2, top_k=1)
    leaf = tree.nodes[-1]
    assert leaf.confidence == 0.8
    assert leaf.log_value == pytest.approx(math.log(0.9) + math.log(0.8))
    assert leaf.value == pytest.approx(0.72, rel=1e-12)
    assert leaf.path_tokens() == (0, 0)


def test_width_capped_tree_node_count():
    # depth 5, top_k 2, width 2: 2 first-layer nodes then 4 per layer
    tree = expand(FixedDistModel(TRI), (0,), depth=5, top_k=2, expand_width=2)
    assert tree.size() == 18
    assert [len(layer) for layer in tree.layers] == [2, 4, 4, 4, 4]


def test_uncapped_tree_expands_every_node():
    tree = expand(FixedDistModel(TRI), (0,), depth=3, top_k=2)
    assert tree.size() == 2 + 4 + 8
    assert tree.expand_width is None


def test_frontier_prefers_high_value_nodes():
    # width 1: only the value-1 branch of layer 1 gets children
    model = ScriptedModel({(9,): (0.3, 0.6, 0.1)}, make_vocab(3))
    tree = expand(model, (9,), depth=2, top_k=2, expand_width=1)
    layer1, layer2 = tree.layers
    assert [n.token for n in layer1] == [1, 0]  # stable sort on -p
    assert all(n.parent.token == 1 for n in layer2)


def test_zero_probability_tokens_never_enter():
    tree = expand(FixedDistModel((0.7, 0.3, 0.0, 0.0)), (0,), depth=2, top_k=4)
    assert all(n.confidence > 0.0 for n in tree.nodes)
    assert [len(layer) for layer in tree.layers] == [2, 4]


def test_planted_chain_value_is_rho_power():
    model, template = chain_template_model(length=30, rho=0.97)
    prompt = template[:4]
    tree = expand(model, prompt, depth=4, top_k=1)
    assert [n.token for n in tree.nodes] == list(template[4:8])
    leaf = tree.nodes[-1]
    assert leaf.confidence == 0.97
    assert leaf.value == pytest.approx(0.97 ** 4, rel=1e-12)


def test_truncated_expansion_survives_dead_frontier():
    # zero mass past layer 1: deeper layers stay empty without erroring
    dead = np.zeros(3)
    model = ScriptedModel({(): (0.6, 0.4, 0.0), (0,): dead, (1,): dead},
                          make_vocab(3))
    tree = expand(model, (), depth=3, top_k=2)
    assert tree.size() == 2
    assert tree.depth_limit == 3
    assert [n.depth for n in tree.deepest_layer()] == [1, 1]


def test_all_zero_root_yields_empty_tree():
    tree = expand(FixedDistModel(np.zeros(3)), (0,), depth=3, top_k=2)
    assert tree.size() == 0
    assert tree.deepest_layer() == []
    assert len(rerank(tree, 5)) == 0


def test_expand_validation():
    with pytest.raises(ConfigError):
        expand(FixedDistModel(TRI), (0,), depth=0, top_k=2)
    with pytest.raises(ConfigError):
        DraftTree((0,), top_k=0)
    with pytest.raises(ConfigError):
        DraftTree((0,), top_k=2, expand_width=0)
    with pytest.raises(ConfigError):
        rerank(expand(FixedDistModel(TRI), (0,), 1, 1), budget=0)


def test_extend_matches_single_expansion():
    model, template = chain_template_model(length=40, rho=0.9)
    prompt = template[:5]

    def shape(tree):
        return [(n.token, n.depth, n.insertion_index, n.confidence, n.log_value)
                for n in tree.nodes]

    grown = expand(model, prompt, depth=3, top_k=2)
    extend(grown, model, extra_layers=2)
    whole = expand(model, prompt, depth=5, top_k=2)
    assert shape(grown) == shape(whole)
    assert grown.depth_limit == whole.depth_limit == 5


def test_extend_rejects_zero_layers():
    tree = expand(FixedDistModel(TRI), (0,), depth=1, top_k=1)
    with pytest.raises(ConfigError):
        extend(tree, FixedDistModel(TRI), extra_layers=0)


def test_path_excludes_root():
    tree = expand(FixedDistModel(TRI), (7,), depth=3, top_k=1)
    leaf = tree.nodes[-1]
    path = leaf.path()
    assert [n.depth for n in path] == [1, 2, 3]
    assert path[-1] is leaf
    assert leaf.path_tokens() == (0, 0, 0)


def test_sort_key_breaks_ties_by_depth_then_insertion():
    dist = np.asarray(TRI)
    tree = DraftTree((), top_k=2)
    a = tree.add_child(tree.root, 0, 0.5, dist)
    b = tree.add_child(tree.root, 1, 0.5, dist)
    c = tree.add_child(a, 2, 1.0, dist)  # same value as its parent
    assert sorted([c, b, a], key=DraftNode.sort_key) == [a, b, c]


def test_rerank_order_and_ranks():
    tree = expand(FixedDistModel(TRI), (0,), depth=2, top_k=2)
    t2 = rerank(tree, 3)
    # values: 0.7, then 0.49, then the layer-1 0.2 node
    assert [n.value for n in t2.nodes] == pytest.approx([0.7, 0.49, 0.2])
    assert [t2.rank_of(n) for n in t2.nodes] == [1, 2, 3]
    assert t2.depth() == 2
    outside = [n for n in tree.nodes if n not in t2]
    assert len(outside) == tree.size() - 3
    kept = t2.children_in(t2.nodes[0])
    assert all(c in t2 for c in kept)


def test_rerank_saturates_at_tree_size():
    tree = expand(FixedDistModel(TRI), (0,), depth=2, top_k=2)
    t2 = rerank(tree, 100)
    assert len(t2) == tree.size()
    assert t2.nodes == sorted(tree.nodes, key=DraftNode.sort_key)


def test_rerank_matches_sort_oracle_randomized():
    rng = np.random.default_rng(2024)
    widths = (None, 1, 2, 3, 4)
    for _ in range(150):
        vocab = make_vocab(int(rng.integers(4, 11)))
        model = DrawnDistModel(vocab, rng)
        depth = int(rng.integers(1, 7))
        top_k = int(rng.integers(1, 5))
        width = widths[int(rng.integers(len(widths)))]
        tree = expand(model, (0, 1), depth, top_k, width)
        budget = int(rng.integers(1, tree.size() + 4))
        t2 = rerank(tree, budget)
        assert t2.nodes == sorted(tree.nodes, key=DraftNode.sort_key)[:budget]
        assert len(t2) == min(budget, tree.size())
        picked = {id(n) for n in t2.nodes}
        for node in t2.nodes:
            assert node.parent is tree.root or id(node.parent) in picked
            if node.parent is not tree.root:
                assert t2.rank_of(node.parent) < t2.rank_of(node)
            assert node.log_value <= node.parent.log_value + 1e-12


def render_tree(tree: DraftTree, symbols=None) -> str:
    """Deterministic text dump (token, confidence, value, depth) for
    golden-file comparisons."""
    lines = [f"tree depth={tree.depth_limit} top_k={tree.top_k} "
             f"width={tree.expand_width} nodes={tree.size()}"]

    def walk(node: DraftNode, indent: int):
        for child in node.children:
            label = symbols[child.token] if symbols else str(child.token)
            lines.append("  " * indent +
                         f"{label} c={child.confidence:.6f} v={child.value:.6f} d={child.depth}")
            walk(child, indent + 1)

    walk(tree.root, 1)
    return "\n".join(lines) + "\n"


def test_render_tree_golden():
    tree = expand(FixedDistModel(TRI), (5,), depth=2, top_k=2)
    expected = (
        "tree depth=2 top_k=2 width=None nodes=6\n"
        "  0 c=0.700000 v=0.700000 d=1\n"
        "    0 c=0.700000 v=0.490000 d=2\n"
        "    1 c=0.200000 v=0.140000 d=2\n"
        "  1 c=0.200000 v=0.200000 d=1\n"
        "    0 c=0.700000 v=0.140000 d=2\n"
        "    1 c=0.200000 v=0.040000 d=2\n"
    )
    assert render_tree(tree) == expected
    labeled = render_tree(tree, symbols=["a", "b", "c"])
    assert "a c=0.700000" in labeled and "b c=0.200000" in labeled
