"""Draft-tree expansion and top-N reranking.

Hand-sized trees pin confidences, values, and layer geometry; a randomized
sweep checks the reranker against a plain sort oracle and the structural
guarantees (root-connected, ancestors ranked first, value monotone along
edges). Nodes are tuples read by the field positions ``tree`` exports."""
from __future__ import annotations

import math

import numpy as np
import pytest

from hypothesis import given
from hypothesis import strategies as st

from conftest import (DrawnDistModel, FixedDistModel, ScriptedModel, chain_template_model,
                      make_vocab, selection_ks, selection_rows)
from heterospec.tree import (DEPTH, INDEX, NEG_VALUE, PARENT, STEP, TOKEN, TOKENS,
                             DraftTree, TopK, expand, extend, path, rerank)

TRI = (0.7, 0.2, 0.1)


def confidence(node) -> float:
    """Draft probability of the node's token, read from its step."""
    return float(node[STEP].dist[node[TOKEN]])


def sort_key(node) -> tuple[float, int, int]:
    return (node[NEG_VALUE], node[DEPTH], node[INDEX])


def test_single_layer_top_children():
    tree = expand(FixedDistModel(TRI), (5,), depth=1, top_k=2)
    assert tree.size() == 2
    a, b = tree.nodes
    assert (a[TOKEN], a[DEPTH], a[INDEX]) == (0, 1, 0)
    assert (b[TOKEN], b[DEPTH], b[INDEX]) == (1, 1, 1)
    assert confidence(a) == 0.7 and confidence(b) == 0.2
    assert math.exp(-a[NEG_VALUE]) == pytest.approx(0.7, rel=1e-12)
    assert tree.deepest_layer() == [a, b]


@given(selection_rows(), st.data())
def test_top_children_equals_full_stable_sort(dist, data):
    k = data.draw(selection_ks(dist.shape[0]), label="k")
    # the selection against a full stable argsort on -p, ties included
    order = np.argsort(-dist, kind="stable")[:k]
    top = TopK(dist, k)
    assert top.tokens.tolist() == order.tolist()
    assert top.children == [(int(t), math.log(dist[t]))
                            for t in order if dist[t] > 0.0]


def test_leaf_value_is_confidence_product():
    model = ScriptedModel({(): (0.9, 0.1), (0,): (0.8, 0.2)}, make_vocab(2))
    tree = expand(model, (), depth=2, top_k=1)
    leaf = tree.nodes[-1]
    assert confidence(leaf) == 0.8
    assert -leaf[NEG_VALUE] == pytest.approx(math.log(0.9) + math.log(0.8))
    assert math.exp(-leaf[NEG_VALUE]) == pytest.approx(0.72, rel=1e-12)
    assert leaf[TOKENS] == (0, 0)


def test_value_is_the_negated_log_sum_bitwise():
    # -(a + log p) == -a - log p in IEEE arithmetic, so the stored value
    # equals the negated running sum of log confidences down the path,
    # and rank ties fall exactly as they would on that sum
    rng = np.random.default_rng(77)
    for _ in range(50):
        model = DrawnDistModel(make_vocab(int(rng.integers(3, 9))), rng)
        tree = expand(model, (0,), int(rng.integers(1, 6)), int(rng.integers(1, 4)))
        for node in tree.nodes:
            log_value = 0.0
            for step in path(node):
                log_value = log_value + math.log(confidence(step))
            assert node[NEG_VALUE] == -log_value


def test_tree_node_count():
    # depth 5, top_k 2: 2 first-layer nodes then 4 per layer
    tree = expand(FixedDistModel(TRI), (0,), depth=5, top_k=2)
    assert tree.size() == 18
    assert [len(layer) for layer in tree.layers] == [2, 4, 4, 4, 4]


def test_frontier_prefers_high_value_nodes():
    # layer 2 holds four nodes of distinct value; only the best two, 0.54
    # and 0.24, one under each layer-1 node, get children
    model = ScriptedModel({(9,): (0.6, 0.4, 0.0), (9, 0): (0.9, 0.1, 0.0),
                           (9, 1): (0.0, 0.6, 0.4)}, make_vocab(3))
    tree = expand(model, (9,), depth=3, top_k=2)
    layer1, layer2, layer3 = tree.layers
    assert [n[TOKENS] for n in layer1] == [(0,), (1,)]
    assert [n[TOKENS] for n in layer2] == [(0, 0), (0, 1), (1, 1), (1, 2)]
    assert [round(math.exp(-n[NEG_VALUE]), 12) for n in layer2] == [
        0.54, 0.06, 0.24, 0.16]
    assert {n[PARENT][TOKENS] for n in layer3} == {(0, 0), (1, 1)}
    assert len(layer3) == 4


def test_zero_probability_tokens_never_enter():
    tree = expand(FixedDistModel((0.7, 0.3, 0.0, 0.0)), (0,), depth=2, top_k=4)
    assert all(confidence(n) > 0.0 for n in tree.nodes)
    assert [len(layer) for layer in tree.layers] == [2, 4]


def test_planted_chain_value_is_rho_power():
    model, template = chain_template_model(length=30, rho=0.97)
    prompt = template[:4]
    tree = expand(model, prompt, depth=4, top_k=1)
    assert [n[TOKEN] for n in tree.nodes] == list(template[4:8])
    leaf = tree.nodes[-1]
    assert confidence(leaf) == 0.97
    assert math.exp(-leaf[NEG_VALUE]) == pytest.approx(0.97 ** 4, rel=1e-12)


def test_truncated_expansion_survives_dead_frontier():
    # zero mass past layer 1: deeper layers stay empty without erroring
    dead = np.zeros(3)
    model = ScriptedModel({(): (0.6, 0.4, 0.0), (0,): dead, (1,): dead},
                          make_vocab(3))
    tree = expand(model, (), depth=3, top_k=2)
    assert tree.size() == 2
    assert tree.depth_limit == 3
    assert [n[DEPTH] for n in tree.deepest_layer()] == [1, 1]


def test_all_zero_root_yields_empty_tree():
    tree = expand(FixedDistModel(np.zeros(3)), (0,), depth=3, top_k=2)
    assert tree.size() == 0
    assert tree.deepest_layer() == []
    assert len(rerank(tree, 5)) == 0


def test_extend_matches_single_expansion():
    model, template = chain_template_model(length=40, rho=0.9)
    prompt = template[:5]

    def shape(tree):
        return [(n[TOKEN], n[DEPTH], n[INDEX], confidence(n), n[NEG_VALUE])
                for n in tree.nodes]

    grown = expand(model, prompt, depth=3, top_k=2)
    extend(grown, model, extra_layers=2)
    whole = expand(model, prompt, depth=5, top_k=2)
    assert shape(grown) == shape(whole)
    assert grown.depth_limit == whole.depth_limit == 5


def test_extend_with_zero_layers_adds_nothing():
    # _decode extends only by a positive number of layers; zero is a no-op
    tree = expand(FixedDistModel(TRI), (0,), depth=2, top_k=2)
    nodes = list(tree.nodes)
    assert extend(tree, FixedDistModel(TRI), extra_layers=0) is tree
    assert tree.depth_limit == 2
    assert tree.nodes == nodes and tree.size() == 6


def test_path_excludes_root():
    tree = expand(FixedDistModel(TRI), (7,), depth=3, top_k=1)
    leaf = tree.nodes[-1]
    nodes = path(leaf)
    assert [n[DEPTH] for n in nodes] == [1, 2, 3]
    assert nodes[-1] is leaf
    assert leaf[TOKENS] == (0, 0, 0)


def test_node_order_breaks_value_ties_by_depth_then_index():
    model = ScriptedModel({(): (0.5, 0.5, 0.0), (0,): (0.0, 0.0, 1.0),
                           (1,): np.zeros(3)}, make_vocab(3))
    a, b, c = expand(model, (), depth=2, top_k=2).nodes
    assert c[PARENT] is a and c[NEG_VALUE] == a[NEG_VALUE]  # same value
    assert sorted([c, b, a], key=sort_key) == [a, b, c]
    assert sorted([c, b, a]) == [a, b, c]  # the tuple order is the rank order


def test_rerank_order_and_ranks():
    tree = expand(FixedDistModel(TRI), (0,), depth=2, top_k=2)
    t2 = rerank(tree, 3)
    # values: 0.7, then 0.49, then the layer-1 0.2 node
    assert [math.exp(-n[NEG_VALUE]) for n in t2.nodes] == pytest.approx(
        [0.7, 0.49, 0.2])
    assert [t2.ranks[n[TOKENS]] for n in t2.nodes] == [1, 2, 3]
    assert max(n[DEPTH] for n in t2.nodes) == 2
    picked = {id(n) for n in t2.nodes}
    outside = [n for n in tree.nodes if id(n) not in picked]
    assert len(outside) == tree.size() - 3
    # the token map holds exactly the kept nodes
    assert set(t2.ranks) == {n[TOKENS] for n in t2.nodes}
    kept = [n for n in tree.nodes
            if n[PARENT] is t2.nodes[0] and n[TOKENS] in t2.ranks]
    assert kept and all(id(c) in picked for c in kept)


def test_rerank_saturates_at_tree_size():
    tree = expand(FixedDistModel(TRI), (0,), depth=2, top_k=2)
    t2 = rerank(tree, 100)
    assert len(t2) == tree.size()
    assert t2.nodes == sorted(tree.nodes, key=sort_key)


def test_rerank_matches_sort_oracle_randomized():
    rng = np.random.default_rng(2024)
    for _ in range(150):
        vocab = make_vocab(int(rng.integers(4, 11)))
        model = DrawnDistModel(vocab, rng)
        depth = int(rng.integers(1, 7))
        top_k = int(rng.integers(1, 5))
        tree = expand(model, (0, 1), depth, top_k)
        budget = int(rng.integers(1, tree.size() + 4))
        t2 = rerank(tree, budget)
        assert t2.nodes == sorted(tree.nodes, key=sort_key)[:budget]
        assert len(t2) == min(budget, tree.size())
        picked = {id(n) for n in t2.nodes}
        for node in t2.nodes:
            assert node[PARENT] is tree.root or id(node[PARENT]) in picked
            if node[PARENT] is not tree.root:
                assert t2.ranks[node[PARENT][TOKENS]] < t2.ranks[node[TOKENS]]
            assert -node[NEG_VALUE] <= -node[PARENT][NEG_VALUE] + 1e-12


@pytest.mark.parametrize("dist", [(0.25,) * 4, (0.5, 0.25, 0.25)],
                         ids=["uniform", "dyadic"])
def test_value_sort_gives_the_tuple_order_under_ties(dist):
    # rerank and the frontier sort nodes by value alone, relying on
    # creation order being (depth, index) order; under a uniform draft
    # every layer is one tie, and dyadic values also tie across depths
    # (0.5 * 0.5 == 0.25 exactly in log domain)
    tree = expand(FixedDistModel(dist), (0,), depth=5, top_k=3)
    values = [n[NEG_VALUE] for n in tree.nodes]
    assert len(set(values)) <= len(values) // 4
    if len(dist) == 3:
        assert {n[DEPTH] for n in tree.nodes
                if n[NEG_VALUE] == -2 * math.log(0.5)} == {1, 2}
    for budget in range(1, tree.size() + 2):
        assert rerank(tree, budget).nodes == sorted(tree.nodes)[:budget]
    for layer, below in zip(tree.layers, tree.layers[1:]):
        parents = list(dict.fromkeys(n[PARENT][INDEX] for n in below))
        assert parents == [n[INDEX] for n in sorted(layer)[:3]]


def render_tree(tree: DraftTree, symbols=None) -> str:
    """Deterministic text dump (token, confidence, value, depth) for
    golden-file comparisons."""
    lines = [f"tree depth={tree.depth_limit} top_k={tree.top_k} "
             f"nodes={tree.size()}"]

    children: dict[int, list] = {}
    for node in tree.nodes:
        children.setdefault(node[PARENT][INDEX], []).append(node)

    def walk(index: int, indent: int):
        for child in children.get(index, []):
            token = child[TOKEN]
            label = symbols[token] if symbols else str(token)
            lines.append("  " * indent +
                         f"{label} c={confidence(child):.6f} "
                         f"v={math.exp(-child[NEG_VALUE]):.6f} d={child[DEPTH]}")
            walk(child[INDEX], indent + 1)

    walk(tree.root[INDEX], 1)
    return "\n".join(lines) + "\n"


def test_render_tree_golden():
    tree = expand(FixedDistModel(TRI), (5,), depth=2, top_k=2)
    expected = (
        "tree depth=2 top_k=2 nodes=6\n"
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
