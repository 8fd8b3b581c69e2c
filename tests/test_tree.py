"""Draft-tree expansion and top-N reranking.

Hand-sized trees pin confidences, values, and layer geometry; a randomized
sweep checks the reranker against a plain sort oracle and the structural
guarantees (root-connected, ancestors ranked first, value monotone along
edges). Nodes are tuples read by the field positions ``tree`` exports: a
node's depth is the length of its path tokens, its token the last of them,
and its creation index its position in ``tree.nodes``."""
from __future__ import annotations

import math

import numpy as np
import pytest

from hypothesis import given
from hypothesis import strategies as st

import dense_reference
from conftest import (DrawnDistModel, FixedDistModel, ScriptedModel, chain_template_model,
                      make_vocab, row_of, selection_ks, selection_rows, step_record)
from heterospec.tree import (NEG_VALUE, PARENT, ROOT, TOKENS, DraftTree, TopK, expand,
                             extend, path, rerank, top_tokens)

TRI = (0.7, 0.2, 0.1)


def depth(node) -> int:
    return len(node[TOKENS])


def token(node) -> int:
    return node[TOKENS][-1]


def confidence(model, tree, node) -> float:
    """Draft probability of the node's token, read from the distribution
    its step was selected from."""
    return float(step_record(model, tree, node).dist[token(node)])


def oracle_order(nodes) -> list:
    """``nodes``, a list in creation order, sorted on (value, depth,
    creation index): the rank order spelled out in full."""
    order = sorted(range(len(nodes)),
                   key=lambda i: (nodes[i][NEG_VALUE], depth(nodes[i]), i))
    return [nodes[i] for i in order]


def layers(tree) -> list[list]:
    """The tree's nodes grouped by depth, each layer in creation order;
    checks that creation order never goes back up a layer."""
    out = []
    for node in tree.nodes:
        if depth(node) > len(out):
            out.append([])
        assert depth(node) == len(out)
        out[-1].append(node)
    return out


def rank_items(nodes) -> list[tuple[tuple[int, ...], int]]:
    """The items, in order, of the rank map of ``nodes`` in rank order."""
    return [(node[TOKENS], rank) for rank, node in enumerate(nodes, 1)]


def test_single_layer_top_children():
    model = FixedDistModel(TRI)
    tree = expand(model, (5,), depth=1, top_k=2)
    assert tree.size() == 2
    a, b = tree.nodes
    assert (a[TOKENS], b[TOKENS]) == ((0,), (1,))
    assert a[PARENT] is b[PARENT] is ROOT
    assert confidence(model, tree, a) == 0.7 and confidence(model, tree, b) == 0.2
    assert math.exp(-a[NEG_VALUE]) == pytest.approx(0.7, rel=1e-12)
    assert tree.deepest == [a, b]


@given(selection_rows(), st.data())
def test_top_children_equals_full_stable_sort(dist, data):
    k = data.draw(selection_ks(dist.shape[0]), label="k")
    # the selection against a full stable argsort on -p, ties included,
    # from rows whose fill is the most frequent value and any value
    order = dense_reference.top_tokens(dist, k)
    fill = data.draw(st.sampled_from(np.unique(dist).tolist()), label="fill")
    for row in (row_of(dist), row_of(dist, fill)):
        tokens, probs = top_tokens(row, k)
        assert tokens.tolist() == order.tolist()
        assert probs.tobytes() == dist[order].tobytes()
        assert TopK(row, k).children == [(int(t), math.log(dist[t]))
                                         for t in order if dist[t] > 0.0]


def test_leaf_value_is_confidence_product():
    model = ScriptedModel({(): (0.9, 0.1), (0,): (0.8, 0.2)}, make_vocab(2))
    tree = expand(model, (), depth=2, top_k=1)
    leaf = tree.nodes[-1]
    assert confidence(model, tree, leaf) == 0.8
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
                log_value = log_value + math.log(confidence(model, tree, step))
            assert node[NEG_VALUE] == -log_value


def test_tree_node_count():
    # depth 5, top_k 2: 2 first-layer nodes then 4 per layer
    tree = expand(FixedDistModel(TRI), (0,), depth=5, top_k=2)
    assert tree.size() == 18
    assert [len(layer) for layer in layers(tree)] == [2, 4, 4, 4, 4]
    assert tree.deepest == layers(tree)[-1]


def test_frontier_prefers_high_value_nodes():
    # layer 2 holds four nodes of distinct value; only the best two, 0.54
    # and 0.24, one under each layer-1 node, get children
    model = ScriptedModel({(9,): (0.6, 0.4, 0.0), (9, 0): (0.9, 0.1, 0.0),
                           (9, 1): (0.0, 0.6, 0.4)}, make_vocab(3))
    tree = expand(model, (9,), depth=3, top_k=2)
    layer1, layer2, layer3 = layers(tree)
    assert [n[TOKENS] for n in layer1] == [(0,), (1,)]
    assert [n[TOKENS] for n in layer2] == [(0, 0), (0, 1), (1, 1), (1, 2)]
    assert [round(math.exp(-n[NEG_VALUE]), 12) for n in layer2] == [
        0.54, 0.06, 0.24, 0.16]
    assert {n[PARENT][TOKENS] for n in layer3} == {(0, 0), (1, 1)}
    assert len(layer3) == 4


def test_zero_probability_tokens_never_enter():
    model = FixedDistModel((0.7, 0.3, 0.0, 0.0))
    tree = expand(model, (0,), depth=2, top_k=4)
    assert all(confidence(model, tree, n) > 0.0 for n in tree.nodes)
    assert [len(layer) for layer in layers(tree)] == [2, 4]


def test_planted_chain_value_is_rho_power():
    model, template = chain_template_model(length=30, rho=0.97)
    prompt = template[:4]
    tree = expand(model, prompt, depth=4, top_k=1)
    assert [token(n) for n in tree.nodes] == list(template[4:8])
    leaf = tree.nodes[-1]
    assert confidence(model, tree, leaf) == 0.97
    assert math.exp(-leaf[NEG_VALUE]) == pytest.approx(0.97 ** 4, rel=1e-12)


def test_truncated_expansion_survives_dead_frontier():
    # zero mass past layer 1: deeper layers stay empty without erroring
    dead = np.zeros(3)
    model = ScriptedModel({(): (0.6, 0.4, 0.0), (0,): dead, (1,): dead},
                          make_vocab(3))
    tree = expand(model, (), depth=3, top_k=2)
    assert tree.size() == 2
    assert tree.deepest == tree.nodes
    assert [depth(n) for n in tree.deepest] == [1, 1]
    # extending re-expands the dead frontier to nothing
    nodes, deepest = list(tree.nodes), tree.deepest
    assert extend(tree, model, extra_layers=2) is tree
    assert tree.nodes == nodes and tree.deepest is deepest


def test_all_zero_root_yields_empty_tree():
    tree = expand(FixedDistModel(np.zeros(3)), (0,), depth=3, top_k=2)
    assert tree.size() == 0
    assert tree.deepest == []
    assert len(rerank(tree, 5)) == 0


def test_extend_matches_single_expansion():
    model, template = chain_template_model(length=40, rho=0.9)
    prompt = template[:5]

    def shape(tree):
        return [(token(n), depth(n), index, confidence(model, tree, n),
                 n[NEG_VALUE])
                for index, n in enumerate(tree.nodes)]

    grown = expand(model, prompt, depth=3, top_k=2)
    extend(grown, model, extra_layers=2)
    whole = expand(model, prompt, depth=5, top_k=2)
    assert shape(grown) == shape(whole)
    assert grown.size() == whole.size() == 2 + 4 * 4
    assert [n[TOKENS] for n in grown.deepest] == [n[TOKENS] for n in whole.deepest]
    assert {depth(n) for n in grown.deepest} == {5}


def test_extend_with_zero_layers_adds_nothing():
    # control.step extends only by a positive number of layers; zero is a no-op
    tree = expand(FixedDistModel(TRI), (0,), depth=2, top_k=2)
    nodes, deepest = list(tree.nodes), tree.deepest
    assert extend(tree, FixedDistModel(TRI), extra_layers=0) is tree
    assert tree.deepest is deepest
    assert tree.nodes == nodes and tree.size() == 6


def test_path_excludes_root():
    tree = expand(FixedDistModel(TRI), (7,), depth=3, top_k=1)
    leaf = tree.nodes[-1]
    nodes = path(leaf)
    assert [depth(n) for n in nodes] == [1, 2, 3]
    assert nodes[0][PARENT] is ROOT and nodes[-1] is leaf
    assert leaf[TOKENS] == (0, 0, 0)


def test_node_order_breaks_value_ties_by_depth_then_index():
    model = ScriptedModel({(): (0.5, 0.5, 0.0), (0,): (0.0, 0.0, 1.0),
                           (1,): np.zeros(3)}, make_vocab(3))
    tree = expand(model, (), depth=2, top_k=2)
    a, b, c = tree.nodes
    assert c[PARENT] is a and c[NEG_VALUE] == a[NEG_VALUE]  # same value
    assert oracle_order([a, b, c]) == [a, b, c]
    assert list(rerank(tree, 3)) == [a[TOKENS], b[TOKENS], c[TOKENS]]


def test_rerank_order_and_ranks():
    tree = expand(FixedDistModel(TRI), (0,), depth=2, top_k=2)
    ranks = rerank(tree, 3)
    # values: 0.7, then 0.49, then the layer-1 0.2 node; of the 0.7 node's
    # children only the 0.49 one is kept
    assert list(ranks.items()) == [((0,), 1), ((0, 0), 2), ((1,), 3)]
    by_tokens = {n[TOKENS]: n for n in tree.nodes}
    assert [math.exp(-by_tokens[t][NEG_VALUE]) for t in ranks] == pytest.approx(
        [0.7, 0.49, 0.2])
    assert tree.size() == 6  # rerank leaves the tree whole


def test_rerank_saturates_at_tree_size():
    tree = expand(FixedDistModel(TRI), (0,), depth=2, top_k=2)
    ranks = rerank(tree, 100)
    assert len(ranks) == tree.size()
    assert list(ranks.items()) == rank_items(oracle_order(tree.nodes))


def test_rerank_matches_sort_oracle_randomized():
    rng = np.random.default_rng(2024)
    for _ in range(150):
        vocab = make_vocab(int(rng.integers(4, 11)))
        model = DrawnDistModel(vocab, rng)
        depth = int(rng.integers(1, 7))
        top_k = int(rng.integers(1, 5))
        tree = expand(model, (0, 1), depth, top_k)
        budget = int(rng.integers(1, tree.size() + 4))
        ranks = rerank(tree, budget)
        kept = oracle_order(tree.nodes)[:budget]
        assert list(ranks.items()) == rank_items(kept)
        assert len(ranks) == min(budget, tree.size())
        # root-connected, ancestors first: every kept key's prefix is the
        # root's () or a kept key of smaller rank
        for tokens, rank in ranks.items():
            assert tokens[:-1] == () or ranks.get(tokens[:-1], rank) < rank
        for node in kept:
            assert -node[NEG_VALUE] <= -node[PARENT][NEG_VALUE] + 1e-12


@pytest.mark.parametrize("dist", [(0.25,) * 4, (0.5, 0.25, 0.25)],
                         ids=["uniform", "dyadic"])
def test_value_sort_gives_the_rank_order_under_ties(dist):
    # rerank and the frontier sort nodes by value alone, relying on
    # creation order being (depth, creation index) order; under a uniform draft
    # every layer is one tie, and dyadic values also tie across depths
    # (0.5 * 0.5 == 0.25 exactly in log domain)
    tree = expand(FixedDistModel(dist), (0,), depth=5, top_k=3)
    values = [n[NEG_VALUE] for n in tree.nodes]
    assert len(set(values)) <= len(values) // 4
    if len(dist) == 3:
        assert {depth(n) for n in tree.nodes
                if n[NEG_VALUE] == -2 * math.log(0.5)} == {1, 2}
    for budget in range(1, tree.size() + 2):
        assert list(rerank(tree, budget).items()) == \
            rank_items(oracle_order(tree.nodes)[:budget])
    grouped = layers(tree)
    for layer, below in zip(grouped, grouped[1:]):
        parents = list(dict.fromkeys(n[PARENT][TOKENS] for n in below))
        assert parents == [n[TOKENS] for n in oracle_order(layer)[:3]]


def render_tree(model, tree: DraftTree, symbols=None) -> str:
    """Deterministic text dump (token, confidence, value, depth) for
    golden-file comparisons."""
    deepest = depth(tree.deepest[0]) if tree.deepest else 0
    lines = [f"tree depth={deepest} top_k={tree.top_k} nodes={tree.size()}"]

    children: dict[tuple[int, ...], list] = {}
    for node in tree.nodes:
        children.setdefault(node[PARENT][TOKENS], []).append(node)

    def walk(tokens: tuple[int, ...], indent: int):
        for child in children.get(tokens, []):
            label = symbols[token(child)] if symbols else str(token(child))
            lines.append("  " * indent +
                         f"{label} c={confidence(model, tree, child):.6f} "
                         f"v={math.exp(-child[NEG_VALUE]):.6f} d={depth(child)}")
            walk(child[TOKENS], indent + 1)

    walk(ROOT[TOKENS], 1)
    return "\n".join(lines) + "\n"


def test_render_tree_golden():
    model = FixedDistModel(TRI)
    tree = expand(model, (5,), depth=2, top_k=2)
    expected = (
        "tree depth=2 top_k=2 nodes=6\n"
        "  0 c=0.700000 v=0.700000 d=1\n"
        "    0 c=0.700000 v=0.490000 d=2\n"
        "    1 c=0.200000 v=0.140000 d=2\n"
        "  1 c=0.200000 v=0.200000 d=1\n"
        "    0 c=0.700000 v=0.140000 d=2\n"
        "    1 c=0.200000 v=0.040000 d=2\n"
    )
    assert render_tree(model, tree) == expected
    labeled = render_tree(model, tree, symbols=["a", "b", "c"])
    assert "a c=0.700000" in labeled and "b c=0.200000" in labeled
