import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (BAD_MODEL_FILES, FixedDistModel, PlantedTemplateModel,
                      count_dicts, count_tables, is_valid_dist, make_vocab,
                      model_file, prob_dists, selection_ks, smoothed_dists,
                      tied_dists)
from heterospec import models, tree
from heterospec.errors import ConfigError
from heterospec.models import (DistRecord, LanguageModel, NGramModel,
                               PerturbedDraftModel, argmax_token, load_model,
                               perturb, save_model, train_ngram)
from heterospec.tree import TopK
from heterospec.vocab import UNK, Vocabulary, build_vocab, encode_corpus, split_corpus


def test_is_valid_dist():
    assert is_valid_dist(np.array([0.5, 0.5]))
    assert is_valid_dist(np.array([0.5, 0.5]), size=2)
    assert not is_valid_dist(np.array([0.5, 0.5]), size=3)
    assert not is_valid_dist(np.array([0.6, 0.5]))
    assert not is_valid_dist(np.array([-0.1, 1.1]))
    assert not is_valid_dist(np.array([[0.5, 0.5]]))


def test_bigram_counts_hand_checked():
    # "aaaa" has 3 a->a bigrams; add-k gives (3 + k) / (3 + kV) with V = 2
    vocab = build_vocab(["aaaa"], mode="char")
    model = train_ngram(["aaaa"], vocab, order=2, smoothing=0.01)
    a, = vocab.encode("a")
    dist = model.next_dist((a,)).dist
    assert dist[a] > 0.99
    assert math.isclose(dist[a], 3.01 / 3.02, rel_tol=0, abs_tol=1e-15)


def test_unseen_context_backs_off_to_unigram():
    vocab = build_vocab(["abab"], mode="char")
    model = train_ngram(["abab"], vocab, order=3, smoothing=0.5)
    # context (unk, unk) was never observed at length 2 or 1
    fallback = model.next_dist(vocab.encode("zz")).dist
    counts = np.array([2.0, 2.0, 0.0])  # a, b, <unk> occurrences in the corpus
    expected = (counts + 0.5) / (counts.sum() + 0.5 * 3)
    np.testing.assert_allclose(fallback, expected, atol=1e-15)


def test_uniform_bigram_usage_gives_uniform_dist():
    vocab = build_vocab(["abc" * 30], mode="char")
    model = train_ngram(["abc" * 30], vocab, order=1, smoothing=0.1)
    dist = model.next_dist(()).dist
    assert np.ptp(dist[:3]) < 1e-12


def test_ngram_determinism_bitwise():
    docs = ["the cat sat", "the dog sat", "a cat ran"]
    vocab = build_vocab(docs, mode="word")
    a = train_ngram(docs, vocab, order=2, smoothing=0.1)
    b = train_ngram(docs, vocab, order=2, smoothing=0.1)
    ctx = vocab.encode("the cat")
    assert np.array_equal(a.next_dist(ctx).dist, b.next_dist(ctx).dist)


def test_ngram_distributions_valid_over_fuzzed_contexts():
    docs = ["the cat sat on the mat", "the dog sat", "a cat ran far"]
    vocab = build_vocab(docs, mode="word")
    model = train_ngram(docs, vocab, order=3, smoothing=0.05)
    rng = np.random.default_rng(7)
    for _ in range(300):
        ctx = tuple(int(t) for t in rng.integers(vocab.size, size=rng.integers(0, 5)))
        assert is_valid_dist(model.next_dist(ctx).dist, vocab.size)


def test_ngram_validation():
    docs = ["ab"]
    vocab = build_vocab(docs, mode="char")
    with pytest.raises(ConfigError):
        train_ngram(docs, vocab, order=0, smoothing=0.1)
    with pytest.raises(ConfigError):
        train_ngram(docs, vocab, order=2, smoothing=0.0)


def test_planted_template_in_template_dist():
    # inside the template the next token gets rho, the rest split 1 - rho
    vocab = make_vocab(11)
    model = PlantedTemplateModel(vocab, [tuple(range(5))], rho=0.9)
    dist = model.next_dist((7, 0, 1)).dist
    assert dist[2] == 0.9
    others = np.delete(dist, 2)
    np.testing.assert_allclose(others, 0.01, atol=1e-15)
    assert float(dist.max()) == 0.9


def test_planted_template_off_template_uniform():
    vocab = make_vocab(8)
    model = PlantedTemplateModel(vocab, [(0, 1, 2)], rho=0.95)
    dist = model.next_dist((5, 6)).dist
    np.testing.assert_allclose(dist, 1.0 / 8, atol=1e-15)


def test_planted_template_entry_prob_boosts_starts():
    vocab = make_vocab(10)
    model = PlantedTemplateModel(vocab, [(3, 4, 5), (6, 7, 8)], rho=0.9,
                                 entry_prob=0.4)
    dist = model.next_dist(()).dist
    assert math.isclose(dist[3], 0.06 + 0.2, abs_tol=1e-15)
    assert math.isclose(dist[6], 0.06 + 0.2, abs_tol=1e-15)
    assert math.isclose(dist[0], 0.06, abs_tol=1e-15)
    assert is_valid_dist(dist, 10)


def test_template_position_longest_match_wins():
    vocab = make_vocab(12)
    model = PlantedTemplateModel(vocab, [(0, 1, 2, 3), (1, 2, 9, 9)], rho=0.9)
    # suffix (0, 1, 2) matches template 0 at length 3, template 1 at length 2
    assert model.template_position((5, 0, 1, 2)) == (0, 3)
    assert model.template_position((5, 1, 2)) == (1, 2)
    assert model.template_position((5, 5)) is None


def test_template_position_tie_prefers_lower_index():
    vocab = make_vocab(12)
    model = PlantedTemplateModel(vocab, [(1, 2, 7, 8), (1, 2, 9, 9)], rho=0.9)
    assert model.template_position((5, 1, 2)) == (0, 2)


def test_planted_template_validation():
    vocab = make_vocab(6)
    with pytest.raises(ConfigError):
        PlantedTemplateModel(vocab, [(0, 1)], rho=0.5)
    with pytest.raises(ConfigError):
        PlantedTemplateModel(vocab, [(0,)], rho=0.9)
    with pytest.raises(ConfigError):
        PlantedTemplateModel(vocab, [(0, 9)], rho=0.9)
    with pytest.raises(ConfigError):
        PlantedTemplateModel(vocab, [(0, 1)], rho=0.9, entry_prob=1.5)


def test_perturb_identity_is_exact():
    dist = np.array([0.3, 0.25, 0.45])
    out = perturb(dist, noise=0.0)
    assert np.array_equal(out, dist)
    assert out is not dist


def test_perturb_mixture_arithmetic():
    out = perturb(np.array([0.8, 0.2]), noise=0.5)
    np.testing.assert_allclose(out, [0.65, 0.35], atol=1e-15)


@given(prob_dists(max_size=12), st.floats(0.0, 1.0))
def test_perturb_outputs_valid_dists(dist, noise):
    assert is_valid_dist(perturb(dist, noise), dist.shape[0])


@given(prob_dists(max_size=12, allow_zeros=False))
def test_perturb_full_support_when_noisy(dist):
    assert np.all(perturb(dist, 0.1) > 0.0)


def test_perturbed_draft_identity_equals_base():
    docs = ["a b c a b", "c a b c"]
    vocab = build_vocab(docs, mode="word")
    base = train_ngram(docs, vocab, order=2, smoothing=0.1)
    draft = PerturbedDraftModel(base, noise=0.0)
    for ctx in [(), (0,), (1, 2), (2, 0, 1)]:
        assert np.array_equal(draft.next_dist(ctx).dist, base.next_dist(ctx).dist)


def test_perturbed_draft_full_noise_is_uniform():
    base = PlantedTemplateModel(make_vocab(10), [(0, 1, 2)], rho=0.99)
    draft = PerturbedDraftModel(base, noise=1.0)
    np.testing.assert_allclose(draft.next_dist((0, 1)).dist, 0.1, atol=1e-15)


# ----------------------------------------------------------- model files


def test_save_model_golden_bytes(tmp_path):
    docs = ["cab", "ca"]
    model = train_ngram(docs, build_vocab(docs, mode="char"), order=2,
                        smoothing=0.5)
    path = tmp_path / "model.bin"
    save_model(model, path)
    # contexts and tokens in ascending id order, whatever order they were
    # first seen in: keys 0 1 2 | counts 2 1 2 | keys 1 8 | counts 1 2
    assert path.read_bytes() == (
        b'heterospec-ngram v2\n{"mode": "char", "order": 2, "smoothing": 0.5, '
        b'"symbols": ["a", "b", "c", "<unk>"], "sizes": [3, 2]}\n'
        + np.array([0, 1, 2, 2, 1, 2, 1, 8, 1, 2], dtype="<i8").tobytes())
    assert path.read_bytes() == model_file()


_symbols = st.lists(st.text(max_size=3).filter(lambda s: s != UNK), min_size=1,
                    max_size=9, unique=True).map(lambda s: (*s, UNK))


@st.composite
def _models(draw):
    """An n-gram model over any vocabulary and order 1-4 whose tables hold
    any in-range keys, empty tables and zero counts among them."""
    vocab = Vocabulary(draw(_symbols), draw(st.sampled_from(["char", "word"])))
    order, v = draw(st.integers(1, 4)), vocab.size
    counts = st.one_of(st.just(0), st.integers(0, 9), st.integers(0, 2 ** 63 - 1))
    tables = []
    for length in range(order):
        keys = sorted(draw(st.sets(st.integers(0, v ** (length + 1) - 1),
                                   max_size=12)))
        tables.append((np.array(keys, dtype=np.int64),
                       np.array([draw(counts) for _ in keys], dtype=np.int64)))
    smoothing = draw(st.sampled_from([0.1, 0.5, 1, 1e-300, 1e300]))
    return NGramModel(vocab, order, smoothing, tables)


@given(_models(), st.lists(st.lists(st.integers(0, 9), max_size=4), max_size=20))
def test_model_file_round_trips_any_tables(tmp_path_factory, model, contexts):
    out = tmp_path_factory.mktemp("model")
    path = out / "model.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert (loaded.vocab, loaded.order, loaded.smoothing) == \
        (model.vocab, model.order, model.smoothing)
    assert [(k.dtype, c.dtype) for k, c in loaded._counts] == \
        [(np.dtype(np.int64),) * 2] * model.order
    assert _listed(loaded._counts) == _listed(model._counts)
    # every context the tables hold, and others over the vocabulary
    v = model.vocab.size
    contexts = [tuple(t % v for t in ctx) for ctx in contexts]
    contexts += [ctx for table in count_dicts(model._counts, v) for ctx in table]
    for ctx in contexts:
        assert loaded.next_dist(ctx).dist.tobytes() == \
            model.next_dist(ctx).dist.tobytes()
    # saving the same tables again, from either model, writes the same bytes
    save_model(model, out / "again.bin")
    save_model(loaded, out / "loaded.bin")
    assert path.read_bytes() == (out / "again.bin").read_bytes() \
        == (out / "loaded.bin").read_bytes()


@pytest.mark.parametrize("name", BAD_MODEL_FILES)
def test_load_model_refuses_a_file_save_model_does_not_write(tmp_path, name):
    data, error = BAD_MODEL_FILES[name]
    path = tmp_path / "model.bin"
    path.write_bytes(data)
    with pytest.raises(ConfigError) as exc:
        load_model(path)
    assert str(exc.value).startswith(f"{path}: ")
    assert error in str(exc.value)


# the same rule as the config's model.order and model.smoothing checks
@pytest.mark.parametrize("key,value,error", [
    ("smoothing", math.nan, "model.smoothing must be finite and > 0, got nan"),
    ("smoothing", math.inf, "model.smoothing must be finite and > 0, got inf"),
    ("smoothing", -math.inf, "model.smoothing must be finite and > 0, got -inf"),
    ("smoothing", 0.0, "model.smoothing must be finite and > 0, got 0.0"),
    ("smoothing", 10 ** 400,
     f"model.smoothing must be finite and > 0, got {10 ** 400}"),
    ("order", 0, "model.order must be >= 1, got 0"),
    ("order", -1, "model.order must be >= 1, got -1"),
])
def test_load_model_refuses_a_bad_header_value(tmp_path, key, value, error):
    path = tmp_path / "model.bin"
    path.write_bytes(model_file(**{key: value}))
    with pytest.raises(ConfigError) as exc:
        load_model(path)
    assert str(exc.value) == f"{path}: bad header: {error}"


def test_save_model_keeps_the_zero_counts_it_writes(tmp_path):
    # a zero count is a record: written and read back alike, and its
    # context stops the backoff
    vocab = build_vocab(["cab", "ca"], mode="char")
    tables = [([0, 1, 2], [2, 1, 2]), ([1, 6, 8], [1, 0, 2])]
    counts = count_tables([{(): {0: 2, 1: 1, 2: 2}},
                           {(2,): {0: 2}, (0,): {1: 1}, (1,): {2: 0}}], vocab.size)
    assert _listed(counts) == tables
    path = tmp_path / "model.bin"
    save_model(NGramModel(vocab, 2, 0.5, counts), path)
    assert path.read_bytes() == model_file(tables, sizes=[3, 3])
    loaded = load_model(path)
    assert _listed(loaded._counts) == tables
    b, = vocab.encode("b")
    assert loaded.next_dist((b,)).dist.tolist() == [0.25] * 4


def test_lower_order_equals_trained_model(tmp_path):
    vocab = build_vocab(MEMO_DOCS, mode="word")
    model = train_ngram(MEMO_DOCS, vocab, order=4, smoothing=0.05)
    assert model.lower_order(4) is model
    rng = np.random.default_rng(17)
    for order in range(1, 5):
        low = model.lower_order(order)
        trained = train_ngram(MEMO_DOCS, vocab, order=order, smoothing=0.05)
        assert low.order == order
        save_model(low, tmp_path / "low.bin")
        save_model(trained, tmp_path / "trained.bin")
        assert (tmp_path / "low.bin").read_bytes() == \
            (tmp_path / "trained.bin").read_bytes()
        for _ in range(200):
            ctx = tuple(int(t) for t in rng.integers(vocab.size,
                                                     size=rng.integers(0, 5)))
            assert low.next_dist(ctx).dist.tobytes() == \
                trained.next_dist(ctx).dist.tobytes()


# (order, tables as (keys, counts) lists, message): over 4 symbols, none
# a model may hold
BAD_TABLES = {
    "token-out-of-range": (1, [([0, 9], [1, 2])], "count table 0: need keys"),
    "key-out-of-range": (2, [([0], [1]), ([16], [1])], "count table 1: need keys"),
    "negative-key": (1, [([-1, 0], [1, 2])], "count table 0: need keys"),
    "descending": (1, [([2, 0], [1, 1])], "count table 0: need keys"),
    "repeated-key": (1, [([0, 0], [1, 1])], "count table 0: need keys"),
    "negative-count": (1, [([0, 1], [1, -1])], "count table 0: need keys"),
    "misaligned": (1, [([0, 1], [1])], "count table 0: need two aligned"),
    "too-many-tables": (1, [([0], [1]), ([1], [1])],
                        "an order-1 model needs 1 count tables, got 2"),
}


@pytest.mark.parametrize("name", sorted(BAD_TABLES))
def test_ngram_model_refuses_bad_tables(name):
    vocab = build_vocab(["cab", "ca"], mode="char")
    order, tables, message = BAD_TABLES[name]
    counts = [(np.array(keys, dtype=np.int64), np.array(cnt, dtype=np.int64))
              for keys, cnt in tables]
    with pytest.raises(ConfigError, match=message):
        NGramModel(vocab, order, 0.5, counts)


def test_ngram_model_refuses_tables_not_of_int64_arrays():
    vocab = build_vocab(["cab", "ca"], mode="char")
    keys = np.array([0, 1], dtype=np.int64)
    for counts in ([(keys, keys.astype(np.int32))], [(keys.tolist(), keys)],
                   [(keys.reshape(1, 2), keys.reshape(1, 2))]):
        with pytest.raises(ConfigError, match="count table 0: need two aligned"):
            NGramModel(vocab, 1, 0.5, counts)


@pytest.mark.parametrize("order,v,refused", [
    (62, 2, False), (63, 2, True), (13, 27, False), (14, 27, True),
    (5, 6208, False), (6, 6208, True), (10 ** 9, 2, True),
])
def test_check_key_space_refuses_keys_past_int64(order, v, refused):
    if refused:
        with pytest.raises(ConfigError, match=f"model.order {order} is too high "
                           f"for a vocabulary of {v} symbols"):
            models.check_key_space(order, v)
    else:
        models.check_key_space(order, v)


def test_model_order_past_the_count_keys_is_refused_before_counting(tmp_path):
    vocab = build_vocab(["cab", "ca"], mode="char")  # 4 symbols: 4^32 = 2^64
    with pytest.raises(ConfigError, match=r"model\.order 32 .* 4 symbols"):
        train_ngram(["cab"] * 10 ** 6, vocab, order=32, smoothing=0.5)
    with pytest.raises(ConfigError, match=r"model\.order 32 .* 4 symbols"):
        NGramModel(vocab, 32, 0.5, [])
    path = tmp_path / "model.bin"
    path.write_bytes(model_file([([], [])] * 32, order=32, sizes=[0] * 32))
    with pytest.raises(ConfigError) as exc:
        load_model(path)
    assert str(exc.value) == (f"{path}: bad header: model.order 32 is too high "
                              f"for a vocabulary of 4 symbols: count keys need "
                              f"4^32 < 2^63")


def test_ngram_model_rejects_bad_hyperparameters():
    vocab = build_vocab(["ab"], mode="char")
    with pytest.raises(ConfigError, match="^model.order must be >= 1, got 0$"):
        NGramModel(vocab, 0, 0.1, [])
    for smoothing in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="^model.smoothing must be finite "
                           f"and > 0, got {smoothing}$"):
            NGramModel(vocab, 1, smoothing, [{}])


# -------------------------------------------------------------- training


def _token_loop_counts(corpus, vocab, order):
    """The count tables as a token-by-token loop builds them, as
    {context: {token: count}}: for every token, every context length up to
    order - 1 that fits before it. The oracle for ``train_ngram``'s window
    counts."""
    counts = [{} for _ in range(order)]
    for doc in encode_corpus(corpus, vocab):
        for i, tok in enumerate(doc):
            for length in range(min(order - 1, i) + 1):
                seen = counts[length].setdefault(tuple(doc[i - length:i]), {})
                seen[tok] = seen.get(tok, 0) + 1
    return counts


def _listed(counts):
    """The tables as lists, comparable with ``==``."""
    return [(keys.tolist(), cnt.tolist()) for keys, cnt in counts]


def _records(dicts):
    """Every record of {context: {token: count}} tables, in key order."""
    return [sorted((ctx, tok, count) for ctx, seen in table.items()
                   for tok, count in seen.items()) for table in dicts]


@given(st.sampled_from(["char", "word"]), st.integers(1, 4),
       st.lists(st.text(alphabet="ab c", max_size=14), min_size=1, max_size=6))
@example(mode="word", order=4, docs=["", "a", "a b", "c a b c a"])
@example(mode="char", order=3, docs=["", "ab", "cabcab c", "a"])
@example(mode="word", order=2, docs=["<unk> a", "c <unk> b a"])
def test_train_ngram_equals_token_loop(tmp_path_factory, mode, order, docs):
    # the vocabulary may miss "c" (and " " in char mode), so <unk> is counted
    vocab = build_vocab(["a b", docs[0], "a"], mode=mode)
    model = train_ngram(docs, vocab, order=order, smoothing=0.1)
    want = _token_loop_counts(docs, vocab, order)
    assert _records(count_dicts(model._counts, vocab.size)) == _records(want)
    # the corpus split once, as train-model hands it over, counts the same
    split = train_ngram(split_corpus(docs, mode), vocab, order=order,
                        smoothing=0.1)
    assert _listed(split._counts) == _listed(model._counts)
    out = tmp_path_factory.mktemp("train")
    save_model(model, out / "model.bin")
    oracle = NGramModel(vocab, order, 0.1, count_tables(want, vocab.size))
    save_model(oracle, out / "oracle.bin")
    assert (out / "model.bin").read_bytes() == (out / "oracle.bin").read_bytes()


# ------------------------------------------------------------------ memo

MEMO_DOCS = ["the cat sat on the mat", "the dog sat", "a cat ran far"]


def _memo_models():
    vocab = build_vocab(MEMO_DOCS, mode="word")
    target = train_ngram(MEMO_DOCS, vocab, order=3, smoothing=0.05)
    return vocab, target, PerturbedDraftModel(target, noise=0.02)


def _backoff_context(model, ctx):
    """The longest suffix of ``ctx``, at most order - 1 tokens, that the
    model's count tables hold; the empty context otherwise."""
    tables = count_dicts(model._counts, model.vocab.size)
    for length in range(min(model.order - 1, len(ctx)), 0, -1):
        suffix = tuple(ctx[len(ctx) - length:])
        if suffix in tables[length]:
            return suffix
    return ()


def _uncached_dist(model, ctx):
    """The add-k distribution after ``ctx``, with no memo and no backoff
    code from the model under test."""
    key = _backoff_context(model, ctx)
    vec = np.zeros(model.vocab.size, dtype=np.int64)
    seen = count_dicts(model._counts, model.vocab.size)[len(key)].get(key, {})
    for tok, count in seen.items():
        vec[tok] = count
    k, v = model.smoothing, model.vocab.size
    return (vec + k) / (vec.sum() + k * v)


def test_next_dist_backs_off_to_longest_seen_suffix():
    vocab, target, draft = _memo_models()
    the, cat, unk = vocab.encode(f"the cat {UNK}")
    cases = {(unk, the, cat): (the, cat), (unk, unk, the): (the,),  # (unk, the) unseen
             (unk, unk): (), (cat,): (cat,), (): ()}
    for ctx, key in cases.items():
        assert _backoff_context(target, ctx) == key
        want = _uncached_dist(target, ctx)
        assert target.next_dist(ctx).dist.tobytes() == want.tobytes()
        assert draft.next_dist(ctx).dist.tobytes() == \
            perturb(want, draft.noise).tobytes()
    assert target.next_dist((unk, unk)).dist.tobytes() == \
        target.next_dist(()).dist.tobytes()


class _LastTokenModel(LanguageModel):
    """A minimal ``_compute`` model: one-hot on the token after the last
    one, so its state, its window, is the last token. Counts its
    computes."""

    _window = slice(-1, None)

    def __init__(self, vocab):
        super().__init__()
        self.vocab = vocab
        self.computed = []

    def _compute(self, context):
        self.computed.append(tuple(context))
        dist = np.zeros(self.vocab.size)
        dist[(context[-1] + 1) % self.vocab.size if context else 0] = 1.0
        return dist


def _same_state_pairs():
    """(model, context, context in the same state) for an n-gram model, a
    draft over it and a minimal ``_compute`` stub."""
    vocab, target, draft = _memo_models()
    the, cat, unk = vocab.encode(f"the cat {UNK}")
    return [(target, (the, cat), (unk, the, cat)),
            (draft, (the, cat), vocab.encode("a the cat")),
            (_LastTokenModel(vocab), (the, cat), [unk, cat])]


def test_same_key_shares_one_read_only_array():
    pairs = _same_state_pairs()
    for model, ctx, same in pairs:
        assert model.state_key(ctx) == model.state_key(same)
        rec = model.next_dist(ctx)
        assert model.next_dist(same) is rec
        assert model.next_dist(model.state_key(ctx)) is rec
        with pytest.raises(ValueError):
            rec.dist[0] = 1.0
    stub, ctx, _ = pairs[-1]
    assert stub.computed == [ctx]  # one compute for its one state


def test_a_list_context_and_its_tuple_get_one_record():
    vocab, target, draft = _memo_models()
    stub = FixedDistModel(np.full(vocab.size, 1.0 / vocab.size), vocab)
    ctx = vocab.encode("a the cat")
    for model in (target, draft, stub):
        rec = model.next_dist(list(ctx))
        assert model.next_dist(tuple(ctx)) is rec
        assert model.next_dist(list(ctx)) is rec
        key = model.state_key(list(ctx))
        assert type(key) is tuple and key == model.state_key(tuple(ctx))


def test_a_model_that_defines_state_key_is_refused():
    # next_dist keys its memo by _window, so a state_key override would be
    # silently ignored
    with pytest.raises(TypeError, match="_StateKeyModel defines state_key"):
        class _StateKeyModel(LanguageModel):
            def state_key(self, context):
                return tuple(context[-1:])

    class _Narrowed(_LastTokenModel):  # a window is how a state narrows
        _window = slice(-2, None)

    assert _Narrowed(make_vocab(3)).state_key((0, 1, 2)) == (1, 2)


def test_one_topk_is_made_per_state_across_equal_state_next_dist_calls(monkeypatch):
    made = []

    class CountedTopK(TopK):
        __slots__ = ()

        def __init__(self, dist, k):
            made.append(k)
            super().__init__(dist, k)

    monkeypatch.setattr(tree, "TopK", CountedTopK)
    for model, ctx, same in _same_state_pairs():
        made.clear()
        tops = []
        for c in (ctx, same, ctx):
            tree.expand(model, c, depth=1, top_k=2)
            tops.append(model.next_dist(c).topk)
        assert made == [2]
        assert tops[0] is tops[1] is tops[2]


@given(st.one_of(smoothed_dists(), tied_dists()), st.sampled_from([0.02, 0.3]),
       st.data())
def test_records_keep_the_first_argmax_and_the_top1_probability(row, noise, data):
    # an n-gram row and the draft's perturbed row of it; equal counts tie
    # at the maximum, and perturbing keeps the ties
    rows = [row, perturb(row, noise)] if row.sum() > 0.0 else [row]
    for dist in rows:
        first_max = int(np.flatnonzero(dist == dist.max())[0])
        assert DistRecord(dist).argmax == argmax_token(dist) == first_max
        k = data.draw(selection_ks(dist.shape[0]), label="k")
        assert TopK(dist, k).top1 == float(np.max(dist))


def test_memoized_values_bitwise_equal_uncached_formula():
    vocab, target, draft = _memo_models()
    rng = np.random.default_rng(11)
    v = vocab.size
    for _ in range(200):
        ctx = tuple(int(t) for t in rng.integers(v, size=rng.integers(0, 5)))
        want = _uncached_dist(target, ctx)
        assert target.next_dist(ctx).dist.tobytes() == want.tobytes()
        want_draft = perturb(want, draft.noise)
        assert draft.next_dist(ctx).dist.tobytes() == want_draft.tobytes()


def test_reloaded_model_memo_bitwise_equal(tmp_path):
    vocab, target, _ = _memo_models()
    path = tmp_path / "model.bin"
    save_model(target, path)
    loaded = load_model(path)
    rng = np.random.default_rng(5)
    for _ in range(200):
        ctx = tuple(int(t) for t in rng.integers(vocab.size, size=rng.integers(0, 4)))
        rec = loaded.next_dist(ctx)
        assert rec.dist.tobytes() == target.next_dist(ctx).dist.tobytes()
        assert not rec.dist.flags.writeable


# ------------------------------------------------------------ state key

# dense enough over three symbols that most 3-token contexts were seen
STATE_DOCS = ["abcacbbacabba", "cabbcaacbcc", "aacbcbbacaab"]


STATE_VOCAB = build_vocab(STATE_DOCS, mode="char")  # a b c <unk>
_state_tokens = st.lists(st.integers(0, STATE_VOCAB.size - 1), max_size=5).map(tuple)


def _state_model(order, pruned, perturbed):
    """A model over the STATE_DOCS tables, and its uncached oracle."""
    vocab = STATE_VOCAB
    counts = train_ngram(STATE_DOCS, vocab, order=order, smoothing=0.1)._counts
    if pruned and order > 1:
        # a model file may hold a context without its suffixes; trained
        # tables never do, and on them the backoff context would also pass
        dicts = count_dicts(counts, vocab.size)
        for sym in "ab":
            del dicts[1][vocab.encode(sym)]
        counts = count_tables(dicts, vocab.size)

    ngram = model = NGramModel(vocab, order, 0.1, counts)
    if perturbed:
        model = PerturbedDraftModel(ngram, noise=0.02)

    def oracle(ctx):
        # the model's memo and backoff both start from state_key, so only an
        # oracle without either can tell a wrong key from a right one
        dist = _uncached_dist(ngram, ctx)
        return perturb(dist, 0.02) if perturbed else dist

    return model, oracle


@given(st.integers(1, 4), st.booleans(), st.booleans(), _state_tokens,
       st.lists(_state_tokens, min_size=2, max_size=6), _state_tokens)
# on the pruned tables (a,) and () back off alike, but (a, c) and (c,) do
# not: a state key equal to the backoff context fails here
@example(order=3, pruned=True, perturbed=False, tail=(), heads=[(0,), ()],
         continuation=(2,))
def test_state_key_equal_keys_agree_after_any_continuation(
        order, pruned, perturbed, tail, heads, continuation):
    model, oracle = _state_model(order, pruned, perturbed)
    contexts = [head + tail for head in heads]
    if len(tail) >= order - 1:  # a shared window means a shared state
        assert len({model.state_key(c) for c in contexts}) == 1
    for a in contexts:
        for b in contexts:
            if model.state_key(a) != model.state_key(b):
                continue
            for i in range(len(continuation) + 1):
                ca, cb = a + continuation[:i], b + continuation[:i]
                assert model.state_key(ca) == model.state_key(cb)
                assert oracle(ca).tobytes() == oracle(cb).tobytes()
                assert model.next_dist(ca).dist.tobytes() == oracle(ca).tobytes()


@given(st.integers(1, 4), st.booleans(), st.booleans(), _state_tokens,
       _state_tokens)
def test_state_key_is_a_context_in_its_own_state(order, pruned, perturbed,
                                                 context, continuation):
    # the decode loop keeps each model's state key in place of the context
    # and advances it with state_key(key + emitted)
    model, oracle = _state_model(order, pruned, perturbed)
    key = model.state_key(context)
    assert model.state_key(key) == key
    for i in range(len(continuation) + 1):
        tail = continuation[:i]
        assert model.state_key(key + tail) == model.state_key(context + tail)
        assert model.next_dist(key + tail).dist.tobytes() == \
            oracle(context + tail).tobytes()


def test_state_key_is_the_raw_window_not_the_backoff_context():
    vocab, target, draft = _memo_models()
    the, cat, unk = vocab.encode(f"the cat {UNK}")
    assert target.state_key((unk, the, cat)) == (the, cat)
    assert target.state_key((unk, unk)) == (unk, unk)  # backoff key is ()
    assert target.state_key((cat,)) == (cat,)
    assert target.lower_order(1).state_key((the, cat)) == ()
    assert draft.state_key((unk, the, cat)) == (the, cat)
    assert draft.state_key((unk, unk)) == (unk, unk)
    assert PlantedTemplateModel(make_vocab(4), [(0, 1)], rho=0.9) \
        .state_key([2, 0]) == (2, 0)
