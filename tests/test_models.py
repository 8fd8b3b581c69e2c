import functools
import itertools
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (PlantedTemplateModel, count_dicts, count_tables,
                      is_valid_dist, make_vocab, prob_dists)
from heterospec import models
from heterospec.errors import ConfigError
from heterospec.models import (LanguageModel, NGramModel, PerturbedDraftModel,
                               load_model, perturb, release_kept_model,
                               save_model, train_ngram)
from heterospec.vocab import UNK, build_vocab, encode_corpus


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


def test_model_file_round_trip(tmp_path):
    docs = ["the cat sat on the mat", "the dog sat", "a cat ran"]
    vocab = build_vocab(docs, mode="word")
    model = train_ngram(docs, vocab, order=3, smoothing=0.1)
    path = tmp_path / "model.txt"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.vocab.symbols == vocab.symbols
    assert loaded.order == model.order
    assert loaded.smoothing == model.smoothing
    rng = np.random.default_rng(3)
    for _ in range(200):
        ctx = tuple(int(t) for t in rng.integers(vocab.size, size=rng.integers(0, 4)))
        assert np.array_equal(loaded.next_dist(ctx).dist, model.next_dist(ctx).dist)


# "cab" then "ca" over a = 0, b = 1, c = 2: contexts and tokens in
# ascending id order, whatever order they were first seen in
GOLDEN_MODEL = """heterospec-ngram v1
mode: char
order: 2
smoothing: 0.5
symbols: ["a", "b", "c", "<unk>"]
counts:
c 0 - 0 2
c 0 - 1 1
c 0 - 2 2
c 1 0 1 1
c 1 2 0 2
"""
GOLDEN_BIGRAMS = {(0,): {1: 1}, (2,): {0: 2}}


def test_save_model_golden_bytes(tmp_path):
    docs = ["cab", "ca"]
    model = train_ngram(docs, build_vocab(docs, mode="char"), order=2,
                        smoothing=0.5)
    path = tmp_path / "model.txt"
    save_model(model, path)
    assert path.read_text(encoding="utf-8") == GOLDEN_MODEL
    # a zero-count record is a record: read, and written back in key order
    with_zero = tmp_path / "zero.txt"
    with_zero.write_text(GOLDEN_MODEL + "c 1 0 2 0\n", encoding="utf-8")
    save_model(load_model(with_zero), path)
    assert path.read_text(encoding="utf-8") == \
        GOLDEN_MODEL.replace("c 1 2", "c 1 0 2 0\nc 1 2")


def test_lower_order_equals_trained_model(tmp_path):
    vocab = build_vocab(MEMO_DOCS, mode="word")
    model = train_ngram(MEMO_DOCS, vocab, order=4, smoothing=0.05)
    assert model.lower_order(4) is model
    rng = np.random.default_rng(17)
    for order in range(1, 5):
        low = model.lower_order(order)
        trained = train_ngram(MEMO_DOCS, vocab, order=order, smoothing=0.05)
        assert low.order == order
        save_model(low, tmp_path / "low.txt")
        save_model(trained, tmp_path / "trained.txt")
        assert (tmp_path / "low.txt").read_bytes() == \
            (tmp_path / "trained.txt").read_bytes()
        for _ in range(200):
            ctx = tuple(int(t) for t in rng.integers(vocab.size,
                                                     size=rng.integers(0, 5)))
            assert low.next_dist(ctx).dist.tobytes() == \
                trained.next_dist(ctx).dist.tobytes()


def test_load_model_rejects_malformed_files(tmp_path):
    good = tmp_path / "model.txt"
    docs = ["a b a b"]
    vocab = build_vocab(docs, mode="word")
    save_model(train_ngram(docs, vocab, order=2, smoothing=0.1), good)

    bad_version = tmp_path / "v.txt"
    bad_version.write_text("heterospec-ngram v99\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_model(bad_version)

    no_counts = tmp_path / "n.txt"
    no_counts.write_text("heterospec-ngram v1\nmode: word\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_model(no_counts)

    lines = good.read_text(encoding="utf-8").splitlines()
    mangled = tmp_path / "m.txt"
    mangled.write_text("\n".join(lines + ["c bogus"]) + "\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_model(mangled)

    out_of_range = tmp_path / "o.txt"
    out_of_range.write_text("\n".join(lines + ["c 0 - 99 5"]) + "\n",
                            encoding="utf-8")
    with pytest.raises(ConfigError):
        load_model(out_of_range)

    no_unk = tmp_path / "u.txt"
    no_unk.write_text(GOLDEN_MODEL.replace(', "<unk>"', ', "d"'), encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        load_model(no_unk)
    assert str(exc.value) == \
        f"{no_unk}: bad header: vocabulary needs the unknown symbol '<unk>'"


# GOLDEN_MODEL ends with line 11, "c 1 2 0 2"; the added line is line 12,
# so records starting "c 1 2" reach the per-run parse, and others parse
# their own head
MALFORMED, OUT_OF_RANGE = "malformed count record", "count record out of range"
REPEATED = "repeated count record"


@pytest.mark.parametrize("record,error", [
    ("c 1 0 2 1 9", MALFORMED), ("c 1 0 x 1", MALFORMED), ("c 1 0 2", MALFORMED),
    ("c 1 0 7 1", OUT_OF_RANGE), ("c 1 0 2 -1", OUT_OF_RANGE),
    ("c 1 3 9 1", OUT_OF_RANGE), ("c 1 4 0 1", OUT_OF_RANGE),
    ("c 1 -1 0 1", OUT_OF_RANGE), ("c 2 0,1 0 1", OUT_OF_RANGE),
    ("c 1 0,1 0 1", OUT_OF_RANGE), ("c 1 - 0 1", OUT_OF_RANGE),
    ("c 1 0,x 0 1", MALFORMED), ("x 1 0 0 1", MALFORMED),
    ("c bogus", MALFORMED), ("", MALFORMED),
    ("c 1 2 7 1", OUT_OF_RANGE), ("c 1 2 0 x", MALFORMED),
    ("c 1 2 0 9223372036854775808", OUT_OF_RANGE),
    # one record per (context length, context, token), in the same run of a
    # context's records or in another
    ("c 1 2 0 9", REPEATED), ("c 1 0 1 9", REPEATED), ("c 0 - 2 1", REPEATED),
])
def test_load_model_reports_bad_record_at_its_line(tmp_path, record, error):
    path = tmp_path / "model.txt"
    path.write_text(GOLDEN_MODEL + record + "\nc 1 0 2 1\n", encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        load_model(path)
    assert str(exc.value) == f"{path}:12: {error}"


def test_load_model_reports_a_repeat_before_a_later_bad_line(tmp_path):
    # repeats are found once the records are sorted: a bad line after one
    # still fails at the repeat, the first bad line in file order
    path = tmp_path / "model.txt"
    for bad in ("c bogus", "c 1 0 7 1", "c 1 0 2 1"):
        path.write_text(GOLDEN_MODEL + "c 1 1 0 1\nc 0 - 1 5\n" + bad + "\n"
                        + "c 1 0 1 5\n", encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            _fresh_parse(path)
        assert str(exc.value) == f"{path}:13: repeated count record"


# GOLDEN_MODEL's header is lines 2-5; the inserted line becomes line 4
@pytest.mark.parametrize("line,error", [
    ("bogus line", "unrecognized header line 'bogus line'"),
    ("seed: 3", "unknown header key 'seed'"),
    ("order: 1", "repeated header key 'order'"),
])
def test_load_model_refuses_a_bad_header_line_at_its_line(tmp_path, line, error):
    lines = GOLDEN_MODEL.splitlines()
    lines.insert(3, line)
    path = tmp_path / "model.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        load_model(path)
    assert str(exc.value) == f"{path}:4: {error}"


def _fresh_parse(path):
    """The model in ``path`` parsed anew, not built over a kept parse."""
    release_kept_model()
    return load_model(path)


def _all_contexts(vocab, order):
    return [ctx for n in range(order)
            for ctx in itertools.product(range(vocab.size), repeat=n)]


def test_load_model_keeps_one_parse_by_content(tmp_path, model_parses):
    vocab, target, _ = _memo_models()
    path, copy = tmp_path / "model.txt", tmp_path / "copy.txt"
    save_model(target, path)
    copy.write_bytes(path.read_bytes())
    release_kept_model()
    first, second, third = load_model(path), load_model(path), load_model(copy)
    assert model_parses == [path]  # the copy's bytes are the kept ones
    assert first is not second and first._memo is not second._memo
    assert first._counts is second._counts is third._counts
    fresh = _fresh_parse(path)
    for ctx in _all_contexts(vocab, target.order):
        want = fresh.next_dist(ctx).dist.tobytes()
        assert first.next_dist(ctx).dist.tobytes() == want
        assert second.next_dist(ctx).dist.tobytes() == want
    # a hit starts with an empty memo, whatever the earlier instances hold
    assert first._memo and not load_model(path)._memo


def test_saved_tables_are_handed_to_load_model(tmp_path, model_parses):
    rng = np.random.default_rng(11)
    docs = ["".join(rng.choice(list("abcdef"), size=200)) for _ in range(20)]
    vocab = build_vocab(docs, mode="char")
    trained = train_ngram(docs, vocab, order=4, smoothing=0.1)
    path = tmp_path / "model.txt"
    save_model(trained, path)
    handed = load_model(path)
    assert model_parses == [] and handed._counts is trained._counts
    assert not handed._memo
    fresh = _fresh_parse(path)
    assert model_parses == [path]
    assert _listed(fresh._counts) == _listed(trained._counts)
    contexts = [ctx for table in count_dicts(trained._counts, vocab.size)
                for ctx in table]
    contexts += [tuple(int(t) for t in rng.integers(vocab.size, size=n))
                 for n in rng.integers(0, 6, size=300)]
    for ctx in contexts:
        assert handed.next_dist(ctx).dist.tobytes() == \
            fresh.next_dist(ctx).dist.tobytes()


def test_save_model_keeps_the_zero_counts_it_writes(tmp_path, model_parses):
    # a zero count is a record: written, kept and parsed back alike, and
    # its context stops the backoff
    vocab = build_vocab(["cab", "ca"], mode="char")
    counts = count_tables([{(): {0: 2, 1: 1, 2: 2}},
                           {(2,): {0: 2}, (0,): {1: 1}, (1,): {2: 0}}], vocab.size)
    path = tmp_path / "model.txt"
    save_model(NGramModel(vocab, 2, 0.5, counts), path)
    assert path.read_text(encoding="utf-8") == \
        GOLDEN_MODEL.replace("c 1 2", "c 1 1 2 0\nc 1 2")
    kept = load_model(path)
    assert model_parses == [] and kept._counts is counts
    fresh = _fresh_parse(path)
    assert _listed(fresh._counts) == _listed(counts)
    b, = vocab.encode("b")
    for model in (kept, fresh):
        assert model.next_dist((b,)).dist.tolist() == [0.25] * 4


# (order, tables as (keys, counts) lists, message): over 4 symbols, none
# would come back from a parse of its file
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
def test_ngram_model_refuses_tables_a_parse_would_not_give_back(name):
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


def test_load_model_rereads_a_rewritten_file(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text(GOLDEN_MODEL, encoding="utf-8")
    old = load_model(path)
    stat = os.stat(path)
    # other bytes of the same length, under the same path and mtime
    path.write_text(GOLDEN_MODEL.replace("c 0 - 0 2", "c 0 - 0 7"),
                    encoding="utf-8")
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert os.stat(path).st_size == stat.st_size
    new = load_model(path)
    assert count_dicts(new._counts, 4)[0][()] == {0: 7, 1: 1, 2: 2}
    want = _fresh_parse(path).next_dist(()).dist.tobytes()
    assert new.next_dist(()).dist.tobytes() == want
    assert new.next_dist(()).dist.tobytes() != old.next_dist(()).dist.tobytes()


def test_load_model_keeps_no_failed_parse(tmp_path):
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    good.write_text(GOLDEN_MODEL, encoding="utf-8")
    bad.write_text(GOLDEN_MODEL + "c 1 0 x 1\n", encoding="utf-8")
    load_model(good)
    for _ in range(2):  # the second load parses again and fails again
        with pytest.raises(ConfigError) as exc:
            load_model(bad)
        assert str(exc.value) == f"{bad}:12: malformed count record"
        assert models._kept is None
    assert count_dicts(load_model(good)._counts, 4)[1] == GOLDEN_BIGRAMS


def test_load_model_reads_records_split_on_any_whitespace(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text(GOLDEN_MODEL + "c  1 0\t2  3 \nc 1 0 3 4\n  c 1 1 0 5\n",
                    encoding="utf-8")
    bigrams = count_dicts(load_model(path)._counts, 4)[1]
    assert bigrams == {(0,): {1: 1, 2: 3, 3: 4}, (1,): {0: 5}, (2,): {0: 2}}


def test_load_model_reads_ids_in_any_form_int_reads(tmp_path):
    # save_model writes "3"; "03", "+3" and "0_3" are the same id to int()
    path = tmp_path / "model.txt"
    path.write_text(GOLDEN_MODEL + "c 1 +01 03 6\nc 1 1 0_2 1\nc 1 0 +0 7\n",
                    encoding="utf-8")
    bigrams = count_dicts(_fresh_parse(path)._counts, 4)[1]
    assert bigrams == {(0,): {0: 7, 1: 1}, (1,): {3: 6, 2: 1}, (2,): {0: 2}}
    path.write_text(GOLDEN_MODEL + "c 1 0 +1 7\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"model\.txt:12: repeated count record"):
        _fresh_parse(path)


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
    path = tmp_path / "model.txt"
    path.write_text(GOLDEN_MODEL.replace("order: 2", "order: 32"), encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        load_model(path)
    assert str(exc.value) == (f"{path}: bad header: model.order 32 is too high "
                              f"for a vocabulary of 4 symbols: count keys need "
                              f"4^32 < 2^63")


def test_ngram_model_rejects_bad_hyperparameters():
    vocab = build_vocab(["ab"], mode="char")
    with pytest.raises(ConfigError):
        NGramModel(vocab, 0, 0.1, [])
    with pytest.raises(ConfigError):
        NGramModel(vocab, 1, -1.0, [{}])


# ------------------------------------------------- training and parsing


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
def test_train_ngram_equals_token_loop(tmp_path_factory, mode, order, docs):
    # the vocabulary may miss "c" (and " " in char mode), so <unk> is counted
    vocab = build_vocab(["a b", docs[0], "a"], mode=mode)
    model = train_ngram(docs, vocab, order=order, smoothing=0.1)
    want = _token_loop_counts(docs, vocab, order)
    assert _records(count_dicts(model._counts, vocab.size)) == _records(want)
    out = tmp_path_factory.mktemp("train")
    save_model(model, out / "model.txt")
    oracle = NGramModel(vocab, order, 0.1, count_tables(want, vocab.size))
    save_model(oracle, out / "oracle.txt")
    assert (out / "model.txt").read_bytes() == (out / "oracle.txt").read_bytes()


@functools.cache
def _large_model_text():
    """A model file of several parse chunks: order 4 over a random text of
    twelve letters."""
    rng = np.random.default_rng(7)
    docs = ["".join(rng.choice(list("abcdefghijkl"), size=400)) for _ in range(60)]
    model = train_ngram(docs, build_vocab(docs, mode="char"), order=4,
                        smoothing=0.1)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.txt")
        save_model(model, path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    assert len(text) > 3 * models._CHUNK_CHARS
    return text


def _whole_text_parse(path):
    """The outcome of parsing the lines of ``path`` all at once."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    try:
        return _listed(models._parse_model(lines, path)[3])
    except ConfigError as exc:
        return str(exc)


def _chunked_parse(path):
    """The outcome of ``load_model``, parsing anew."""
    try:
        return _listed(_fresh_parse(path)._counts)
    except ConfigError as exc:
        return str(exc)


def test_chunked_parse_equals_whole_text_parse(tmp_path, model_parses):
    text = _large_model_text()
    chunks = list(models._chunks(text))
    assert len(chunks) > 3 and "".join(chunks) == text
    assert all(chunk.endswith("\n") for chunk in chunks)
    path = tmp_path / "model.txt"
    path.write_text(text, encoding="utf-8")
    release_kept_model()
    model = load_model(path)
    assert model_parses == [path]
    assert _listed(model._counts) == _whole_text_parse(path)


def test_chunked_parse_reports_a_late_bad_record_at_its_line(tmp_path):
    text = _large_model_text()
    lines = text.splitlines()
    # the first line of the second chunk, and a line deep in the third
    first_cut = len(next(models._chunks(text)).splitlines())
    for index in (first_cut, first_cut + 1, 2 * first_cut + 100, len(lines) - 1):
        path = tmp_path / f"bad{index}.txt"
        bad = lines[:index] + ["c bogus"] + lines[index + 1:]
        path.write_text("\n".join(bad) + "\n", encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            _fresh_parse(path)
        assert str(exc.value) == f"{path}:{index + 1}: malformed count record"


@pytest.mark.parametrize("sep", ["\r\n", "\r", "\x0c", "\u2028"],
                         ids=["crlf", "cr", "formfeed", "line-separator"])
def test_chunked_parse_splits_lines_as_before(tmp_path, sep):
    text = _large_model_text()
    path = tmp_path / "model.txt"
    path.write_text(text, encoding="utf-8")
    tables = _chunked_parse(path)
    # every line ended by sep, so the file may hold no "\n" at all: each is a
    # line end to splitlines, so the file loads as the "\n" file does
    path.write_text(text.replace("\n", sep), encoding="utf-8", newline="")
    assert _chunked_parse(path) == _whole_text_parse(path) == tables
    # sep inside a record, on either side of a chunk's cut and at its "\n"
    cut = len(next(models._chunks(text)))
    for at in (cut - 3, cut - 2, cut - 1, cut, cut + 1, 2 * cut + 5):
        path.write_text(text[:at] + sep + text[at:], encoding="utf-8", newline="")
        assert _chunked_parse(path) == _whole_text_parse(path)
    # sep splits the first chunk's last record, which then fails at its line
    line = len(text[:cut].splitlines())
    path.write_text(text[:cut - 3] + sep + text[cut - 3:], encoding="utf-8",
                    newline="")
    assert _chunked_parse(path) == f"{path}:{line}: malformed count record"


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
    one, so its state is the last token. Counts its computes."""

    def __init__(self, vocab):
        super().__init__()
        self.vocab = vocab
        self.computed = []

    def state_key(self, context):
        return tuple(context[-1:])

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


def test_derive_runs_once_per_fn_and_args_across_next_dist_calls():
    calls = []

    def counted(dist, *args):
        calls.append(args)
        return float(dist.max())

    for model, ctx, same in _same_state_pairs():
        calls.clear()
        for c in (ctx, same, ctx):
            rec = model.next_dist(c)
            values = [rec.derive(counted), rec.derive(counted, 2),
                      rec.derive(counted, 3), rec.derive(counted, 2)]
            assert values == [float(rec.dist.max())] * 4
        assert calls == [(), (2,), (3,)]


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
    path = tmp_path / "model.txt"
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
