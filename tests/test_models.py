import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import PlantedTemplateModel, make_vocab, prob_dists
from heterospec.errors import ConfigError
from heterospec.models import (NGramModel, PerturbedDraftModel, is_valid_dist,
                               load_model, perturb, save_model, train_ngram)
from heterospec.vocab import build_vocab


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
    dist = model.next_dist((vocab.id_of("a"),))
    assert dist[vocab.id_of("a")] > 0.99
    assert math.isclose(dist[vocab.id_of("a")], 3.01 / 3.02, rel_tol=0, abs_tol=1e-15)


def test_unseen_context_backs_off_to_unigram():
    vocab = build_vocab(["abab"], mode="char")
    model = train_ngram(["abab"], vocab, order=3, smoothing=0.5)
    # context (unk, unk) was never observed at length 2 or 1
    fallback = model.next_dist((vocab.unk_id, vocab.unk_id))
    counts = np.array([2.0, 2.0, 0.0])  # a, b, <unk> occurrences in the corpus
    expected = (counts + 0.5) / (counts.sum() + 0.5 * 3)
    np.testing.assert_allclose(fallback, expected, atol=1e-15)


def test_uniform_bigram_usage_gives_uniform_dist():
    vocab = build_vocab(["abc" * 30], mode="char")
    model = train_ngram(["abc" * 30], vocab, order=1, smoothing=0.1)
    dist = model.next_dist(())
    assert np.ptp(dist[:3]) < 1e-12


def test_ngram_determinism_bitwise():
    docs = ["the cat sat", "the dog sat", "a cat ran"]
    vocab = build_vocab(docs, mode="word")
    a = train_ngram(docs, vocab, order=2, smoothing=0.1)
    b = train_ngram(docs, vocab, order=2, smoothing=0.1)
    ctx = vocab.encode("the cat")
    assert np.array_equal(a.next_dist(ctx), b.next_dist(ctx))


def test_ngram_distributions_valid_over_fuzzed_contexts():
    docs = ["the cat sat on the mat", "the dog sat", "a cat ran far"]
    vocab = build_vocab(docs, mode="word")
    model = train_ngram(docs, vocab, order=3, smoothing=0.05)
    rng = np.random.default_rng(7)
    for _ in range(300):
        ctx = tuple(int(t) for t in rng.integers(vocab.size, size=rng.integers(0, 5)))
        assert is_valid_dist(model.next_dist(ctx), vocab.size)


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
    dist = model.next_dist((7, 0, 1))
    assert dist[2] == 0.9
    others = np.delete(dist, 2)
    np.testing.assert_allclose(others, 0.01, atol=1e-15)
    assert float(dist.max()) == 0.9


def test_planted_template_off_template_uniform():
    vocab = make_vocab(8)
    model = PlantedTemplateModel(vocab, [(0, 1, 2)], rho=0.95)
    dist = model.next_dist((5, 6))
    np.testing.assert_allclose(dist, 1.0 / 8, atol=1e-15)


def test_planted_template_entry_prob_boosts_starts():
    vocab = make_vocab(10)
    model = PlantedTemplateModel(vocab, [(3, 4, 5), (6, 7, 8)], rho=0.9,
                                 entry_prob=0.4)
    dist = model.next_dist(())
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
    out = perturb(dist, temperature=1.0, noise=0.0)
    assert np.array_equal(out, dist)
    assert out is not dist


def test_perturb_mixture_arithmetic():
    out = perturb(np.array([0.8, 0.2]), temperature=1.0, noise=0.5)
    np.testing.assert_allclose(out, [0.65, 0.35], atol=1e-15)


def test_perturb_high_temperature_flattens():
    # full-support near-one-hot: at huge temperature the log ratios vanish
    dist = np.array([1.0 - 3e-9, 1e-9, 1e-9, 1e-9])
    out = perturb(dist, temperature=1e6, noise=0.0)
    np.testing.assert_allclose(out, 0.25, atol=1e-4)


def test_perturb_validation():
    with pytest.raises(ConfigError):
        perturb(np.array([1.0, 0.0]), temperature=0.0, noise=0.0)
    with pytest.raises(ConfigError):
        perturb(np.array([1.0, 0.0]), temperature=1.0, noise=1.5)


@given(prob_dists(max_size=12), st.floats(0.3, 3.0), st.floats(0.0, 1.0))
def test_perturb_outputs_valid_dists(dist, temperature, noise):
    assert is_valid_dist(perturb(dist, temperature, noise), dist.shape[0])


@given(prob_dists(max_size=12, allow_zeros=False))
def test_perturb_full_support_when_noisy(dist):
    assert np.all(perturb(dist, 1.0, 0.1) > 0.0)


def test_perturbed_draft_identity_equals_base():
    docs = ["a b c a b", "c a b c"]
    vocab = build_vocab(docs, mode="word")
    base = train_ngram(docs, vocab, order=2, smoothing=0.1)
    draft = PerturbedDraftModel(base, temperature=1.0, noise=0.0)
    for ctx in [(), (0,), (1, 2), (2, 0, 1)]:
        assert np.array_equal(draft.next_dist(ctx), base.next_dist(ctx))


def test_perturbed_draft_full_noise_is_uniform():
    base = PlantedTemplateModel(make_vocab(10), [(0, 1, 2)], rho=0.99)
    draft = PerturbedDraftModel(base, temperature=1.0, noise=1.0)
    np.testing.assert_allclose(draft.next_dist((0, 1)), 0.1, atol=1e-15)


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
        assert np.array_equal(loaded.next_dist(ctx), model.next_dist(ctx))


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


def test_ngram_model_rejects_bad_hyperparameters():
    vocab = build_vocab(["ab"], mode="char")
    with pytest.raises(ConfigError):
        NGramModel(vocab, 0, 0.1, [])
    with pytest.raises(ConfigError):
        NGramModel(vocab, 1, -1.0, [{}])
