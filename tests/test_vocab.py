import pytest
from hypothesis import given
from hypothesis import strategies as st

from heterospec.errors import ConfigError
from heterospec.vocab import (UNK, Vocabulary, build_vocab, encode_corpus,
                              read_corpus, split_symbols, write_corpus)


def test_build_vocab_char_mode():
    vocab = build_vocab(["abab"], mode="char")
    assert vocab.symbols == ("a", "b", UNK)
    assert vocab.size == 3


def test_build_vocab_word_mode():
    vocab = build_vocab(["to be or not to be"], mode="word")
    assert set(vocab.symbols) == {"to", "be", "or", "not", UNK}
    assert vocab.size == 5


def test_build_vocab_empty_corpus_rejected():
    with pytest.raises(ConfigError):
        build_vocab([], mode="char")
    with pytest.raises(ConfigError):
        build_vocab(["", "   "], mode="word")


def test_build_vocab_sorted_with_unk_last():
    vocab = build_vocab(["cab"], mode="char")
    assert vocab.symbols == ("a", "b", "c", UNK)
    assert vocab.encode("cabz") == (2, 0, 1, vocab.size - 1)


def test_unknown_symbols_map_to_unk():
    vocab = build_vocab(["ab"], mode="char")
    assert vocab.encode("abz") == (0, 1, vocab.size - 1)
    words = build_vocab(["a b"], mode="word")
    assert words.encode(f"b {UNK} z a") == (1, 2, 2, 0)


def test_encode_decode_round_trip_word_mode():
    vocab = build_vocab(["x y z", "y w"], mode="word")
    assert vocab.symbols == ("w", "x", "y", "z", UNK)
    assert vocab.encode("w x y z") == (0, 1, 2, 3)


def test_encode_decode_round_trip_char_mode():
    vocab = build_vocab(["hello"], mode="char")
    assert vocab.symbols == ("e", "h", "l", "o", UNK)
    assert vocab.encode("hole") == (1, 3, 2, 0)


def test_vocabulary_validation():
    with pytest.raises(ConfigError):
        Vocabulary(("a", "b"), "subword")
    with pytest.raises(ConfigError):
        Vocabulary(("a",), "char")
    with pytest.raises(ConfigError):
        Vocabulary(("a", "a"), "char")
    with pytest.raises(ConfigError, match="unknown symbol"):
        Vocabulary(("a", "b"), "char")


def test_split_symbols():
    assert split_symbols("ab c", "char") == ["a", "b", " ", "c"]
    assert split_symbols("ab  c", "word") == ["ab", "c"]


def test_encode_corpus_batches_documents():
    vocab = build_vocab(["aa", "ab"], mode="char")
    assert encode_corpus(["aa", "ab"], vocab) == [(0, 0), (0, 1)]


def test_corpus_file_round_trip(tmp_path):
    docs = ["a b c", "d e", "f"]
    path = tmp_path / "corpus.txt"
    write_corpus(path, docs)
    assert read_corpus(path) == docs


def test_read_corpus_skips_blank_lines(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("a b\n\nc d\n", encoding="utf-8")
    assert read_corpus(path) == ["a b", "c d"]


@given(st.lists(st.text(alphabet="abcdef ", min_size=1), min_size=1)
       .filter(lambda docs: any(doc.split() for doc in docs)))
def test_word_vocab_covers_corpus(docs):
    vocab = build_vocab(docs, mode="word")
    for doc in docs:
        for tok in vocab.encode(doc):
            assert 0 <= tok < vocab.size
            assert tok != vocab.size - 1  # every training symbol is in-vocab
