"""Planted-corpus generator: spec validation, realized coverage, block
isolation, templates, and the train/calibration/eval split."""
from __future__ import annotations

import numpy as np
import pytest

from heterospec.corpus import (
    PlantedCorpusSpec,
    corpus_symbols,
    gen_corpus,
    prompts_from,
    split_docs,
)
from heterospec.errors import ConfigError


# ---------------------------------------------------------------- spec


@pytest.mark.parametrize("kwargs", [
    dict(num_docs=0),
    dict(doc_len=0),
    dict(template_len=1),
    dict(template_len=28),            # exceeds vocab_size=27
    dict(coverage=-0.1),
    dict(coverage=1.1),
    dict(rho=0.5),                    # boundary excluded
    dict(rho=1.01),
])
def test_spec_rejects_bad_fields(kwargs):
    with pytest.raises(ConfigError):
        PlantedCorpusSpec(**kwargs)


def test_spec_defaults_are_valid():
    spec = PlantedCorpusSpec()
    assert spec.num_docs == 96
    assert spec.template_len == 21


def test_corpus_symbols_zero_padded():
    syms = corpus_symbols(27)
    assert len(syms) == 27
    assert syms[0] == "w00"
    assert syms[26] == "w26"
    assert len(set(syms)) == 27
    assert corpus_symbols(5) == ["w0", "w1", "w2", "w3", "w4"]
    assert corpus_symbols(101)[0] == "w000"


# ------------------------------------------------------------ gen_corpus


def test_docs_have_requested_length_and_alphabet():
    spec = PlantedCorpusSpec(num_docs=12, doc_len=83, template_len=10,
                             coverage=0.55, rho=0.9, vocab_size=14)
    docs, template = gen_corpus(spec, np.random.default_rng(3))
    alphabet = set(corpus_symbols(14))
    assert len(docs) == 12
    assert all(len(d) == 83 for d in docs)
    assert all(set(d) <= alphabet for d in docs)
    assert len(template) == len(set(template)) == 10


def test_zero_coverage_is_pure_filler():
    spec = PlantedCorpusSpec(num_docs=6, doc_len=60, template_len=12,
                             coverage=0.0, rho=0.97, vocab_size=20)
    docs, tpl = gen_corpus(spec, np.random.default_rng(0))
    assert all(len(d) == 60 for d in docs)
    # the template exists but is never planted
    assert len(tpl) == 12
    for doc in docs:
        for i in range(len(doc) - len(tpl) + 1):
            assert doc[i:i + len(tpl)] != tpl


def test_full_coverage_exact_copies():
    # coverage 1, rho 1, doc_len a block multiple: docs are template repeats
    spec = PlantedCorpusSpec(num_docs=5, doc_len=36, template_len=12,
                             coverage=1.0, rho=1.0, vocab_size=16)
    docs, tpl = gen_corpus(spec, np.random.default_rng(1))
    for doc in docs:
        assert doc == tpl * 3


def test_full_coverage_with_remainder_block():
    spec = PlantedCorpusSpec(num_docs=4, doc_len=50, template_len=20,
                             coverage=1.0, rho=1.0, vocab_size=24)
    docs, tpl = gen_corpus(spec, np.random.default_rng(5))
    for doc in docs:
        # two full copies plus a 10-token prefix, order shuffled per doc
        assert sorted(doc) == sorted(tpl * 2 + tpl[:10])


def _greedy_template_coverage(doc: list[str], tpl: list[str]) -> float:
    """Fraction of tokens inside non-overlapping template occurrences."""
    covered = 0
    i = 0
    while i <= len(doc) - len(tpl):
        if doc[i:i + len(tpl)] == tpl:
            covered += len(tpl)
            i += len(tpl)
        else:
            i += 1
    return covered / len(doc)


def test_realized_coverage_matches_request():
    spec = PlantedCorpusSpec(num_docs=50, doc_len=200, template_len=20,
                             coverage=0.6, rho=1.0, vocab_size=24)
    docs, tpl = gen_corpus(spec, np.random.default_rng(11))
    rates = [_greedy_template_coverage(d, tpl) for d in docs]
    assert abs(float(np.mean(rates)) - 0.60) <= 0.02


def test_blocks_are_isolated_by_filler():
    # 2 blocks, 60 fillers: plenty of slots, so copies never touch
    spec = PlantedCorpusSpec(num_docs=30, doc_len=100, template_len=20,
                             coverage=0.4, rho=1.0, vocab_size=24)
    docs, tpl = gen_corpus(spec, np.random.default_rng(17))
    for doc in docs:
        starts = []
        i = 0
        while i <= len(doc) - len(tpl):
            if doc[i:i + len(tpl)] == tpl:
                starts.append(i)
                i += len(tpl)
            else:
                i += 1
        assert len(starts) == 2
        assert starts[1] > starts[0] + len(tpl)  # at least one filler between


def test_gen_corpus_deterministic():
    spec = PlantedCorpusSpec(num_docs=8, doc_len=70, template_len=9,
                             coverage=0.5, rho=0.9, vocab_size=15)
    a = gen_corpus(spec, np.random.default_rng(42))
    b = gen_corpus(spec, np.random.default_rng(42))
    assert a == b


# ------------------------------------------------------ splits and prompts


def test_split_docs_tail_slices():
    docs = list(range(10))
    train, cal, evals = split_docs(docs, 3, 2)
    assert train == [0, 1, 2, 3, 4]
    assert cal == [5, 6, 7]
    assert evals == [8, 9]


def test_split_docs_requires_training_remainder():
    with pytest.raises(ConfigError, match="training"):
        split_docs(list(range(10)), 6, 4)


def test_prompts_from_prefixes():
    prompts = prompts_from([[1, 2, 3, 4], [5, 6, 7, 8, 9]], 3)
    assert prompts == [(1, 2, 3), (5, 6, 7)]
    assert all(isinstance(p, tuple) for p in prompts)


def test_prompts_from_skips_short_documents():
    # in document order; a document of exactly prompt_tokens is kept
    docs = [[1, 2], [3, 4, 5, 6], [7], [8, 9, 10]]
    assert prompts_from(docs, 3) == [(3, 4, 5), (8, 9, 10)]
    assert prompts_from(docs, 5) == []
