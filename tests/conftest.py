"""Shared fixtures: stub language models, vocab builders, and a scaled-down
experiment config that runs the full pipeline in well under a second."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from heterospec.corpus import corpus_symbols
from heterospec.entropy import topk_step_entropy
from heterospec.errors import ConfigError
from heterospec.metrics import IterationRecord
from heterospec.models import DistRecord, LanguageModel, ProbDist
from heterospec.tree import TopK
from heterospec.vocab import UNK, Context, Vocabulary

# deterministic hypothesis runs keep the suite byte-reproducible
settings.register_profile(
    "lab", derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
settings.load_profile("lab")


DIST_ATOL = 1e-9


def is_valid_dist(dist: ProbDist, size: int | None = None) -> bool:
    if dist.ndim != 1 or (size is not None and dist.shape[0] != size):
        return False
    if np.any(dist < 0.0):
        return False
    return abs(float(dist.sum()) - 1.0) <= DIST_ATOL


def tcr_bands(records: list[IterationRecord], budget: int,
              num_bands: int = 4) -> list[tuple[int, float | None]]:
    """Bucket iterations into rank bands over [1, budget] and report
    (count, mean accepted length) per band. Ranks past the budget, such
    as the nothing-accepted sentinel, fall in the last band."""
    edges = [math.ceil(k * budget / num_bands) for k in range(1, num_bands + 1)]
    sums = [0.0] * num_bands
    counts = [0] * num_bands
    for r in records:
        band = num_bands - 1
        for k, edge in enumerate(edges):
            if r.tcr <= edge:
                band = k
                break
        sums[band] += r.accepted_len
        counts[band] += 1
    return [(c, s / c if c else None) for c, s in zip(counts, sums)]


def count_dicts(counts, v: int) -> list[dict]:
    """(keys, counts) tables over ``v`` symbols as {context: {token: count}}
    per context length, decoding each key's radix-``v`` digits."""
    dicts = []
    for length, (keys, cnt) in enumerate(counts):
        table = {}
        for key, count in zip(keys.tolist(), cnt.tolist()):
            digits = []
            for _ in range(length + 1):
                key, digit = divmod(key, v)
                digits.append(digit)
            *ctx, tok = reversed(digits)
            table.setdefault(tuple(ctx), {})[tok] = count
        dicts.append(table)
    return dicts


def _radix(tokens: tuple[int, ...], v: int) -> int:
    key = 0
    for tok in tokens:
        key = key * v + tok
    return key


def count_tables(dicts: list[dict], v: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """{context: {token: count}} per context length as the (keys, counts)
    tables ``NGramModel`` holds."""
    tables = []
    for table in dicts:
        records = sorted((_radix(ctx + (tok,), v), count)
                         for ctx, seen in table.items() for tok, count in seen.items())
        tables.append((np.array([k for k, _ in records], dtype=np.int64),
                       np.array([c for _, c in records], dtype=np.int64)))
    return tables


def make_vocab(size: int, mode: str = "word") -> Vocabulary:
    """Closed vocabulary of the given size with the unknown symbol last."""
    assert size >= 2
    return Vocabulary(tuple(corpus_symbols(size - 1)) + (UNK,), mode)


class FixedDistModel(LanguageModel):
    """One distribution, every context; memoized, like every stub with a
    ``_compute``, by the whole context, the default state key."""

    def __init__(self, dist, vocab: Vocabulary | None = None):
        super().__init__()
        self.dist = np.asarray(dist, dtype=np.float64)
        self.vocab = vocab if vocab is not None else make_vocab(self.dist.shape[0])

    def _compute(self, context):
        return self.dist.copy()


class ScriptedModel(LanguageModel):
    """Distribution looked up by exact context; uniform fallback.
    Memoized by the whole context."""

    def __init__(self, table: dict, vocab: Vocabulary):
        super().__init__()
        self.table = {tuple(k): np.asarray(v, dtype=np.float64)
                      for k, v in table.items()}
        self.vocab = vocab

    def _compute(self, context):
        ctx = tuple(context)
        if ctx in self.table:
            return self.table[ctx].copy()
        return np.full(self.vocab.size, 1.0 / self.vocab.size)


class DrawnDistModel(LanguageModel):
    """Fresh Dirichlet draw per call, in a fresh record. Not a function of
    context, so it bypasses the memo and is only suitable for fuzzing tree
    construction within a single expansion."""

    def __init__(self, vocab: Vocabulary, rng: np.random.Generator,
                 concentration: float = 0.8):
        self.vocab = vocab
        self.rng = rng
        self.concentration = concentration

    def next_dist(self, context):
        return DistRecord(self.rng.dirichlet(np.full(self.vocab.size,
                                                     self.concentration)))


class PlantedTemplateModel(LanguageModel):
    """Model whose contexts inside a planted template are highly predictable.

    When the context suffix matches a proper prefix of a template, the next
    template token receives probability ``rho`` and the remaining mass is
    spread uniformly over the other V-1 tokens. Off template the distribution
    is uniform, unless ``entry_prob`` reallocates that much mass onto the
    distinct template start tokens.
    """

    def __init__(self, vocab: Vocabulary, templates: list[tuple[int, ...]],
                 rho: float, entry_prob: float | None = None):
        if not (0.5 < rho <= 1.0):
            raise ConfigError(f"in-template continuation mass must be in (0.5, 1], got {rho}")
        if entry_prob is not None and not (0.0 <= entry_prob <= 1.0):
            raise ConfigError(f"entry probability must be in [0, 1], got {entry_prob}")
        for t in templates:
            if len(t) < 2:
                raise ConfigError("templates need at least 2 tokens")
            if any(not (0 <= tok < vocab.size) for tok in t):
                raise ConfigError("template token outside vocabulary")
        super().__init__()
        self.vocab = vocab
        self.templates = [tuple(t) for t in templates]
        self.rho = rho
        self.entry_prob = entry_prob
        self._off_template = self._build_off_template()

    def _build_off_template(self) -> ProbDist:
        v = self.vocab.size
        if self.entry_prob is None:
            return np.full(v, 1.0 / v)
        dist = np.full(v, (1.0 - self.entry_prob) / v)
        starts = sorted({t[0] for t in self.templates})
        for s in starts:
            dist[s] += self.entry_prob / len(starts)
        return dist

    def template_position(self, context: Context) -> tuple[int, int] | None:
        """Longest match of a context suffix against a proper template prefix.

        Returns (template index, next position) or None when off template.
        Ties on match length go to the lower template index.
        """
        best: tuple[int, int] | None = None
        best_len = 0
        ctx = tuple(context)
        for ti, tpl in enumerate(self.templates):
            for pos in range(len(tpl) - 1, 0, -1):
                if pos <= len(ctx) and ctx[len(ctx) - pos:] == tpl[:pos]:
                    if pos > best_len:
                        best, best_len = (ti, pos), pos
                    break
        return best

    def _compute(self, context: Context) -> ProbDist:
        hit = self.template_position(context)
        if hit is None:
            return self._off_template.copy()
        ti, pos = hit
        v = self.vocab.size
        dist = np.full(v, (1.0 - self.rho) / (v - 1))
        dist[self.templates[ti][pos]] = self.rho
        return dist


def chain_template_model(length: int = 90, rho: float = 0.97):
    """Planted model whose greedy continuation is the chain 0, 1, 2, ...

    Useful as a perfect-draft target: in-template argmax is always the next
    chain token with probability rho.
    """
    vocab = make_vocab(length + 1)
    template = tuple(range(length))
    return PlantedTemplateModel(vocab, [template], rho=rho), template


@st.composite
def prob_dists(draw, min_size: int = 2, max_size: int = 16,
               allow_zeros: bool = True):
    n = draw(st.integers(min_size, max_size))
    low = 0.0 if allow_zeros else 1e-6
    weights = draw(st.lists(st.floats(low, 1.0, allow_nan=False),
                            min_size=n, max_size=n).filter(lambda w: sum(w) > 1e-6))
    arr = np.asarray(weights, dtype=np.float64)
    arr /= arr.sum()
    return arr


@st.composite
def tied_dists(draw, sizes=(2, 28, 2000)):
    """A distribution over one of ``sizes`` tokens whose entries take only a
    few distinct values, zero among them, so ties and zeros are common."""
    v = draw(st.sampled_from(sizes))
    palette = draw(st.lists(st.sampled_from([0.0, 1e-3, 0.25, 0.5, 1.0]),
                            min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arr = np.asarray(palette, dtype=np.float64)[rng.integers(len(palette), size=v)]
    total = arr.sum()
    return arr / total if total > 0.0 else arr


@st.composite
def smoothed_dists(draw, v: int = 2000):
    """A row shaped like an add-k smoothed n-gram's over ``v`` tokens: a
    few seen tokens (none to 80, their counts often equal) above a minimum
    that every other token shares. With smoothing 0 the unseen tokens are
    zeros, so a row can have fewer than k positive entries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seen = rng.choice(v, draw(st.integers(0, 80)), replace=False)
    row = np.zeros(v)
    row[seen] = rng.integers(1, 30, seen.size)
    row += draw(st.sampled_from([0.0, 1e-3, 0.05, 0.5]))
    total = row.sum()
    return row / total if total > 0.0 else row


@st.composite
def distinct_dists(draw, sizes=(3, 28, 513, 2000)):
    """A distribution over one of ``sizes`` tokens whose entries are all
    distinct."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    row = rng.random(draw(st.sampled_from(sizes)))
    return row / row.sum()


def selection_rows():
    """Rows for the top-k selection: few distinct values with zeros,
    smoothed n-gram rows, and all-distinct rows."""
    return st.one_of(tied_dists(), smoothed_dists(), distinct_dists())


def selection_ks(v: int):
    """k for a row of ``v`` tokens: the lab's small k, any k up to V (k >= 8
    sums in numpy's 8 lanes), and k >= V."""
    return st.one_of(st.integers(1, 8), st.integers(1, v),
                     st.integers(v, v + 3))


def topk_entropy(dist: ProbDist, k: int) -> float:
    """The top-k step entropy of ``dist`` through its ``TopK`` selection."""
    return topk_step_entropy(dist, TopK(dist, k))


# small planted experiment: full pipeline runs in ~0.1 s
TINY_CONFIG = {
    "seed": 0,
    "corpus": {"planted": {"num_docs": 24, "doc_len": 70, "template_len": 12,
                           "coverage": 0.7, "rho": 0.97, "vocab_size": 18}},
    "model": {"order": 3},
    "draft": {"order": 2, "noise": 0.01},
    "controller": {"depth": 4, "top_k": 2, "top_n": 12, "max_new_tokens": 60},
    "prompts": {"count": 3, "calibration_count": 8, "prompt_tokens": 6},
    "calibration": {"filter": "all"},
}


@pytest.fixture
def tiny_config_file(tmp_path):
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    return str(path)


@pytest.fixture
def tiny_config(tmp_path):
    from dataclasses import replace

    from heterospec.config import config_from_dict

    config = config_from_dict(json.loads(json.dumps(TINY_CONFIG)))
    return replace(config, out_dir=str(tmp_path / "run"))


# ---------------------------------------------------------- model files

# the order-2 model of "cab" then "ca" over a = 0, b = 1, c = 2, <unk> = 3
GOLDEN_HEADER = {"mode": "char", "order": 2, "smoothing": 0.5,
                 "symbols": ["a", "b", "c", "<unk>"], "sizes": [3, 2]}
GOLDEN_TABLES = [([0, 1, 2], [2, 1, 2]), ([1, 8], [1, 2])]  # (keys, counts)
MODEL_VERSION = b"heterospec-ngram v2\n"


def model_file(tables=GOLDEN_TABLES, version=MODEL_VERSION, header=None,
               **changes) -> bytes:
    """The bytes of a model file: ``version``, the golden header with
    ``changes`` (or the raw ``header`` line), then ``tables`` as raw
    little-endian int64."""
    if header is None:
        header = json.dumps({**GOLDEN_HEADER, **changes}).encode() + b"\n"
    body = [x for keys, counts in tables for x in (*keys, *counts)]
    return version + header + np.array(body, dtype="<i8").tobytes()


_GOLDEN_V1 = (b"heterospec-ngram v1\nmode: char\norder: 2\nsmoothing: 0.5\n"
              b'symbols: ["a", "b", "c", "<unk>"]\ncounts:\nc 0 - 0 2\n'
              b"c 0 - 1 1\nc 0 - 2 2\nc 1 0 1 1\nc 1 2 0 2\n")
_BAD_HEADER = "bad header: need a string mode, an integer order"
_BAD_SIZES = "bad header: sizes must be 2 record counts >= 0"
_BAD_TABLE = "need keys strictly ascending"

# a file save_model does not write: its bytes, and what the refusal says
# after the path
BAD_MODEL_FILES = {
    "v1-text-file": (_GOLDEN_V1, "not a heterospec-ngram v2 file"),
    "wrong-version": (model_file(version=b"heterospec-ngram v3\n"),
                      "not a heterospec-ngram v2 file"),
    "empty": (b"", "not a heterospec-ngram v2 file"),
    "no-header-newline": (model_file([], header=json.dumps(
        dict(GOLDEN_HEADER, sizes=[0, 0])).encode()),
        "bad header: no newline after it"),
    "header-not-utf8": (model_file(header=b'{"mode": "\xff"}\n'),
                        "not UTF-8 text"),
    "header-not-json": (model_file(header=b"mode: char\n"),
                        "bad header: Expecting value"),
    "header-not-object": (model_file(header=b"[]\n"),
                          "bad header: need exactly the keys"),
    "missing-key": (model_file(header=json.dumps(
        {k: v for k, v in GOLDEN_HEADER.items() if k != "sizes"}).encode() + b"\n"),
        "bad header: need exactly the keys mode, order, smoothing, symbols, sizes"),
    "extra-key": (model_file(seed=3), "bad header: need exactly the keys"),
    "repeated-key": (model_file(header=json.dumps(GOLDEN_HEADER).replace(
        '"order": 2', '"order": 1, "order": 2').encode() + b"\n"),
        "bad header: need exactly the keys"),
    "order-true": (model_file(order=True), _BAD_HEADER),
    "order-float": (model_file(order=1.5), _BAD_HEADER),
    "order-0": (model_file(order=0), "bad header: model.order must be >= 1, got 0"),
    "smoothing-string": (model_file(smoothing="0.1"), _BAD_HEADER),
    "smoothing-nan": (model_file(smoothing=math.nan),
                      "bad header: model.smoothing must be finite and > 0, got nan"),
    "smoothing-0": (model_file(smoothing=0),
                    "bad header: model.smoothing must be finite and > 0, got 0"),
    "symbols-not-strings": (model_file(symbols=["a", 1, "c", "<unk>"]), _BAD_HEADER),
    "symbols-without-unk": (model_file(symbols=["a", "b", "c", "d"]),
                            "bad header: vocabulary needs the unknown symbol"),
    "sizes-not-integers": (model_file(sizes=[3.0, 2]), _BAD_HEADER),
    "sizes-too-few": (model_file(sizes=[5]), _BAD_SIZES),
    "sizes-too-many": (model_file(sizes=[3, 2, 0]), _BAD_SIZES),
    "sizes-negative": (model_file(sizes=[6, -1]), _BAD_SIZES),
    "sizes-off-the-body": (model_file(sizes=[3, 1]),
                           "80 bytes of count tables, the header's sizes need 64"),
    "body-not-8-byte-words": (model_file() + b"\0",
                              "81 bytes of count tables, the header's sizes need 80"),
    "body-truncated": (model_file()[:-8],
                       "72 bytes of count tables, the header's sizes need 80"),
    "body-trailing-bytes": (model_file() + bytes(8),
                            "88 bytes of count tables, the header's sizes need 80"),
    "keys-unsorted": (model_file([([0, 2, 1], [2, 1, 2]), ([1, 8], [1, 2])]),
                      f"count table 0: {_BAD_TABLE}"),
    "keys-repeated": (model_file([([0, 1, 2], [2, 1, 2]), ([8, 8], [1, 2])]),
                      f"count table 1: {_BAD_TABLE}"),
    "key-past-the-context": (model_file([([0, 1, 2], [2, 1, 2]), ([1, 16], [1, 2])]),
                             f"count table 1: {_BAD_TABLE}"),
    "key-negative": (model_file([([-1, 1, 2], [2, 1, 2]), ([1, 8], [1, 2])]),
                     f"count table 0: {_BAD_TABLE}"),
    "count-negative": (model_file([([0, 1, 2], [2, -1, 2]), ([1, 8], [1, 2])]),
                       f"count table 0: {_BAD_TABLE}"),
    "key-space-past-int64": (model_file([([], [])] * 32, order=32, sizes=[0] * 32),
                             "bad header: model.order 32 is too high for a "
                             "vocabulary of 4 symbols: count keys need 4^32 < 2^63"),
}
