"""Surrogate language models: backoff n-grams and perturbed draft models.

All models share one contract: ``next_dist(context)`` returns the
``DistRecord`` of the state the context leaves the model in. Its ``dist``
is a read-only length-V probability vector (entries >= 0, summing to 1
within 1e-9), a deterministic function of (model state, context), and
``derive`` computes each value taken from it (the top-k selection its
children and top-K entropy come from, the top-1 probability, the argmax)
once per record, so once per model state rather than once per draft node
or verify step. Models are immutable after construction apart from their
memo, which only ever grows.

``state_key(context)`` names the state a context leaves the model in:
contexts with equal state keys get equal distributions now and after any
common continuation. A state key is itself a context in that state, so
``state_key(state_key(c)) == state_key(c)`` and ``state_key(c) + e`` gets
the distribution of ``c + e`` for any continuation ``e``; a caller may keep
the key in place of the context and advance it with ``state_key(key + e)``.
For an n-gram model it is the last order - 1 raw tokens; by default the
whole context. ``LanguageModel.next_dist`` memoizes the record by it, so
every context with the same key gets the same record, and the decode loop
drafts and verifies from it and reuses draft trees by it. Subclasses
implement ``_compute``, the distribution of one context, which runs once
per state.

An n-gram model keeps one count table per context length L < order: two
aligned int64 arrays, ``keys`` in strictly ascending order and ``counts``.
A key packs the context c1..cL and the next token in radix V, the
vocabulary size: ``((c1*V + c2)*V + ...)*V + tok``, so a context's records
are one run of keys, ``[ctx*V, ctx*V + V)``, and its tokens are the keys
minus ``ctx*V``. Keys of the longest context need V^order < 2^63, which
``train_ngram``, ``load_model`` and ``NGramModel`` check first; a larger
``model.order`` is refused. ``NGramModel`` checks its tables in one
vectorized pass: keys strictly ascending and in range, counts >= 0. Its
first L tables are those an order-L model trains on the same corpus, so
``lower_order`` derives the draft base instead of training one.
``train_ngram`` counts each length with one ``np.unique`` over the rolling
window keys of the corpus, ``win[i] = win[i-1]*V + tok[i]``, keeping the
windows that lie inside one document.

``save_model`` writes a version line, one JSON header line (mode, order,
smoothing, symbols, and ``sizes``, the record count per context length),
then each length's keys and counts as raw little-endian int64.
``load_model`` reads the file in one pass and refuses a header that is
not exactly those keys with values of their JSON types, or whose order
and smoothing break ``check_model_settings``, the rule the config's
``model`` settings and ``NGramModel`` follow too. A body whose length is
not the header's sizes, or whose tables ``NGramModel`` refuses, is refused
as well; every refusal is a ``ConfigError`` naming the file.
"""

from __future__ import annotations

import json
import math
from itertools import chain

import numpy as np

from .errors import ConfigError, check_setting, utf8_errors
# encode_corpus is unused here but stays importable: bench/harness.py
# patches it under this module's name
from .vocab import (Context, SplitCorpus, Vocabulary, encode_corpus,  # noqa: F401
                    split_corpus)

ProbDist = np.ndarray  # 1-D float64 vector over the vocabulary
Counts = list[tuple[np.ndarray, np.ndarray]]  # [L]: (keys, counts)

_KEY_END = 1 << 63  # every key and count is below this: they are int64


def check_model_settings(order: int, smoothing: float) -> None:
    """The rule for a model's order and smoothing, from a config or a
    model file's header alike."""
    check_setting(order >= 1, "model.order", ">= 1", order)
    try:  # an int too large for a float is refused, not left to _compute
        finite = 0 < float(smoothing) < math.inf  # false for NaN
    except OverflowError:
        finite = False
    check_setting(finite, "model.smoothing", "finite and > 0", smoothing)


def check_key_space(order: int, v: int) -> None:
    """Refuse an order whose longest count keys, up to V^order, overflow
    int64."""
    if order >= 63 or v ** order >= _KEY_END:  # V >= 2: no huge power
        raise ConfigError(f"model.order {order} is too high for a vocabulary "
                          f"of {v} symbols: count keys need "
                          f"{v}^{order} < 2^63")


def _check_tables(counts: Counts, order: int, v: int) -> None:
    """Refuse tables other than one per context length below ``order``,
    each two aligned 1-D int64 arrays, keys strictly ascending in
    [0, V^(L+1)), counts >= 0."""
    if len(counts) != order:
        raise ConfigError(f"an order-{order} model needs {order} count "
                          f"tables, got {len(counts)}")
    for length, (keys, cnt) in enumerate(counts):
        if not (isinstance(keys, np.ndarray) and isinstance(cnt, np.ndarray)
                and keys.dtype == cnt.dtype == np.int64 and keys.ndim == 1
                and keys.shape == cnt.shape):
            raise ConfigError(f"count table {length}: need two aligned 1-D "
                              f"int64 arrays")
        if keys.size and not (keys[0] >= 0 and keys[-1] < v ** (length + 1)
                              and (keys[1:] > keys[:-1]).all()
                              and cnt.min() >= 0):
            raise ConfigError(f"count table {length}: need keys strictly "
                              f"ascending in [0, {v}^{length + 1}) and "
                              f"counts >= 0")


class DistRecord:
    """One distribution and the values derived from it, each computed once.

    ``derive(fn, *args)`` returns ``fn(dist, *args)``, calling ``fn`` only on
    the first request for that (fn, args).
    """

    __slots__ = ("dist", "_derived")

    def __init__(self, dist: ProbDist):
        self.dist = dist
        self._derived: dict = {}

    def derive(self, fn, *args):
        key = (fn, *args) if args else fn
        value = self._derived.get(key)
        if value is None:
            value = self._derived[key] = fn(self.dist, *args)
        return value


class LanguageModel:
    """Base class: a vocabulary plus a deterministic next-token distribution,
    memoized by ``state_key`` for as long as the model lives. The memo
    trusts the ``state_key`` contract: a wrong key returns another
    context's record. Subclasses implement ``_compute``."""

    vocab: Vocabulary

    def __init__(self):
        self._memo: dict[tuple[int, ...], DistRecord] = {}

    def _compute(self, context: Context) -> ProbDist:
        raise NotImplementedError

    def next_dist(self, context: Context) -> DistRecord:
        """The record of the distribution after ``context``, shared by every
        context in the same state; its ``dist`` is read-only."""
        key = self.state_key(context)
        rec = self._memo.get(key)
        if rec is None:
            dist = self._compute(context)
            dist.flags.writeable = False
            rec = self._memo[key] = DistRecord(dist)
        return rec

    def state_key(self, context: Context) -> tuple[int, ...]:
        """The state ``context`` leaves the model in: contexts with equal
        keys get equal ``next_dist`` after any common continuation, and the
        key is a context in the same state. The whole context by default,
        so a generic model shares no state."""
        return tuple(context)


class NGramModel(LanguageModel):
    """Add-k smoothed n-gram model with backoff to shorter contexts.

    A context of length L is used only if it was observed in training;
    otherwise the context is shortened one token at a time. The empty
    context (add-k unigram) always exists, so every lookup terminates.
    """

    def __init__(self, vocab: Vocabulary, order: int, smoothing: float,
                 counts: Counts):
        check_model_settings(order, smoothing)
        check_key_space(order, vocab.size)
        _check_tables(counts, order, vocab.size)
        super().__init__()
        self.vocab = vocab
        self.order = order
        self.smoothing = smoothing
        # counts[L]: (keys, counts) of the records of length-L contexts
        self._counts = counts
        # the last order - 1 tokens; slice(0, 0) keeps none at order 1
        self._window = slice(1 - order, None) if order > 1 else slice(0, 0)

    def lower_order(self, order: int) -> NGramModel:
        """The model over the first ``order`` count tables, as ``train_ngram``
        gives it at that order; this model itself at its own order."""
        if order == self.order:
            return self
        return NGramModel(self.vocab, order, self.smoothing, self._counts[:order])

    def state_key(self, context: Context) -> tuple[int, ...]:
        """The last order - 1 tokens of ``context``, or all of a shorter one.
        Not the backoff context: an unseen context and the empty one back
        off alike but can diverge once a token is appended."""
        return tuple(context[self._window])

    def _compute(self, context: Context) -> ProbDist:
        key = self.state_key(context)
        k, v = self.smoothing, self.vocab.size
        ctx = 0  # the context packed in radix V
        for tok in key:
            ctx = ctx * v + tok
        # back off one token at a time to a context with records; only ()
        # can have none, in a model file without unigram records
        for length in range(len(key), -1, -1):
            keys, counts = self._counts[length]
            base = ctx * v  # the context's first key
            lo, hi = keys.searchsorted((base, base + v))
            if lo < hi or not length:
                break
            ctx %= v ** (length - 1)
        # bit-identical to (dense_counts + k) / (total + k * v)
        dist = np.zeros(v)
        seen = counts[lo:hi]
        dist[keys[lo:hi] - base] = seen
        dist += k
        return dist / (sum(seen.tolist()) + k * v)


def train_ngram(corpus: list[str] | SplitCorpus, vocab: Vocabulary,
                order: int, smoothing: float) -> NGramModel:
    """Count every context length 0..order-1 within each document: one
    ``np.unique`` per length L over the (L+1)-token window keys of the
    concatenated documents, each rolled from the length before it, keeping
    the windows that start inside the document they end in."""
    v = vocab.size
    check_key_space(order, v)
    split = split_corpus(corpus, vocab.mode)
    ids = np.fromiter(vocab.ids(split.symbols), np.int64, len(split.symbols))
    lens = np.fromiter(map(len, split.docs), np.int64, len(split.docs))
    tokens = ids[np.fromiter(chain.from_iterable(split.docs), np.int64,
                             int(lens.sum()))]
    # each token's position in its document
    pos = np.arange(tokens.size) - np.repeat(np.cumsum(lens) - lens, lens)
    counts: Counts = []
    win = tokens.copy()
    for length in range(order):
        if length:  # the window ending at i, from the one ending at i - 1
            win[1:] = win[:-1] * v + tokens[1:]
        keys, cnt = np.unique(win[pos >= length], return_counts=True)
        counts.append((keys, cnt.astype(np.int64, copy=False)))
    return NGramModel(vocab, order, smoothing, counts)


def perturb(dist: ProbDist, noise: float) -> ProbDist:
    """Mix in uniform noise: normalize((1-noise) * softmax(log dist) +
    noise * uniform). noise=0 is an exact identity, returned without any
    float round-trip. Expects noise in [0, 1], which ``DraftSpec``
    checks."""
    if noise == 0.0:
        return dist.copy()
    v = dist.shape[0]
    # softmax(log dist) is dist up to rounding, which the draft's values keep
    with np.errstate(divide="ignore"):
        logits = np.log(dist)
    logits -= logits.max()
    shaped = np.exp(logits)
    shaped /= shaped.sum()
    mixed = (1.0 - noise) * shaped + noise / v
    return mixed / mixed.sum()


class PerturbedDraftModel(LanguageModel):
    """Draft surrogate: the target distribution mixed with uniform noise,
    simulating draft/target mismatch."""

    def __init__(self, base: LanguageModel, noise: float = 0.0):
        super().__init__()
        self.base = base
        self.vocab = base.vocab
        self.noise = noise

    def state_key(self, context: Context) -> tuple[int, ...]:
        return self.base.state_key(context)

    def _compute(self, context: Context) -> ProbDist:
        return perturb(self.base.next_dist(context).dist, self.noise)


MODEL_FORMAT = b"heterospec-ngram v2\n"  # a model file's first line
_HEADER_KEYS = ("mode", "order", "smoothing", "symbols", "sizes")


def save_model(model: NGramModel, path) -> None:
    """The version line, one JSON header line, then each context length's
    keys and counts as raw little-endian int64; the header's ``sizes`` is
    the record count of each length."""
    header = {"mode": model.vocab.mode, "order": model.order,
              "smoothing": model.smoothing, "symbols": list(model.vocab.symbols),
              "sizes": [keys.size for keys, _ in model._counts]}
    with open(path, "wb") as fh:
        fh.write(b"".join([MODEL_FORMAT, json.dumps(header).encode(), b"\n",
                           *(a.astype("<i8").tobytes()
                             for table in model._counts for a in table)]))


def _read_header(line: str) -> tuple[Vocabulary, int, float, list[int]]:
    """The vocabulary, order, smoothing and table sizes of a header line."""
    if not line.endswith("\n"):
        raise ConfigError("no newline after it")
    # an object with a repeated key reads as None, so it has not the keys
    header = json.loads(line, object_pairs_hook=lambda pairs: (
        dict(pairs) if len({key for key, _ in pairs}) == len(pairs) else None))
    if type(header) is not dict or header.keys() != set(_HEADER_KEYS):
        raise ConfigError(f"need exactly the keys {', '.join(_HEADER_KEYS)}")
    mode, order, smoothing, symbols, sizes = map(header.get, _HEADER_KEYS)
    # type() is exact, so a bool is taken for no number, as in a config
    if not (type(mode) is str and type(order) is int
            and type(smoothing) in (int, float)
            and type(symbols) is list and {type(s) for s in symbols} <= {str}
            and type(sizes) is list and {type(n) for n in sizes} <= {int}):
        raise ConfigError("need a string mode, an integer order, a number "
                          "smoothing, a list of string symbols and a list of "
                          "integer sizes")
    vocab = Vocabulary(tuple(symbols), mode)
    check_model_settings(order, smoothing)
    check_key_space(order, vocab.size)
    check_setting(len(sizes) == order and min(sizes) >= 0, "sizes",
                  f"{order} record counts >= 0", sizes)
    return vocab, order, smoothing, sizes


def load_model(path) -> NGramModel:
    """The model of a ``save_model`` file. Any other file, a v1 text file
    among them, is refused with a ``ConfigError`` naming ``path``."""
    with open(path, "rb") as fh:
        version, line, body = fh.readline(), fh.readline(), fh.read()
    if version != MODEL_FORMAT:
        raise ConfigError(f"{path}: not a {MODEL_FORMAT.decode().strip()} file")
    with utf8_errors(path):
        line = line.decode("utf-8")
    try:
        vocab, order, smoothing, sizes = _read_header(line)
    except (ValueError, ConfigError) as exc:  # a JSONDecodeError is a ValueError
        raise ConfigError(f"{path}: bad header: {exc}") from None
    if len(body) != 16 * sum(sizes):
        raise ConfigError(f"{path}: {len(body)} bytes of count tables, the "
                          f"header's sizes need {16 * sum(sizes)}")
    flat = np.frombuffer(body, "<i8").astype(np.int64)
    parts = np.split(flat, np.cumsum(np.repeat(sizes, 2))[:-1])
    try:
        return NGramModel(vocab, order, smoothing,
                          list(zip(parts[::2], parts[1::2])))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
