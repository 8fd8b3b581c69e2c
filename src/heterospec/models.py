"""Surrogate language models: backoff n-grams and perturbed draft models.

All models share one contract: ``next_dist(context)`` returns the
``DistRecord`` of the state the context leaves the model in. Its ``dist``
is a read-only length-V probability vector (entries >= 0, summing to 1
within 1e-9), a deterministic function of (model state, context); its
``argmax``, the token greedy verification reads, is computed when the
record is made, by the ndarray method rather than ``np.argmax``'s Python
wrapper, and its ``topk`` holds the ``TopK`` selection (a draft
node's children, top-1 probability and top-K entropy) that the draft
tree makes from it at its ``top_k``, so each is computed once per model
state rather than once per draft node or verify step. Models are
immutable after construction apart from their memo, which only ever
grows, and their records' ``topk``.

A model's state is ``_window``, a suffix slice of its context: contexts
that end in the same window get equal distributions now and after any
common continuation. ``state_key(context)``, the window as a tuple, is a
context in that state, so ``state_key(state_key(c)) == state_key(c)`` and
``state_key(c) + e`` gets the distribution of ``c + e``; a caller may keep
the key in place of the context and advance it by slicing,
``(key + e)[model._window]``. The window is the last order - 1 raw tokens
for an n-gram model, its base's for a perturbed draft, and by default the
whole context. ``LanguageModel.next_dist`` memoizes the record by
``tuple(context[self._window])``, so every context in the same state gets
the same record, and the decode loop drafts and verifies from it and
reuses draft trees by it. Subclasses implement ``_compute``, which runs
once per state, and narrow ``_window``; defining ``state_key`` is refused.

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
``load_model`` reads the file in one pass and the header as a
``_Header``, refusing other keys, values of other types, and an order or
smoothing that breaks ``check_model_settings``, the rule the config's
``model`` settings and ``NGramModel`` follow too. A body whose length is
not the header's sizes, or whose tables ``NGramModel`` refuses, is
refused as well; every refusal is a ``ConfigError`` naming the file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import (ConfigError, _build, check_setting, finite, read_json,
                     utf8_errors)
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
    check_setting(finite(smoothing) and smoothing > 0, "model.smoothing",
                  "finite and > 0", smoothing)


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


def argmax_token(dist: ProbDist) -> int:
    # the first maximum: ties go to the smaller token id. The ndarray method,
    # not np.argmax, whose Python wrapper returns the same bits
    return int(dist.argmax())


class DistRecord:
    """One distribution and the two values the decode loop reads of it:
    ``argmax``, its ``argmax_token``, computed when the record is made, and
    ``topk``, the ``TopK`` selection the draft tree makes the first time it
    expands from the record, and again only at another k; None before."""

    __slots__ = ("dist", "argmax", "topk")

    def __init__(self, dist: ProbDist):
        self.dist = dist
        self.argmax = argmax_token(dist)
        self.topk = None


class LanguageModel:
    """Base class: a vocabulary plus a deterministic next-token distribution,
    memoized by state, the ``_window`` of the context, for as long as the
    model lives. A window too short returns another context's record."""

    vocab: Vocabulary
    _window = slice(None)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "state_key" in vars(cls):  # next_dist would ignore it
            raise TypeError(f"{cls.__name__} defines state_key, which "
                            f"next_dist ignores: set _window instead")

    def __init__(self):
        self._memo: dict[tuple[int, ...], DistRecord] = {}

    def _compute(self, context: Context) -> ProbDist:
        raise NotImplementedError

    def next_dist(self, context: Context) -> DistRecord:
        """The record of the distribution after ``context``, shared by every
        context in the same state; its ``dist`` is read-only."""
        key = tuple(context[self._window])
        rec = self._memo.get(key)
        if rec is None:
            dist = self._compute(context)
            dist.flags.writeable = False
            rec = self._memo[key] = DistRecord(dist)
        return rec

    def state_key(self, context: Context) -> tuple[int, ...]:
        """The state ``context`` leaves the model in, itself a context in
        that state: equal keys get equal ``next_dist`` after any common
        continuation."""
        return tuple(context[self._window])


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
        # the last order - 1 raw tokens (slice(0, 0) keeps none at order 1),
        # not the backoff context: an unseen context and the empty one back
        # off alike but can diverge once a token is appended
        self._window = slice(1 - order, None) if order > 1 else slice(0, 0)

    def lower_order(self, order: int) -> NGramModel:
        """The model over the first ``order`` count tables, as ``train_ngram``
        gives it at that order; this model itself at its own order."""
        if order == self.order:
            return self
        return NGramModel(self.vocab, order, self.smoothing, self._counts[:order])

    def _compute(self, context: Context) -> ProbDist:
        key = context[self._window]
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
    float round-trip. Expects noise in [0, 1), which ``DraftSpec``
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
    simulating draft/target mismatch. Its state is its base's window."""

    def __init__(self, base: LanguageModel, noise: float = 0.0):
        super().__init__()
        self.base = base
        self.vocab = base.vocab
        self.noise = noise
        self._window = base._window

    def _compute(self, context: Context) -> ProbDist:
        return perturb(self.base.next_dist(context).dist, self.noise)


MODEL_FORMAT = b"heterospec-ngram v2\n"  # a model file's first line


@dataclass(frozen=True)
class _Header:
    """A model file's JSON header; ``sizes``: records per context length."""

    mode: str
    order: int
    smoothing: float
    symbols: tuple[str, ...]
    sizes: tuple[int, ...]

    def __post_init__(self):
        check_model_settings(self.order, self.smoothing)
        check_key_space(self.order, len(self.symbols))
        check_setting(len(self.sizes) == self.order and min(self.sizes) >= 0,
                      "sizes", f"{self.order} record counts >= 0", self.sizes)


def save_model(model: NGramModel, path) -> None:
    """The version line, one JSON header line, then each context length's
    keys and counts as raw little-endian int64."""
    header = {"mode": model.vocab.mode, "order": model.order,
              "smoothing": model.smoothing, "symbols": list(model.vocab.symbols),
              "sizes": [keys.size for keys, _ in model._counts]}
    with open(path, "wb") as fh:
        fh.write(b"".join([MODEL_FORMAT, json.dumps(header).encode(), b"\n",
                           *(a.astype("<i8").tobytes()
                             for table in model._counts for a in table)]))


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
        if not line.endswith("\n"):
            raise ConfigError("no newline after it")
        header = _build(_Header, read_json(line, "model"), "model")
        vocab = Vocabulary(header.symbols, header.mode)
    except ConfigError as exc:
        raise ConfigError(f"{path}: bad header: {exc}") from None
    if len(body) != 16 * sum(header.sizes):
        raise ConfigError(f"{path}: {len(body)} bytes of count tables, the "
                          f"header's sizes need {16 * sum(header.sizes)}")
    flat = np.frombuffer(body, "<i8").astype(np.int64)
    parts = np.split(flat, np.cumsum(np.repeat(header.sizes, 2))[:-1])
    try:
        return NGramModel(vocab, header.order, header.smoothing,
                          list(zip(parts[::2], parts[1::2])))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
