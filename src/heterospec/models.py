"""Surrogate language models: backoff n-grams and perturbed draft models.

All models share one contract: ``next_dist(context)`` returns the
``DistRecord`` of the state the context leaves the model in. Its ``dist``
is a read-only length-V probability vector (entries >= 0, summing to 1
within 1e-9), a deterministic function of (model state, context), and
``derive`` computes each value taken from it (top-k children, top-1
probability, argmax, top-K entropies) once per record, so once per model
state rather than once per draft node or verify step. Models are immutable
after construction apart from their memo, which only ever grows.

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

An n-gram model keeps {token: count} of the tokens seen after each context.
Its first L count tables are those an order-L model trains on the same
corpus, so ``lower_order`` derives the draft base instead of training one.
``train_ngram`` builds the table of context length L with one ``Counter``
of the (L+1)-token windows of every document, so the per-token work runs in
C, and folds it into the table in first-seen order; it counts one length at
a time, holding one counter. ``save_model`` writes the tables as one text
record per nonzero count, and ``load_model`` reads every record through one
path; a header line without ``: ``, with a key ``save_model`` does not
write, or repeating a key is refused at its own line, and so is a second
record for the same (context length, context, token). The parse takes the
decoded text's lines one chunk of about 64K characters at a time, so it
never holds every line of the file at once.

A process keeps the count tables of the last model file it wrote or
parsed, keyed by the sha256 of the file's bytes. ``save_model`` keeps the
tables it wrote, hashed from the closed file, when parsing that file gives
them back; ``load_model`` reads and hashes the file on every call, and when
the digest matches it returns a new ``NGramModel``, with an empty memo,
over the kept vocabulary and tables instead of parsing. So a process that
runs train-model, calibrate and compare in turn, as the scripts, the
benchmark and Python API callers do, never parses ``model.txt``. The CLI
runs one step per process, so it still parses once per step that loads the
model. A file with other bytes, even of the same length and mtime, is
parsed anew, and the kept tables are dropped before that, so two parses are
never alive at once. ``step_train_model`` calls ``release_kept_model``
before it counts a new model, so the tables it replaces are not held
through training. Models built from the same kept tables share them, and
nothing writes to the tables after they are built. Trained tables hold a
context's tokens in first-seen order and parsed ones in ascending order;
only ``save_model``, which sorts, and ``_compute``, which adds each
distinct token's count once, read that order, so the distributions are
bit-identical.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from collections.abc import Iterable, Iterator
from itertools import chain

import numpy as np

from .errors import ConfigError, utf8_errors
from .vocab import Context, Vocabulary, encode_corpus

ProbDist = np.ndarray  # 1-D float64 vector over the vocabulary
Counts = list[dict[tuple[int, ...], dict[int, int]]]  # [L][context][token]


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
        if order < 1:
            raise ConfigError(f"n-gram order must be >= 1, got {order}")
        if smoothing <= 0:
            raise ConfigError(f"smoothing constant must be > 0, got {smoothing}")
        super().__init__()
        self.vocab = vocab
        self.order = order
        self.smoothing = smoothing
        # counts[L]: length-L context -> {token: count} of tokens after it
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
        while key and key not in self._counts[len(key)]:
            key = key[1:]
        k, v = self.smoothing, self.vocab.size
        # only () can be missing, in a model file without unigram records
        seen = self._counts[len(key)].get(key, {})
        # bit-identical to (dense_counts + k) / (total + k * v)
        dist = np.full(v, k)
        for tok, count in seen.items():
            dist[tok] += count
        return dist / (sum(seen.values()) + k * v)


def train_ngram(corpus: list[str], vocab: Vocabulary, order: int,
                smoothing: float) -> NGramModel:
    """Count every context length 0..order-1 within each document: one
    ``Counter`` of (L+1)-token windows per length L, folded into
    {context: {token: count}} in the order the windows were first seen,
    which is the order a token-by-token count inserts them in. A length's
    counter is dropped before the next length is counted."""
    docs = encode_corpus(corpus, vocab)
    counts: Counts = []
    for length in range(order):
        windows = Counter()
        for doc in docs:
            windows.update(zip(*(doc[j:] for j in range(length + 1))))
        table: dict[tuple[int, ...], dict[int, int]] = {}
        for window, count in windows.items():
            table.setdefault(window[:-1], {})[window[-1]] = count
        counts.append(table)
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


MODEL_FORMAT_VERSION = 1
_HEADER_KEYS = ("mode", "order", "smoothing", "symbols")  # as save_model writes them


# (sha256 of a model file's bytes, its parse) of the last file written or parsed
_kept: tuple[bytes, tuple[Vocabulary, int, float, Counts]] | None = None


def save_model(model: NGramModel, path) -> None:
    """Versioned self-describing text format: key-value header, then one
    ``c <len> <ctx> <tok> <count>`` record per (context length, context,
    token) with a nonzero count, a context's records together.

    Once the file is closed, the model's tables are kept as the parse of
    its bytes, unless parsing it would not give them back: a number of
    tables other than the order, a context without a record, or a zero
    count, which is written as no record, drops the kept tables instead.
    Ranges are not checked; ``train_ngram`` and the parse keep them."""
    global _kept
    exact = len(model._counts) == model.order
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"heterospec-ngram v{MODEL_FORMAT_VERSION}\nmode: {model.vocab.mode}\n"
                 f"order: {model.order}\nsmoothing: {model.smoothing!r}\n"
                 f"symbols: {json.dumps(list(model.vocab.symbols))}\ncounts:\n")
        for length, table in enumerate(model._counts):
            for ctx, seen in table.items():
                ctx_txt = ",".join(map(str, ctx)) if ctx else "-"
                exact = exact and bool(seen)
                for tok, count in sorted(seen.items()):
                    if count:
                        fh.write(f"c {length} {ctx_txt} {tok} {count}\n")
                    else:
                        exact = False
    _kept = None
    if exact:
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).digest()
        _kept = (digest, (model.vocab, model.order, model.smoothing, model._counts))


def release_kept_model() -> None:
    """Drop the kept parse, so its count tables can be freed."""
    global _kept
    _kept = None


def load_model(path) -> NGramModel:
    """The model in a ``save_model`` file, parsed only when its bytes differ
    from those of the kept tables."""
    global _kept
    with open(path, "rb") as fh:
        data = fh.read()
    digest = hashlib.sha256(data).digest()
    if _kept is None or _kept[0] != digest:
        _kept = None  # free the old tables before parsing the new ones
        with utf8_errors(path):
            text = data.decode("utf-8")
        del data  # nor hold the file's bytes through the parse
        lines = chain.from_iterable(map(str.splitlines, _chunks(text)))
        _kept = (digest, _parse_model(lines, path))
    return NGramModel(*_kept[1])


_CHUNK_CHARS = 1 << 16  # a parse chunk: this many characters, then to the line's end


def _chunks(text: str) -> Iterator[str]:
    """``text`` in consecutive pieces, each ending just after a newline or
    at the end of the text, so their lines are those of ``text``."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK_CHARS) + 1 or len(text)
        yield text[start:end]
        start = end


def _parse_model(lines: Iterable[str], path) -> tuple[Vocabulary, int, float, Counts]:
    numbered = enumerate(lines, start=1)
    if next(numbered, (1, None))[1] != f"heterospec-ngram v{MODEL_FORMAT_VERSION}":
        raise ConfigError(f"{path}: not a heterospec-ngram v{MODEL_FORMAT_VERSION} file")
    header = {}
    for lineno, line in numbered:
        if line == "counts:":
            break
        key, sep, value = line.partition(": ")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: unrecognized header line {line!r}")
        if key not in _HEADER_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown header key {key!r}")
        if key in header:
            raise ConfigError(f"{path}:{lineno}: repeated header key {key!r}")
        header[key] = value
    else:
        raise ConfigError(f"{path}: missing counts section")
    try:
        vocab = Vocabulary(tuple(json.loads(header["symbols"])), header["mode"])
        order = int(header["order"])
        smoothing = float(header["smoothing"])
    except (KeyError, ValueError, ConfigError) as exc:
        raise ConfigError(f"{path}: bad header: {exc}") from exc
    counts: Counts = [{} for _ in range(order)]
    v = vocab.size
    # one parse path per record: split off the token and count, and parse
    # and range-check the "c <len> <ctx>" head only when it differs from the
    # previous record's, since save_model writes a context's records together
    last = seen = None  # the previous record's head and its count table
    for lineno, line in numbered:
        try:
            head, tok, count = line.rsplit(None, 2)
            tok, count = int(tok), int(count)
            if head != last:
                c, length, ctx = head.split()
                length = int(length)
                ctx = () if ctx == "-" else tuple(map(int, ctx.split(",")))
                if c != "c":
                    raise ValueError(c)
                last, seen = head, None
                if 0 <= length < order and len(ctx) == length \
                        and all(0 <= t < v for t in ctx):
                    seen = counts[length].setdefault(ctx, {})
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: malformed count record") from None
        if seen is None or count < 0 or not 0 <= tok < v:
            raise ConfigError(f"{path}:{lineno}: count record out of range")
        if tok in seen:
            raise ConfigError(f"{path}:{lineno}: repeated count record")
        seen[tok] = count
    return vocab, order, smoothing, counts
