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

An n-gram model keeps one count table per context length L < order: two
aligned int64 arrays, ``keys`` in strictly ascending order and ``counts``.
A key packs the context c1..cL and the next token in radix V, the
vocabulary size: ``((c1*V + c2)*V + ...)*V + tok``, so a context's records
are one run of keys, ``[ctx*V, ctx*V + V)``, and its tokens are the keys
minus ``ctx*V``. Keys of the longest context need V^order < 2^63, which
``train_ngram``, ``load_model`` and ``NGramModel`` check first; a larger
``model.order`` is refused. ``NGramModel`` checks its tables in one
vectorized pass, so every model holds tables a parse of its file gives
back. Its first L tables are those an order-L model trains on the same
corpus, so ``lower_order`` derives the draft base instead of training one.
``train_ngram`` counts each length with one ``np.unique`` over the rolling
window keys of the corpus, ``win[i] = win[i-1]*V + tok[i]``, keeping the
windows that lie inside one document.

``save_model`` writes the tables as one text record per key, contexts and
tokens in ascending order. It formats the records column-wise from the
keys' radix-V digits and joins them once, and ``load_model`` reads every
record through one path; a header line without ``: ``, with a key
``save_model`` does not write, or repeating a key is refused at its own
line, and so is a second record for the same (context length, context,
token). The parse takes the decoded text's lines one chunk of about 64K
characters at a time, so it never holds every line of the file at once.

A process keeps the count tables of the last model file it wrote or
parsed, keyed by the sha256 of the file's bytes. ``save_model`` keeps the
tables it wrote, hashed from the bytes it wrote; ``load_model`` reads and
hashes the file on every call, and when the digest matches it returns a
new ``NGramModel``, with an empty memo, over the kept vocabulary and
tables instead of parsing. So a process that runs train-model, calibrate
and compare in turn, as the scripts, the benchmark and Python API callers
do, never parses ``model.txt``. The CLI runs one step per process, so it
still parses once per step that loads the model. A file with other bytes,
even of the same length and mtime, is parsed anew, and the kept tables are
dropped before that, so two parses are never alive at once.
``step_train_model`` calls ``release_kept_model`` before it counts a new
model, so the tables it replaces are not held through training. Models
built from the same kept tables share them, and nothing writes to the
tables after they are built. A parse builds the arrays ``train_ngram``
builds, so kept and parsed tables are equal and give bit-identical
distributions.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from collections.abc import Iterable, Iterator
from itertools import chain

import numpy as np

from .errors import ConfigError, utf8_errors
from .vocab import Context, Vocabulary, encode_corpus

ProbDist = np.ndarray  # 1-D float64 vector over the vocabulary
Counts = list[tuple[np.ndarray, np.ndarray]]  # [L]: (keys, counts)

_KEY_END = 1 << 63  # every key and count is below this: they are int64


def check_key_space(order: int, v: int) -> None:
    """Refuse an order whose longest count keys, up to V^order, overflow
    int64."""
    if order >= 63 or v ** order >= _KEY_END:  # V >= 2: no huge power
        raise ConfigError(f"model.order {order} is too high for a vocabulary "
                          f"of {v} symbols: count keys need "
                          f"{v}^{order} < 2^63")


def _check_tables(counts: Counts, order: int, v: int) -> None:
    """Refuse tables a parse of their ``save_model`` file would not give
    back: one table per context length below ``order``, each two aligned
    1-D int64 arrays, keys strictly ascending in [0, V^(L+1)), counts
    >= 0."""
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
        if order < 1:
            raise ConfigError(f"n-gram order must be >= 1, got {order}")
        if smoothing <= 0:
            raise ConfigError(f"smoothing constant must be > 0, got {smoothing}")
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


def train_ngram(corpus: list[str], vocab: Vocabulary, order: int,
                smoothing: float) -> NGramModel:
    """Count every context length 0..order-1 within each document: one
    ``np.unique`` per length L over the (L+1)-token window keys of the
    concatenated documents, each rolled from the length before it, keeping
    the windows that start inside the document they end in."""
    v = vocab.size
    check_key_space(order, v)
    docs = encode_corpus(corpus, vocab)
    lens = np.fromiter(map(len, docs), np.int64, len(docs))
    tokens = np.fromiter(chain.from_iterable(docs), np.int64, int(lens.sum()))
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


MODEL_FORMAT_VERSION = 1
_HEADER_KEYS = ("mode", "order", "smoothing", "symbols")  # as save_model writes them


# (sha256 of a model file's bytes, its parse) of the last file written or parsed
_kept: tuple[bytes, tuple[Vocabulary, int, float, Counts]] | None = None


def save_model(model: NGramModel, path) -> None:
    """Versioned self-describing text format: key-value header, then one
    ``c <len> <ctx> <tok> <count>`` record per key of each table, in key
    order, so a context's records are together.

    The records are formatted column-wise: the radix-V digits of the keys
    pick their strings from per-token tables, the pieces fill an object
    array row by row, and it is joined once. The tables are kept as the
    parse of the bytes written; ``NGramModel`` checked that a parse gives
    them back."""
    global _kept
    v = model.vocab.size
    pieces = [f"heterospec-ngram v{MODEL_FORMAT_VERSION}\nmode: {model.vocab.mode}\n"
              f"order: {model.order}\nsmoothing: {model.smoothing!r}\n"
              f"symbols: {json.dumps(list(model.vocab.symbols))}\ncounts:\n"]
    digits = np.array([str(t) for t in range(v)], dtype=object)
    inner, last = digits + ",", digits + " "  # a token before "," or " "
    for length, (keys, counts) in enumerate(model._counts):
        # columns: "c <len> ", the context's tokens, the token, the count
        cols = np.empty((keys.size, length + 3), dtype=object)
        cols[:, 0] = f"c {length} " if length else "c 0 - "
        rest, tok = np.divmod(keys, v)
        cols[:, -2] = last[tok]
        for j in range(length, 0, -1):
            rest, tok = np.divmod(rest, v)
            cols[:, j] = (last if j == length else inner)[tok]
        distinct, which = np.unique(counts, return_inverse=True)
        cols[:, -1] = np.array([f"{c}\n" for c in distinct.tolist()],
                               dtype=object)[which]
        pieces.append("".join(cols.ravel().tolist()))
    data = "".join(pieces).encode("utf-8")
    _kept = None
    with open(path, "wb") as fh:
        fh.write(data)
    _kept = (hashlib.sha256(data).digest(),
             (model.vocab, model.order, model.smoothing, model._counts))


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
        check_key_space(order, vocab.size)
    except (KeyError, ValueError, ConfigError) as exc:
        raise ConfigError(f"{path}: bad header: {exc}") from exc
    v = vocab.size
    first = lineno + 1  # record j is on line first + j
    toks, cnts = array("q"), array("q")  # every record's, in file order
    runs = array("q")  # first record, context length, context * V, per head

    def refuse(lineno: int, message: str):
        # a repeat found once the loop stops comes before the line it stopped at
        repeat = _tables(toks, cnts, runs, order)[1]
        if repeat is not None:
            lineno, message = first + repeat, "repeated count record"
        return ConfigError(f"{path}:{lineno}: {message}")

    # one parse path per record: split off the token and count, and parse
    # and range-check the "c <len> <ctx>" head only when it differs from the
    # previous record's, since save_model writes a context's records together
    ids = {str(t): t for t in range(v)}  # int() of each id as save_model writes it
    last, ok = None, False  # the previous record's head, and if it is in range
    for lineno, line in numbered:
        try:
            head, tok, count = line.rsplit(None, 2)
            tok, count = ids.get(tok) or int(tok), int(count)
            if head != last:
                c, length, ctx = head.split()
                length = int(length)
                if c != "c":
                    raise ValueError(c)
                ctx = () if ctx == "-" else ctx.split(",")
                last, ok, base = head, 0 <= length < order and len(ctx) == length, 0
                for t in ctx:
                    t = ids.get(t) or int(t)
                    ok = ok and 0 <= t < v
                    base = base * v + t
                if ok:
                    runs.extend((len(toks), length, base * v))
        except ValueError:
            raise refuse(lineno, "malformed count record") from None
        if not ok or not 0 <= count < _KEY_END or not 0 <= tok < v:
            raise refuse(lineno, "count record out of range")
        toks.append(tok)
        cnts.append(count)
    counts, repeat = _tables(toks, cnts, runs, order)
    if repeat is not None:
        raise ConfigError(f"{path}:{first + repeat}: repeated count record")
    return vocab, order, smoothing, counts


def _tables(toks: array, cnts: array, runs: array,
            order: int) -> tuple[Counts, int | None]:
    """The count tables of parsed records, and the index of the first
    record, in file order, that repeats an earlier record's key (None if
    none does)."""
    n = len(toks)
    starts, lengths, bases = np.frombuffer(runs, np.int64).reshape(-1, 3).T
    sizes = np.diff(starts, append=n)
    keys = np.repeat(bases, sizes) + np.frombuffer(toks, np.int64, n)
    lengths = np.repeat(lengths, sizes)
    values = np.frombuffer(cnts, np.int64, n)
    counts: Counts = []
    repeats = [n]
    for length in range(order):
        records = np.flatnonzero(lengths == length)
        # stable: a key's records stay in file order, the first one first
        ranks = records[keys[records].argsort(kind="stable")]
        ranked = keys[ranks]
        repeated = ranked[1:] == ranked[:-1]
        repeats.append(ranks[1:][repeated].min(initial=n))
        counts.append((ranked, values[ranks]))
    repeat = min(repeats)
    return counts, (repeat if repeat < n else None)
