"""Surrogate language models: backoff n-grams and perturbed draft models.

All models share one contract: ``next_dist(context)`` returns a length-V
probability vector (entries >= 0, summing to 1 within 1e-9) and is a
deterministic function of (model state, context). Models are immutable
after construction, so they are safe to share across concurrent readers.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ConfigError
from .vocab import Context, Vocabulary, encode_corpus

ProbDist = np.ndarray  # 1-D float64 vector over the vocabulary

DIST_ATOL = 1e-9


def is_valid_dist(dist: ProbDist, size: int | None = None) -> bool:
    if dist.ndim != 1 or (size is not None and dist.shape[0] != size):
        return False
    if np.any(dist < 0.0):
        return False
    return abs(float(dist.sum()) - 1.0) <= DIST_ATOL


class LanguageModel:
    """Base class: a vocabulary plus a deterministic next-token distribution."""

    vocab: Vocabulary

    def next_dist(self, context: Context) -> ProbDist:
        raise NotImplementedError


class NGramModel(LanguageModel):
    """Add-k smoothed n-gram model with backoff to shorter contexts.

    A context of length L is used only if it was observed in training;
    otherwise the context is shortened one token at a time. The empty
    context (add-k unigram) always exists, so every lookup terminates.
    """

    def __init__(self, vocab: Vocabulary, order: int, smoothing: float,
                 counts: list[dict[tuple[int, ...], np.ndarray]]):
        if order < 1:
            raise ConfigError(f"n-gram order must be >= 1, got {order}")
        if smoothing <= 0:
            raise ConfigError(f"smoothing constant must be > 0, got {smoothing}")
        self.vocab = vocab
        self.order = order
        self.smoothing = smoothing
        # counts[L] maps a length-L context to an int64 count vector over V
        self._counts = counts
        self._totals = [{ctx: int(vec.sum()) for ctx, vec in table.items()}
                        for table in counts]

    def next_dist(self, context: Context) -> ProbDist:
        k, v = self.smoothing, self.vocab.size
        longest = min(self.order - 1, len(context))
        for length in range(longest, -1, -1):
            ctx = tuple(context[len(context) - length:])
            vec = self._counts[length].get(ctx)
            if vec is not None:
                return (vec + k) / (self._totals[length][ctx] + k * v)
        # Unreachable once trained on a non-empty corpus: the empty context
        # always has observations.
        return np.full(v, 1.0 / v)


def train_ngram(corpus: list[str], vocab: Vocabulary, order: int,
                smoothing: float) -> NGramModel:
    """Count every context length 0..order-1 within each document."""
    v = vocab.size
    counts: list[dict[tuple[int, ...], np.ndarray]] = [{} for _ in range(order)]
    for doc in encode_corpus(corpus, vocab):
        for i, tok in enumerate(doc):
            for length in range(min(order - 1, i) + 1):
                ctx = tuple(doc[i - length:i])
                vec = counts[length].get(ctx)
                if vec is None:
                    vec = counts[length][ctx] = np.zeros(v, dtype=np.int64)
                vec[tok] += 1
    return NGramModel(vocab, order, smoothing, counts)


def perturb(dist: ProbDist, temperature: float, noise: float) -> ProbDist:
    """Temperature-sharpen/flatten a distribution and mix in uniform noise.

    Computes normalize((1-noise) * softmax(log dist / temperature)
    + noise * uniform). The (temperature=1, noise=0) case is an exact
    identity, returned without any float round-trip.
    """
    if temperature <= 0:
        raise ConfigError(f"draft temperature must be > 0, got {temperature}")
    if not (0.0 <= noise <= 1.0):
        raise ConfigError(f"noise weight must be in [0, 1], got {noise}")
    if temperature == 1.0 and noise == 0.0:
        return dist.copy()
    v = dist.shape[0]
    with np.errstate(divide="ignore"):
        logits = np.log(dist) / temperature
    logits -= logits.max()
    shaped = np.exp(logits)
    shaped /= shaped.sum()
    mixed = (1.0 - noise) * shaped + noise / v
    return mixed / mixed.sum()


class PerturbedDraftModel(LanguageModel):
    """Draft surrogate: the target distribution reshaped by temperature and
    uniform noise, simulating draft/target mismatch."""

    def __init__(self, base: LanguageModel, temperature: float = 1.0,
                 noise: float = 0.0):
        if temperature <= 0:
            raise ConfigError(f"draft temperature must be > 0, got {temperature}")
        if not (0.0 <= noise <= 1.0):
            raise ConfigError(f"noise weight must be in [0, 1], got {noise}")
        self.base = base
        self.vocab = base.vocab
        self.temperature = temperature
        self.noise = noise

    def next_dist(self, context: Context) -> ProbDist:
        return perturb(self.base.next_dist(context), self.temperature, self.noise)


MODEL_FORMAT_VERSION = 1


def save_model(model: NGramModel, path) -> None:
    """Versioned self-describing text format: key-value header, then one
    count record per (context-length, context, token)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"heterospec-ngram v{MODEL_FORMAT_VERSION}\n")
        fh.write(f"mode: {model.vocab.mode}\n")
        fh.write(f"order: {model.order}\n")
        fh.write(f"smoothing: {model.smoothing!r}\n")
        fh.write(f"symbols: {json.dumps(list(model.vocab.symbols))}\n")
        fh.write("counts:\n")
        for length, table in enumerate(model._counts):
            for ctx, vec in table.items():
                ctx_txt = ",".join(map(str, ctx)) if ctx else "-"
                for tok in np.nonzero(vec)[0]:
                    fh.write(f"c {length} {ctx_txt} {tok} {vec[tok]}\n")


def load_model(path) -> NGramModel:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != f"heterospec-ngram v{MODEL_FORMAT_VERSION}":
        raise ConfigError(f"{path}: not a heterospec-ngram v{MODEL_FORMAT_VERSION} file")
    header: dict[str, str] = {}
    body_at = None
    for i, line in enumerate(lines[1:], start=1):
        if line == "counts:":
            body_at = i + 1
            break
        key, _, value = line.partition(": ")
        header[key] = value
    if body_at is None:
        raise ConfigError(f"{path}: missing counts section")
    try:
        vocab = Vocabulary(tuple(json.loads(header["symbols"])), header["mode"])
        order = int(header["order"])
        smoothing = float(header["smoothing"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{path}: bad header: {exc}") from exc
    counts: list[dict[tuple[int, ...], np.ndarray]] = [{} for _ in range(order)]
    for lineno, line in enumerate(lines[body_at:], start=body_at + 1):
        parts = line.split()
        if len(parts) != 5 or parts[0] != "c":
            raise ConfigError(f"{path}:{lineno}: malformed count record")
        try:
            length = int(parts[1])
            ctx = () if parts[2] == "-" else tuple(int(x) for x in parts[2].split(","))
            tok = int(parts[3])
            count = int(parts[4])
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: malformed count record") from None
        if not 0 <= length < order or len(ctx) != length or count < 0 \
                or not 0 <= tok < vocab.size \
                or any(not 0 <= c < vocab.size for c in ctx):
            raise ConfigError(f"{path}:{lineno}: count record out of range")
        table = counts[length]
        vec = table.get(ctx)
        if vec is None:
            vec = table[ctx] = np.zeros(vocab.size, dtype=np.int64)
        vec[tok] = count
    return NGramModel(vocab, order, smoothing, counts)
