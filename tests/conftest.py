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
from heterospec.errors import ConfigError
from heterospec.metrics import IterationRecord
from heterospec.models import DistRecord, LanguageModel, ProbDist
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


@pytest.fixture
def model_parses(monkeypatch):
    """The paths ``models._parse_model`` parses while the test runs."""
    from heterospec import models

    parses, parse = [], models._parse_model

    def counted(lines, path):
        parses.append(path)
        return parse(lines, path)

    monkeypatch.setattr(models, "_parse_model", counted)
    return parses
