"""Shared fixtures: stub language models, vocab builders, and a scaled-down
experiment config that runs the full pipeline in well under a second."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from heterospec.corpus import corpus_symbols
from heterospec.errors import ConfigError
from heterospec.models import LanguageModel, ProbDist
from heterospec.vocab import UNK, Context, Vocabulary

# deterministic hypothesis runs keep the suite byte-reproducible
settings.register_profile(
    "lab", derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
settings.load_profile("lab")


def make_vocab(size: int, mode: str = "word") -> Vocabulary:
    """Closed vocabulary of the given size with the unknown symbol last."""
    assert size >= 2
    return Vocabulary(tuple(corpus_symbols(size - 1)) + (UNK,), mode)


class FixedDistModel(LanguageModel):
    """One distribution, every context."""

    def __init__(self, dist, vocab: Vocabulary | None = None):
        self.dist = np.asarray(dist, dtype=np.float64)
        self.vocab = vocab if vocab is not None else make_vocab(self.dist.shape[0])

    def next_dist(self, context):
        return self.dist.copy()


class ScriptedModel(LanguageModel):
    """Distribution looked up by exact context; uniform fallback."""

    def __init__(self, table: dict, vocab: Vocabulary):
        self.table = {tuple(k): np.asarray(v, dtype=np.float64)
                      for k, v in table.items()}
        self.vocab = vocab

    def next_dist(self, context):
        ctx = tuple(context)
        if ctx in self.table:
            return self.table[ctx].copy()
        return np.full(self.vocab.size, 1.0 / self.vocab.size)


class DrawnDistModel(LanguageModel):
    """Fresh Dirichlet draw per call. Not a function of context, so only
    suitable for fuzzing tree construction within a single expansion."""

    def __init__(self, vocab: Vocabulary, rng: np.random.Generator,
                 concentration: float = 0.8):
        self.vocab = vocab
        self.rng = rng
        self.concentration = concentration

    def next_dist(self, context):
        return self.rng.dirichlet(np.full(self.vocab.size, self.concentration))


class MemoizedModel(LanguageModel):
    """Caches next_dist by context; models are deterministic so this is
    observationally identical and much faster in tight sampling loops."""

    def __init__(self, base: LanguageModel):
        self.base = base
        self.vocab = base.vocab
        self._cache: dict = {}

    def next_dist(self, context):
        ctx = tuple(context)
        dist = self._cache.get(ctx)
        if dist is None:
            dist = self._cache[ctx] = self.base.next_dist(ctx)
        return dist


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

    def next_dist(self, context: Context) -> ProbDist:
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
