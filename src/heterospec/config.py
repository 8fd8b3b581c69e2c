"""Experiment configuration: JSON schema v1 plus named RNG substreams.

A config file is one JSON object; every section and key is optional and
falls back to the defaults below. The dataclasses are the schema, read by
``errors._build``; unknown and repeated keys are refused so typos fail
fast. The one key that is no field is ``corpus``: it takes either a text
file path or a planted generator spec, not both, and sets ``corpus_path``
or ``planted``.
"""

from __future__ import annotations

import dataclasses
import json
import zlib
from dataclasses import dataclass, field

import numpy as np

from .binning import CALIBRATION_FILTERS
from .control import HeteroConfig
from .corpus import PlantedCorpusSpec
from .errors import ConfigError, _build, check_setting, read_json, utf8_errors
from .metrics import CostModel
from .models import check_model_settings

CONFIG_VERSION = 1


def rng_for(seed: int, name: str) -> np.random.Generator:
    """Independent, reproducible substream keyed by (seed, purpose name)."""
    return np.random.default_rng(
        np.random.SeedSequence([seed, zlib.crc32(name.encode("utf-8"))]))


@dataclass(frozen=True)
class ModelSpec:
    order: int = 3
    smoothing: float = 0.1

    def __post_init__(self):
        check_model_settings(self.order, self.smoothing)


@dataclass(frozen=True)
class DraftSpec:
    order: int | None = 2  # in [2, model.order]; None: the target itself
    noise: float = 0.01

    def __post_init__(self):
        # noise 1 is a uniform draft: every iteration scores the same entropy
        check_setting(0 <= self.noise < 1,  # false for NaN
                      "draft.noise", "in [0, 1)", self.noise)


@dataclass(frozen=True)
class PromptSpec:
    count: int = 24  # eval prompts, one per held-out doc
    prompt_tokens: int = 8
    calibration_count: int = 30

    def __post_init__(self):
        for key in ("count", "prompt_tokens", "calibration_count"):
            value = getattr(self, key)
            check_setting(value >= 1, f"prompts.{key}", ">= 1", value)


@dataclass(frozen=True)
class CalibrationSpec:
    # which iterations feed the fit: fully-accepted | accepting | all
    filter: str = "fully-accepted"

    def __post_init__(self):
        if self.filter not in CALIBRATION_FILTERS:
            raise ConfigError(f"unknown calibration filter {self.filter!r}; "
                              f"expected one of {CALIBRATION_FILTERS}")


@dataclass(frozen=True)
class ExperimentConfig:
    version: int = CONFIG_VERSION
    seed: int = 0
    out_dir: str = "runs/default"
    corpus_path: str | None = None
    planted: PlantedCorpusSpec = field(default_factory=PlantedCorpusSpec)
    tokenization: str = "word"
    model: ModelSpec = field(default_factory=ModelSpec)
    draft: DraftSpec = field(default_factory=DraftSpec)
    controller: HeteroConfig = field(default_factory=HeteroConfig)
    prompts: PromptSpec = field(default_factory=PromptSpec)
    calibration: CalibrationSpec = field(default_factory=CalibrationSpec)
    cost: CostModel = field(default_factory=CostModel)

    def __post_init__(self):
        if self.version != CONFIG_VERSION:
            raise ConfigError(f"unsupported config version {self.version}")
        check_setting(self.seed >= 0, "seed", "non-negative", self.seed)
        if self.corpus_path == "":
            raise ConfigError("corpus.path must name a file, got ''")
        if self.tokenization not in ("char", "word"):
            raise ConfigError(f"tokenization must be char or word, "
                              f"got {self.tokenization!r}")
        if self.corpus_path is None:  # a corpus file is measured when it is read
            if self.tokenization != "word":
                raise ConfigError("planted corpora are word-tokenized; set "
                                  "tokenization to 'word'")
            # every planted document has doc_len tokens
            tokens = self.prompts.prompt_tokens
            check_setting(self.planted.doc_len >= tokens, "corpus.planted.doc_len",
                          f">= prompts.prompt_tokens = {tokens}",
                          self.planted.doc_len)
            # the calibration and eval splits must leave a training split
            held = self.prompts.calibration_count + self.prompts.count
            check_setting(self.planted.num_docs > held, "corpus.planted.num_docs",
                          f"> prompts.calibration_count + prompts.count = {held}",
                          self.planted.num_docs)
        # a top-1 entropy is always 0 and an order-1 draft has one state:
        # either signal is constant, so calibration would have nothing to split
        check_setting(self.controller.top_k >= 2, "controller.top_k",
                      ">= 2 in an experiment", self.controller.top_k)
        order = self.draft.order
        effective = self.model.order if order is None else order
        check_setting(2 <= effective <= self.model.order, "draft.order",
                      f"in [2, model.order = {self.model.order}] "
                      "(null: model.order)", "null" if order is None else order)


@dataclass(frozen=True)
class _Corpus:
    """The JSON ``corpus`` object: a text file or a planted generator spec."""
    path: str | None = None
    planted: PlantedCorpusSpec | None = None


def config_from_dict(data: dict, where: str = "config") -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: top level must be an object")
    data = dict(data)
    corpus = _build(_Corpus, data.pop("corpus", {}), f"{where}.corpus")
    if corpus.path is not None and corpus.planted is not None:
        raise ConfigError(f"{where}.corpus: give either path or planted, not both")
    return _build(ExperimentConfig, data, where, corpus_path=corpus.path,
                  planted=corpus.planted or PlantedCorpusSpec())


def load_config(path: str) -> ExperimentConfig:
    with utf8_errors(path), open(path, "r", encoding="utf-8") as fh:
        data = read_json(fh.read(), path)
    return config_from_dict(data, where=path)


def config_to_dict(config: ExperimentConfig) -> dict:
    out = dataclasses.asdict(config)
    path, planted = out.pop("corpus_path"), out.pop("planted")
    out["corpus"] = {"path": path} if path is not None else {"planted": planted}
    return out


def save_config(config: ExperimentConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")
