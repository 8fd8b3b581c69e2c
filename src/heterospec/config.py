"""Experiment configuration: JSON schema v1 plus named RNG substreams.

A config file is one JSON object; every section and key is optional and
falls back to the defaults below. Unknown keys are rejected so typos
fail fast. The corpus section takes either a text file path or a planted
generator spec, not both.
"""

from __future__ import annotations

import dataclasses
import json
import zlib
from dataclasses import dataclass, field

import numpy as np

from .binning import CALIBRATION_FILTERS, CRITERIA
from .control import HeteroConfig
from .corpus import PlantedCorpusSpec
from .errors import ConfigError
from .metrics import CostModel

CONFIG_VERSION = 1


def rng_for(seed: int, name: str) -> np.random.Generator:
    """Independent, reproducible substream keyed by (seed, purpose name)."""
    return np.random.default_rng(
        np.random.SeedSequence([seed, zlib.crc32(name.encode("utf-8"))]))


@dataclass(frozen=True)
class ModelSpec:
    order: int = 3
    smoothing: float = 0.1


@dataclass(frozen=True)
class DraftSpec:
    order: int | None = 2  # None: reuse the target model as the draft base
    temperature: float = 1.0
    noise: float = 0.01


@dataclass(frozen=True)
class PromptSpec:
    count: int = 24  # eval prompts, one per held-out doc
    prompt_tokens: int = 8
    calibration_count: int = 30


@dataclass(frozen=True)
class CalibrationSpec:
    criterion: str = "normalized"
    max_depth: int = 3
    # which iterations feed the fit: fully-accepted | accepting | all
    filter: str = "fully-accepted"

    def __post_init__(self):
        if self.criterion not in CRITERIA:
            raise ConfigError(f"unknown calibration criterion {self.criterion!r}")
        if self.max_depth < 1:
            raise ConfigError("calibration max_depth must be >= 1")
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
        if self.tokenization not in ("char", "word"):
            raise ConfigError(f"tokenization must be char or word, "
                              f"got {self.tokenization!r}")


def _build(cls, data, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - names)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def config_from_dict(data: dict, where: str = "config") -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: top level must be an object")
    known = {"version", "seed", "out_dir", "corpus", "tokenization", "model",
             "draft", "controller", "prompts", "calibration", "cost"}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")

    kwargs: dict = {}
    for key in ("version", "seed", "out_dir", "tokenization"):
        if key in data:
            kwargs[key] = data[key]

    corpus = data.get("corpus", {})
    if not isinstance(corpus, dict):
        raise ConfigError(f"{where}.corpus: expected an object")
    extra = sorted(set(corpus) - {"path", "planted"})
    if extra:
        raise ConfigError(f"{where}.corpus: unknown keys {extra}")
    if corpus.get("path") is not None and corpus.get("planted") is not None:
        raise ConfigError(f"{where}.corpus: give either path or planted, not both")
    if corpus.get("path") is not None:
        kwargs["corpus_path"] = corpus["path"]
    if corpus.get("planted") is not None:
        kwargs["planted"] = _build(PlantedCorpusSpec, corpus["planted"],
                                   f"{where}.corpus.planted")

    sections = (("model", ModelSpec), ("draft", DraftSpec),
                ("prompts", PromptSpec), ("calibration", CalibrationSpec),
                ("cost", CostModel))
    for key, cls in sections:
        if key in data:
            kwargs[key] = _build(cls, data[key], f"{where}.{key}")
    if "controller" in data:
        ctl = dict(data["controller"]) if isinstance(data["controller"], dict) \
            else data["controller"]
        if isinstance(ctl, dict) and isinstance(ctl.get("low_bins"), list):
            ctl["low_bins"] = tuple(ctl["low_bins"])
        kwargs["controller"] = _build(HeteroConfig, ctl, f"{where}.controller")
    return _build(ExperimentConfig, kwargs, where)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return config_from_dict(data, where=path)


def config_to_dict(config: ExperimentConfig) -> dict:
    out = dataclasses.asdict(config)
    path, planted = out.pop("corpus_path"), out.pop("planted")
    out["corpus"] = {"path": path} if path else {"planted": planted}
    return out


def save_config(config: ExperimentConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")
