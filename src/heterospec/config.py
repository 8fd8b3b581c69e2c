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

from .binning import CALIBRATION_FILTERS
from .control import HeteroConfig
from .corpus import PlantedCorpusSpec
from .errors import ConfigError, check_setting, utf8_errors
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
    order: int | None = 2  # in [1, model.order]; None: the target itself
    noise: float = 0.01

    def __post_init__(self):
        check_setting(0 <= self.noise <= 1,  # false for NaN
                      "draft.noise", "in [0, 1]", self.noise)


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
        if self.corpus_path is None:  # every planted document has doc_len tokens
            tokens = self.prompts.prompt_tokens
            check_setting(self.planted.doc_len >= tokens, "corpus.planted.doc_len",
                          f">= prompts.prompt_tokens = {tokens}",
                          self.planted.doc_len)
        order = self.draft.order
        check_setting(order is None or 1 <= order <= self.model.order,
                      "draft.order", f"in [1, model.order = {self.model.order}]",
                      order)


# annotation -> (JSON value types it takes, name); others are checked on build
_JSON_TYPES = {"int": ((int,), "an integer"), "float": ((int, float), "a number"),
               "str": ((str,), "a string")}


def _build(cls, data, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object")
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(types))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    for name, value in data.items():
        kind, _, optional = types[name].partition(" | ")  # "X | None" or "X"
        accepted, expected = _JSON_TYPES.get(kind, ((type(value),), ""))
        # type() is exact, so a bool is taken for neither an int nor a float
        if type(value) not in accepted and not (value is None and optional):
            raise ConfigError(f"{where}.{name}: expected {expected}, got {value!r}")
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

    kwargs = {key: data[key] for key in ("version", "seed", "out_dir", "tokenization")
              if key in data}

    corpus = data.get("corpus", {})
    if not isinstance(corpus, dict):
        raise ConfigError(f"{where}.corpus: expected an object")
    extra = sorted(set(corpus) - {"path", "planted"})
    if extra:
        raise ConfigError(f"{where}.corpus: unknown keys {extra}")
    path = corpus.get("path")
    if path is not None and corpus.get("planted") is not None:
        raise ConfigError(f"{where}.corpus: give either path or planted, not both")
    if path is not None:
        if type(path) is not str:
            raise ConfigError(f"{where}.corpus.path: expected a string, got {path!r}")
        kwargs["corpus_path"] = path
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
        with utf8_errors(path), open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
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
