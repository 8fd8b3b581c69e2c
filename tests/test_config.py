"""Config schema, JSON round trips, and named RNG substreams."""
from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np
import pytest

from heterospec.config import (
    CONFIG_VERSION,
    CalibrationSpec,
    DraftSpec,
    ExperimentConfig,
    ModelSpec,
    PromptSpec,
    config_from_dict,
    config_to_dict,
    load_config,
    rng_for,
    save_config,
)
from heterospec.cli import main
from heterospec.errors import ConfigError

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_defaults():
    cfg = ExperimentConfig()
    assert cfg.version == CONFIG_VERSION == 1
    assert cfg.seed == 0
    assert cfg.tokenization == "word"
    assert cfg.corpus_path is None
    assert cfg.planted.num_docs == 96
    assert cfg.model == ModelSpec(order=3, smoothing=0.1)
    assert cfg.draft == DraftSpec(order=2, noise=0.01)
    assert cfg.prompts == PromptSpec(count=24, prompt_tokens=8,
                                     calibration_count=30)
    assert cfg.calibration.filter == "fully-accepted"
    assert cfg.controller.depth == 5
    assert cfg.cost.c_call == 1.0


def test_version_and_tokenization_validation():
    with pytest.raises(ConfigError, match="version"):
        ExperimentConfig(version=2)
    with pytest.raises(ConfigError, match="tokenization"):
        ExperimentConfig(tokenization="byte")


def test_calibration_spec_validation():
    with pytest.raises(ConfigError):
        CalibrationSpec(filter="some")


@pytest.mark.parametrize("data", [
    {"controller": {"expand_width": 2}},
    {"controller": {"entropy_k": 2}},
    {"calibration": {"criterion": "sse"}},
    {"calibration": {"max_depth": 3}},
    {"corpus": {"planted": {"pivots": 0}}},
    {"corpus": {"planted": {"num_templates": 1}}},
    {"draft": {"temperature": 1.0}},
], ids=["expand_width", "entropy_k", "criterion", "max_depth", "pivots",
        "num_templates", "temperature"])
def test_removed_settings_are_unknown_keys(data):
    # the tree shape, the split loss, the template shape and count and the
    # draft's temperature are fixed
    with pytest.raises(ConfigError, match="unknown keys"):
        config_from_dict(data)


def test_negative_seed_is_refused():
    # rng_for feeds the seed to SeedSequence, which takes no negative entropy
    for make in (lambda: ExperimentConfig(seed=-1),
                 lambda: config_from_dict({"seed": -1}),
                 lambda: dataclasses.replace(ExperimentConfig(), seed=-1)):
        with pytest.raises(ConfigError) as exc:
            make()
        assert str(exc.value) == "seed must be non-negative, got -1"


@pytest.mark.parametrize("cost,want", [
    ({"c_call": 0, "c_tok": 0, "c_draft": 0},
     "cost.c_call must be finite and > 0, got 0"),
    ({"c_call": 0.0}, "cost.c_call must be finite and > 0, got 0.0"),
    ({"c_call": -1}, "cost.c_call must be finite and > 0, got -1"),
    ({"c_tok": -0.05}, "cost.c_tok must be finite and >= 0, got -0.05"),
    ({"c_draft": -1e-9}, "cost.c_draft must be finite and >= 0, got -1e-09"),
    ({"c_call": math.inf}, "cost.c_call must be finite and > 0, got inf"),
    ({"c_tok": math.nan}, "cost.c_tok must be finite and >= 0, got nan"),
    ({"c_draft": -math.inf}, "cost.c_draft must be finite and >= 0, got -inf"),
], ids=["all-zero", "zero-call", "negative-call", "negative-tok",
        "negative-draft", "inf-call", "nan-tok", "minus-inf-draft"])
def test_costs_must_be_finite_and_non_negative_with_a_paid_call(cost, want):
    # a free call divides by zero in summarize; a negative one flips the
    # speedup's sign
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"cost": cost})
    assert str(exc.value) == want


def test_free_tokens_and_draft_layers_are_allowed():
    cfg = config_from_dict({"cost": {"c_call": 2, "c_tok": 0, "c_draft": 0}})
    assert (cfg.cost.c_call, cfg.cost.c_tok, cfg.cost.c_draft) == (2, 0, 0)


def test_rng_for_reproducible_independent_streams():
    a1 = rng_for(7, "corpus").random(5)
    a2 = rng_for(7, "corpus").random(5)
    b = rng_for(7, "verify").random(5)
    c = rng_for(8, "corpus").random(5)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def test_config_from_dict_minimal_and_sections():
    cfg = config_from_dict({})
    assert cfg == ExperimentConfig()
    cfg = config_from_dict({
        "seed": 5,
        "corpus": {"planted": {"num_docs": 60, "doc_len": 50,
                               "template_len": 8, "vocab_size": 12}},
        "controller": {"depth": 3, "low_bins": [0, 1]},
        "draft": {"order": None, "noise": 0.2},
    })
    assert cfg.seed == 5
    assert cfg.planted.num_docs == 60
    assert cfg.controller.low_bins == (0, 1)  # JSON list becomes tuple
    assert cfg.draft.order is None


def test_draft_order_within_model_order():
    # the draft base is the target's first draft.order count tables; an
    # order-1 draft has one state, so one entropy value to calibrate on
    for order in (0, 1, 4):
        with pytest.raises(ConfigError, match=r"draft\.order must be in \[2, "
                           rf"model\.order = 3\] \(null: model\.order\), got {order}$"):
            config_from_dict({"model": {"order": 3}, "draft": {"order": order}})
    # null takes model.order, which must then be 2 or more
    with pytest.raises(ConfigError, match=r"draft\.order must be in \[2, "
                       r"model\.order = 1\] \(null: model\.order\), got null$"):
        config_from_dict({"model": {"order": 1}, "draft": {"order": None}})
    assert config_from_dict({"draft": {"order": 2}}).draft.order == 2
    assert config_from_dict({"draft": {"order": 3}}).draft.order == 3
    assert config_from_dict({"model": {"order": 2},
                             "draft": {"order": None}}).draft.order is None


OUT_OF_RANGE = [
    ({"model": {"order": 0}}, "model.order must be >= 1, got 0"),
    ({"model": {"smoothing": 0}}, "model.smoothing must be finite and > 0, got 0"),
    ({"model": {"smoothing": -0.1}}, "model.smoothing must be finite and > 0, got -0.1"),
    ({"model": {"smoothing": math.inf}}, "model.smoothing must be finite and > 0, got inf"),
    ({"draft": {"noise": 1.5}}, "draft.noise must be in [0, 1), got 1.5"),
    ({"draft": {"noise": -0.01}}, "draft.noise must be in [0, 1), got -0.01"),
    ({"draft": {"noise": math.nan}}, "draft.noise must be in [0, 1), got nan"),
    # a uniform draft scores the same entropy in every iteration
    ({"draft": {"noise": 1}}, "draft.noise must be in [0, 1), got 1"),
    ({"prompts": {"count": 0}}, "prompts.count must be >= 1, got 0"),
    ({"prompts": {"prompt_tokens": 0}}, "prompts.prompt_tokens must be >= 1, got 0"),
    ({"prompts": {"calibration_count": -1}},
     "prompts.calibration_count must be >= 1, got -1"),
    ({"prompts": {"calibration_count": 0}},
     "prompts.calibration_count must be >= 1, got 0"),
    ({"corpus": {"planted": {"num_docs": 0}}},
     "corpus.planted.num_docs must be >= 1, got 0"),
    ({"corpus": {"planted": {"doc_len": 0}}},
     "corpus.planted.doc_len must be >= 1, got 0"),
    ({"corpus": {"planted": {"template_len": 28}}},
     "corpus.planted.template_len must be in [2, vocab_size = 27], got 28"),
    ({"corpus": {"planted": {"coverage": 2}}},
     "corpus.planted.coverage must be in [0, 1], got 2"),
    ({"corpus": {"planted": {"rho": 0.5}}},
     "corpus.planted.rho must be in (0.5, 1], got 0.5"),
    ({"corpus": {"planted": {"vocab_size": 1, "template_len": 2}}},
     "corpus.planted.vocab_size must be >= 2, got 1"),
    ({"controller": {"depth": 0}}, "controller.depth must be >= 1, got 0"),
    ({"controller": {"top_k": 0}}, "controller.top_k must be >= 1, got 0"),
    # a top-1 selection's entropy is always 0
    ({"controller": {"top_k": 1}},
     "controller.top_k must be >= 2 in an experiment, got 1"),
    ({"controller": {"top_n": 0}}, "controller.top_n must be >= 1, got 0"),
    ({"controller": {"max_new_tokens": 0}},
     "controller.max_new_tokens must be >= 1, got 0"),
    ({"controller": {"alpha": -1}}, "controller.alpha must be >= 0, got -1"),
    ({"controller": {"low_bins": [-1]}},
     "controller.low_bins must be >= 0, got (-1,)"),
    ({"controller": {"terminator": -1}},
     "controller.terminator must be a token id >= 0 or null, got -1"),
    ({"cost": {"c_call": 0}}, "cost.c_call must be finite and > 0, got 0"),
    ({"cost": {"c_tok": -1}}, "cost.c_tok must be finite and >= 0, got -1"),
    ({"cost": {"c_draft": -1}}, "cost.c_draft must be finite and >= 0, got -1"),
]


@pytest.mark.parametrize("data,want", OUT_OF_RANGE,
                         ids=[want.split(" must")[0] + "=" + want.split("got ")[1]
                              for _, want in OUT_OF_RANGE])
def test_out_of_range_settings_are_refused_on_build(data, want):
    # refused when the config is built, so no step snapshots them
    with pytest.raises(ConfigError) as exc:
        config_from_dict(data)
    assert str(exc.value) == want


def test_range_limits_are_allowed():
    # order 2 is the lowest with a draft: an order-2 draft has V states
    cfg = config_from_dict({"model": {"order": 2, "smoothing": 1e-12},
                            "draft": {"order": 2, "noise": 0.999},
                            "controller": {"top_k": 2},
                            "prompts": {"count": 1, "prompt_tokens": 1,
                                        "calibration_count": 1}})
    assert cfg.draft.noise == 0.999 and cfg.model.order == cfg.draft.order == 2
    assert cfg.controller.top_k == 2
    # a model alone may have order 1
    assert ModelSpec(order=1, smoothing=1e-12).order == 1


NON_INTEGERS = [
    ({"controller": {"depth": 2.5}}, "config.controller.depth", 2.5),
    ({"controller": {"top_n": 7.5}}, "config.controller.top_n", 7.5),
    ({"controller": {"max_new_tokens": 2.5}}, "config.controller.max_new_tokens", 2.5),
    ({"controller": {"alpha": True}}, "config.controller.alpha", True),
    ({"controller": {"terminator": "x"}}, "config.controller.terminator", "x"),
    ({"prompts": {"count": 2.5}}, "config.prompts.count", 2.5),
    ({"model": {"order": 2.5}}, "config.model.order", 2.5),
    ({"model": {"order": None}}, "config.model.order", None),
    ({"draft": {"order": "2"}}, "config.draft.order", "2"),
    ({"corpus": {"planted": {"num_docs": 24.0}}}, "config.corpus.planted.num_docs", 24.0),
    ({"seed": 1.0}, "config.seed", 1.0),
    # a JSON list is taken only by a tuple field, such as controller.low_bins
    ({"seed": [1]}, "config.seed", [1]),
    ({"controller": {"depth": [5]}}, "config.controller.depth", [5]),
]


@pytest.mark.parametrize("data,where,value", NON_INTEGERS,
                         ids=[where.split(".", 1)[-1] + ("-null" if value is None else
                                                         "-list" if type(value) is list
                                                         else "")
                              for _, where, value in NON_INTEGERS])
def test_integer_fields_reject_non_integers(data, where, value):
    with pytest.raises(ConfigError) as exc:
        config_from_dict(data)
    assert str(exc.value) == f"{where}: expected an integer, got {value!r}"


NON_NUMBERS_OR_STRINGS = [
    ({"model": {"smoothing": "x"}}, "config.model.smoothing", "a number", "x"),
    ({"cost": {"c_tok": True}}, "config.cost.c_tok", "a number", True),
    ({"draft": {"noise": None}}, "config.draft.noise", "a number", None),
    ({"corpus": {"planted": {"rho": "0.9"}}}, "config.corpus.planted.rho",
     "a number", "0.9"),
    ({"out_dir": 5}, "config.out_dir", "a string", 5),
    ({"tokenization": None}, "config.tokenization", "a string", None),
    ({"calibration": {"filter": 1}}, "config.calibration.filter", "a string", 1),
    ({"corpus": {"path": ["a.txt"]}}, "config.corpus.path", "a string", ["a.txt"]),
]


@pytest.mark.parametrize("data,where,expected,value", NON_NUMBERS_OR_STRINGS,
                         ids=[where.split(".", 1)[-1] + ("-null" if value is None else "")
                              for _, where, _, value in NON_NUMBERS_OR_STRINGS])
def test_float_and_string_fields_reject_other_values(data, where, expected, value):
    with pytest.raises(ConfigError) as exc:
        config_from_dict(data)
    assert str(exc.value) == f"{where}: expected {expected}, got {value!r}"


def test_float_fields_take_integers():
    cfg = config_from_dict({"model": {"smoothing": 1}, "cost": {"c_tok": 0}})
    assert cfg.model.smoothing == 1 and cfg.cost.c_tok == 0


def test_optional_integer_fields_take_null():
    cfg = config_from_dict({"controller": {"alpha": None, "terminator": None}})
    assert cfg.controller.alpha is None and cfg.controller.terminator is None


@pytest.mark.parametrize("low_bins,error", [
    ("01", "config.controller.low_bins: expected a list, got '01'"),
    ([-1], "controller.low_bins must be >= 0, got (-1,)"),
    ([1.0], "config.controller.low_bins[0]: expected an integer, got 1.0"),
    ([True], "config.controller.low_bins[0]: expected an integer, got True"),
    ([0, False], "config.controller.low_bins[1]: expected an integer, got False"),
    (5, "config.controller.low_bins: expected a list, got 5"),
    ([0, "1"], "config.controller.low_bins[1]: expected an integer, got '1'"),
], ids=["string", "negative", "float", "bool", "bool-after-int", "scalar", "mixed"])
def test_low_bins_must_be_non_negative_integers(low_bins, error):
    # each list item is read as an integer, so a bool is refused where JSON
    # reads it, before HeteroConfig's own check could see it
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"controller": {"low_bins": low_bins}})
    assert str(exc.value) == error


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match=r"unknown keys \['sneed'\]"):
        config_from_dict({"sneed": 1})
    with pytest.raises(ConfigError, match=r"config\.model: unknown keys"):
        config_from_dict({"model": {"order": 2, "window": 4}})
    with pytest.raises(ConfigError, match=r"corpus: unknown keys"):
        config_from_dict({"corpus": {"file": "x.txt"}})


@pytest.mark.parametrize("key,value", [("corpus_path", "corpus.txt"),
                                       ("planted", {"num_docs": 60})])
def test_corpus_fields_are_set_only_through_the_corpus_object(key, value):
    # corpus_path and planted are the config's fields for JSON's corpus
    # object, not top-level keys
    with pytest.raises(ConfigError) as exc:
        config_from_dict({key: value})
    assert str(exc.value) == f"config: unknown keys ['{key}']"


def test_config_from_dict_corpus_path_xor_planted():
    cfg = config_from_dict({"corpus": {"path": "corpus.txt"}})
    assert cfg.corpus_path == "corpus.txt"
    with pytest.raises(ConfigError, match="not both"):
        config_from_dict({"corpus": {"path": "corpus.txt",
                                     "planted": {"num_docs": 4}}})


def test_empty_corpus_path_is_refused():
    # an empty path is neither a file nor the planted corpus
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"corpus": {"path": ""}})
    assert str(exc.value) == "corpus.path must name a file, got ''"
    with pytest.raises(ConfigError, match="corpus.path must name a file"):
        ExperimentConfig(corpus_path="")


def test_planted_doc_len_must_hold_a_prompt(tmp_path, capsys):
    # every planted document has exactly doc_len tokens, so one shorter than
    # a prompt is refused before gen-corpus writes, not at calibrate
    want = "corpus.planted.doc_len must be >= prompts.prompt_tokens = 6, got 5"
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"corpus": {"planted": {"doc_len": 5}},
                          "prompts": {"prompt_tokens": 6}})
    assert str(exc.value) == want
    assert config_from_dict({"corpus": {"planted": {"doc_len": 6}},
                             "prompts": {"prompt_tokens": 6}}).planted.doc_len == 6
    # a corpus file's documents are measured when its prompts are taken
    assert config_from_dict({"corpus": {"path": "corpus.txt"},
                             "prompts": {"prompt_tokens": 500}}).planted.doc_len < 500
    _gen_corpus_refuses(tmp_path, capsys, {"corpus": {"planted": {"doc_len": 5}},
                                           "prompts": {"prompt_tokens": 6}}, want)


def _gen_corpus_refuses(tmp_path, capsys, data: dict, want: str) -> None:
    """gen-corpus refuses the config file ``data`` with ``want`` as one
    stderr line, before it makes the out dir."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "run"
    assert main(["gen-corpus", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"heterospec: config: {want}\n"
    assert not out.exists()


def test_planted_num_docs_must_leave_a_training_split(tmp_path, capsys):
    # the calibration and eval prompts come from the last documents, so a
    # planted corpus with no more documents than both is refused before
    # gen-corpus writes, not at train-model
    want = ("corpus.planted.num_docs must be > prompts.calibration_count "
            "+ prompts.count = 54, got 54")
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"corpus": {"planted": {"num_docs": 54}}})
    assert str(exc.value) == want
    assert config_from_dict({"corpus": {"planted": {"num_docs": 55}}}) \
        .planted.num_docs == 55
    assert config_from_dict({"corpus": {"planted": {"num_docs": 4}},
                             "prompts": {"count": 1, "calibration_count": 2}}) \
        .planted.num_docs == 4
    # a corpus file's documents are counted when it is split
    assert config_from_dict({"corpus": {"path": "corpus.txt"},
                             "prompts": {"count": 500}}).prompts.count == 500
    _gen_corpus_refuses(tmp_path, capsys, {"corpus": {"planted": {"num_docs": 54}}},
                        want)


def test_planted_corpus_refuses_char_tokens(tmp_path, capsys):
    # the planted generator writes words; a corpus file may be read as chars
    want = "planted corpora are word-tokenized; set tokenization to 'word'"
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"tokenization": "char"})
    assert str(exc.value) == want
    assert config_from_dict({"corpus": {"path": "corpus.txt"},
                             "tokenization": "char"}).tokenization == "char"
    _gen_corpus_refuses(tmp_path, capsys, {"tokenization": "char"}, want)


def test_config_from_dict_shape_errors():
    with pytest.raises(ConfigError, match="top level"):
        config_from_dict([1, 2])
    with pytest.raises(ConfigError, match="expected an object"):
        config_from_dict({"model": 3})
    with pytest.raises(ConfigError, match="corpus"):
        config_from_dict({"corpus": "corpus.txt"})


def test_config_json_round_trip(tmp_path):
    cfg = config_from_dict({
        "seed": 11,
        "out_dir": "runs/x",
        "controller": {"depth": 4, "top_n": 16, "low_bins": [0]},
        "calibration": {"filter": "accepting"},
        "cost": {"c_tok": 0.0},
    })
    path = str(tmp_path / "config.json")
    save_config(cfg, path)
    assert load_config(path) == cfg
    # a second dump of the reloaded config is byte-identical
    again = str(tmp_path / "config2.json")
    save_config(load_config(path), again)
    assert open(path).read() == open(again).read()
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_readme_config_block_is_the_default():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("\n## Configuration\n"):]
    start = section.index("```json\n") + len("```json\n")
    block = json.loads(section[start:section.index("```", start)])
    assert config_from_dict(block) == ExperimentConfig()
    assert _key_paths(block) == _key_paths(config_to_dict(ExperimentConfig()))


def _key_paths(data: dict, prefix: str = "") -> set[str]:
    out = set()
    for key, value in data.items():
        out.add(prefix + key)
        if isinstance(value, dict):
            out |= _key_paths(value, f"{prefix}{key}.")
    return out


def test_load_config_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(str(path))


@pytest.mark.parametrize("text,key", [
    ('{"seed": 1, "seed": 2}', "seed"),
    ('{"controller": {"depth": 5, "depth": 7}}', "depth"),
], ids=["top-level", "nested"])
def test_load_config_refuses_a_repeated_key(tmp_path, text, key):
    # json.loads keeps a repeated key's last value; the config refuses it
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        load_config(str(path))
    assert str(exc.value) == f"{path}: invalid JSON: repeated key {key!r}"


def test_load_config_missing_file_is_oserror(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_config(str(tmp_path / "absent.json"))
