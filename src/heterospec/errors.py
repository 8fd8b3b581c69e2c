"""Exception types and the typed JSON reader shared across the package.

The CLI maps each class to a distinct exit code, so raise the most
specific one available. Every JSON file a step reads is parsed by
``read_json`` and built by ``_build`` from a dataclass, its schema.
"""

import dataclasses
import functools
import json
import math
import types
import typing
from contextlib import contextmanager


class HeteroSpecError(Exception):
    """Base class for all package errors."""


class ConfigError(HeteroSpecError):
    """Invalid configuration, hyperparameter, or input precondition."""


def check_setting(ok: bool, key: str, want: str, value) -> None:
    """Unless ``ok``, refuse the setting at JSON ``key``, naming its value."""
    if not ok:
        raise ConfigError(f"{key} must be {want}, got {value}")


def finite(value) -> bool:
    """Whether the number ``value`` is finite as a float; an int too large
    for one is not, so a check refuses it before float arithmetic on it
    raises OverflowError."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


class CalibrationError(HeteroSpecError):
    """Calibration produced no usable samples (carries diagnostic counts)."""


class BinsFileError(HeteroSpecError):
    """Malformed or inconsistent binning-model file."""


class OutputMismatchError(HeteroSpecError):
    """Paired decoding arms emitted different token sequences, or a decode's
    iteration records break an accounting invariant (``validate_run``).

    Both controllers are greedy-exact and account for every emitted token,
    so this always signals a decoding bug rather than bad luck.
    """


@contextmanager
def utf8_errors(path, error: type[HeteroSpecError] = ConfigError):
    """Turn a failure to decode ``path`` as UTF-8 into ``error`` naming it."""
    try:
        yield
    except UnicodeDecodeError:
        raise error(f"{path}: not UTF-8 text") from None


def _object(pairs: list) -> dict:
    """The object of ``pairs``, refusing a repeated key json would take."""
    data = dict(pairs)
    if len(data) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
    return data


def read_json(text: str, where: str):
    """The JSON value of ``text``; malformed JSON is refused as ``where``."""
    try:
        return json.loads(text, object_pairs_hook=_object)
    # a JSONDecodeError, a repeated key, an int past 4300 digits, deep nesting
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{where}: invalid JSON: {exc}") from None


_type_hints = functools.cache(typing.get_type_hints)  # evaluated once per class
# scalar field type -> (JSON value types it takes, name)
_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               str: ((str,), "a string")}


def _value(hint, value, where: str):
    """``value`` checked against the field type ``hint``: a dataclass is
    built from its own object, a list is taken only by a tuple, each item
    by the tuple's item type, and null only where the type takes None."""
    kinds = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
    if value is None and type(None) in kinds:
        return None
    kind = kinds[0]
    if dataclasses.is_dataclass(kind):
        return _build(kind, value, where)
    if typing.get_origin(kind) is tuple:  # tuple[scalar, ...]
        if type(value) not in (list, tuple):  # a tuple from config_to_dict
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        accepted, expected = _JSON_TYPES[typing.get_args(kind)[0]]
        for i, item in enumerate(value):  # type() is exact, as below
            if type(item) not in accepted:
                raise ConfigError(f"{where}[{i}]: expected {expected}, got {item!r}")
        return tuple(value)
    accepted, expected = _JSON_TYPES[kind]
    # type() is exact, so a bool is taken for neither an int nor a float
    if type(value) not in accepted:
        raise ConfigError(f"{where}: expected {expected}, got {value!r}")
    return value


def _build(cls, data, where: str, **fixed):
    """``cls`` built from the JSON object ``data`` by its field types; the
    ``fixed`` fields are given, and take no JSON key."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object")
    hints = _type_hints(cls)
    unknown = sorted(set(data) - set(hints).difference(fixed))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    given = {*data, *fixed}
    missing = [f.name for f in dataclasses.fields(cls) if f.name not in given
               and f.default is f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")
    return cls(**fixed, **{name: _value(hints[name], value, f"{where}.{name}")
                           for name, value in data.items()})
