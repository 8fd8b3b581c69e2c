"""Exception types shared across the package.

The CLI maps each class to a distinct exit code, so raise the most
specific one available.
"""

import math
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
