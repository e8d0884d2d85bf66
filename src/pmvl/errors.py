"""Exception types shared across the package, and the readers and checks that raise them."""

import json
import math
import numbers
from pathlib import Path
from typing import get_type_hints


class PmvlError(Exception):
    """Base class for all package errors."""


class DimensionError(PmvlError):
    """Array shapes disagree with the declared layer or view dimensions."""


class ConfigurationError(PmvlError):
    """A configuration value is out of its legal range or infeasible."""


class IngestionError(PmvlError):
    """A data file could not be parsed; the message carries file and line."""


class SplitError(PmvlError):
    """A dataset cannot be split as requested (e.g. a class with <2 samples)."""


class TrainingError(PmvlError):
    """Training hit an invalid state (divergence, empty class, ...)."""


class InputError(PmvlError):
    """A runtime input violates an operation's precondition."""


class WorkerError(PmvlError):
    """A worker process ended without returning the results of its runs."""


def read_json_object(path, error):
    """Parse a JSON file that must hold an object; anything else raises `error` naming it."""
    try:
        value = json.loads(Path(path).read_text())
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise error(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(value, dict):
        raise error(f"{path}: expected a JSON object, got {type(value).__name__}")
    return value


def check_number(name, value, kind, positive=False):
    """Raise ConfigurationError unless `value` is a `kind` (numbers.Integral or numbers.Real),
    not a bool, finite and >= 0, or > 0 (>= 1 for an integer) when `positive`. The message
    reads "NAME must be an integer|a number|finite|>= 0|> 0|>= 1, got VALUE"."""
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if kind is numbers.Integral else "a number"
        raise ConfigurationError(f"{name} must be {what}, got {value!r}")
    if not isinstance(value, numbers.Integral) and not math.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value!r}")
    if value < 0 or (positive and value == 0):
        bound = (">= 1" if kind is numbers.Integral else "> 0") if positive else ">= 0"
        raise ConfigurationError(f"{name} must be {bound}, got {value}")


_KINDS = {int: numbers.Integral, float: numbers.Real,
          int | None: numbers.Integral, float | None: numbers.Real}


def check_fields(obj, positive=()):
    """check_number on each field of dataclass `obj` hinted `int` or `float`, or None
    where hinted `int | None` or `float | None`; those named in `positive` must be > 0."""
    for name, hint in get_type_hints(type(obj)).items():
        value = getattr(obj, name)
        kind = _KINDS.get(hint)
        if kind is not None and (value is not None or hint in (int, float)):
            check_number(name, value, kind, name in positive)
