"""Exception types shared across the package, and the readers and checks that raise them."""

import json
import math
import numbers
from pathlib import Path


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


def check_number(name, value, kind):
    """Raise ConfigurationError unless `value` is a `kind` (numbers.Integral or
    numbers.Real) and not a bool; a float must also be finite."""
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if kind is numbers.Integral else "a number"
        raise ConfigurationError(f"{name} must be {what}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value!r}")
