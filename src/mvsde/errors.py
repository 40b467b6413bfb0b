"""Exception types shared across the package, and the JSON input checks.

Model and experiment files are read through the ``check_*`` validators
below: each returns the value it checked and raises :class:`ConfigError` at
the value's JSON pointer otherwise, so every file the package reads fails
the same way on the same kind of bad input.
"""

import math


class MvsdeError(Exception):
    """Base class for all package-specific errors."""


class DomainError(MvsdeError, ValueError):
    """An argument is outside the documented domain of an operation."""


class NumericsError(MvsdeError, ArithmeticError):
    """A numeric evaluation produced non-finite or otherwise invalid values."""


class SizeError(MvsdeError):
    """A problem instance exceeds a documented solver budget."""


class QuadratureError(MvsdeError):
    """A quadrature failed its accuracy or mass-coverage check."""


class AuditError(MvsdeError):
    """A model violated its declared constants; the message carries the witness."""


class ConvergenceError(MvsdeError):
    """An iteration failed to contract or converge.

    ``history`` is the per-sweep distance (or residual) series of the loop
    that gave up, in sweep order, its last sweep included.
    """

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class ConfigError(MvsdeError, ValueError):
    """Invalid model or experiment configuration.

    ``pointer`` is a JSON pointer to the offending field, e.g. ``/model``.
    """

    def __init__(self, message, pointer=""):
        super().__init__(f"{pointer}: {message}" if pointer else message)
        self.pointer = pointer


def check_number(value, pointer, above: float | None = None) -> float:
    """``value`` as a float if it is a finite JSON number (not a boolean),
    greater than ``above`` unless that is None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {value!r}", pointer)
    if above is not None and value <= above:
        raise ConfigError(f"must be a number > {above}, got {value!r}", pointer)
    return float(value)


def check_integer(value, pointer, lo: int, hi: int | None = None) -> int:
    """``value`` if it is a JSON integer in [lo, hi) (no upper bound if ``hi`` is None)."""
    if (isinstance(value, bool) or not isinstance(value, int) or value < lo
            or (hi is not None and value >= hi)):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi})"
        raise ConfigError(f"must be an integer {bound}, got {value!r}", pointer)
    return value


def check_bool(value, pointer) -> bool:
    """``value`` if it is a JSON boolean."""
    if not isinstance(value, bool):
        raise ConfigError(f"expected true or false, got {value!r}", pointer)
    return value


def check_string(value, pointer) -> str:
    """``value`` if it is a JSON string."""
    if not isinstance(value, str):
        raise ConfigError(f"expected a string, got {value!r}", pointer)
    return value


def check_list(value, pointer) -> list:
    """``value`` if it is a JSON list."""
    if not isinstance(value, list):
        raise ConfigError(f"expected a JSON list, got {value!r}", pointer)
    return value


def check_object(value, pointer, required=(), optional=()) -> dict:
    """``value`` if it is a JSON object with every ``required`` key and no key
    outside ``required`` and ``optional``; an unknown key fails at its own pointer."""
    if not isinstance(value, dict):
        raise ConfigError(f"expected a JSON object, got {value!r}", pointer)
    allowed = required + optional
    for key in value:
        if key not in allowed:
            raise ConfigError(f"unknown key; expected one of {allowed}", f"{pointer}/{key}")
    for key in required:
        if key not in value:
            raise ConfigError("missing required key", f"{pointer}/{key}")
    return value


def check_tagged(value, pointer, tag: str, variants: dict) -> str:
    """The ``tag`` value of an object whose other keys are checked against
    ``variants[tag value]``, a (required, optional) pair of key tuples."""
    if not isinstance(value, dict) or tag not in value:
        raise ConfigError(f"expected a JSON object with a {tag!r} key, got {value!r}", pointer)
    name = value[tag]
    if not isinstance(name, str) or name not in variants:
        raise ConfigError(f"unknown {tag} {name!r}; expected one of {tuple(variants)}",
                          f"{pointer}/{tag}")
    required, optional = variants[name]
    check_object(value, pointer, (tag,) + required, optional)
    return name
