"""Exception types shared across the package, and the converters of its scalar
parameters."""

import math
import numbers
from contextlib import suppress

import numpy as np


class SghmcError(Exception):
    """Base class for all package errors."""


class EvaluationError(SghmcError):
    """A loss or gradient evaluation produced a non-finite value.

    Carries the index of the offending dataset sample when known.
    """

    def __init__(self, message, sample_index=None):
        super().__init__(message)
        self.sample_index = sample_index


class ConfigurationError(SghmcError):
    """Invalid configuration: empty dataset, bad batch size, bad p/q pairing, ..."""


class DivergenceError(SghmcError):
    """A chain produced a non-finite coordinate. Carries the step index."""

    def __init__(self, message, step):
        super().__init__(message)
        self.step = step


class CertificationError(SghmcError):
    """A numerical certification loop failed. Carries the witnessing point."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NumericalError(SghmcError):
    """A numerical procedure (fixed point, quadrature) left its validity range."""


# The scalar converters: every public entry point reads its numeric parameters,
# and the config loader each numeric key, through these.

def _convert(value, name, rule, ok, integral=False):
    """``value`` as an int (``integral``) or a float, if it is a number for
    which ``ok`` holds: a Python or numpy number, or a string that spells one,
    as a config file may ("inf", "8"); an integral float converts to an int.
    A boolean, any other value, NaN, a fraction where an integer is wanted and
    a value out of range are a ConfigurationError naming the parameter."""
    x = math.nan  # fails every ok
    if not isinstance(value, (bool, np.bool_)):
        with suppress(TypeError, ValueError, OverflowError):
            number = value if isinstance(value, numbers.Integral) else float(value)
            x = int(number) if integral and number == int(number) else float(number)
    if not ok(x) or (integral and not isinstance(x, int)):
        raise ConfigurationError(f"{name} must be {rule}, got {value!r}")
    return x


def count(value, name: str, least: int = 1) -> int:
    """A count (a size, a number of steps or draws): an integer >= ``least``."""
    return _convert(value, name, f"an integer >= {least}", lambda x: x >= least, integral=True)


def index(value, name: str) -> int:
    """An index or a seed: an integer >= 0."""
    return _convert(value, name, ">= 0 and an integer", lambda x: x >= 0, integral=True)


def positive(value, name: str) -> float:
    """A positive finite real."""
    return _convert(value, name, "positive and finite", lambda x: 0 < x < math.inf)


def nonnegative(value, name: str) -> float:
    """A non-negative finite real."""
    return real(value, name, 0)


def real(value, name: str, least: float = -math.inf) -> float:
    """A finite real >= ``least``."""
    rule = "finite" if least == -math.inf else f"finite and >= {least:g}"
    return _convert(value, name, rule, lambda x: least <= x < math.inf)


def number(value, name: str) -> float:
    """A real number, infinite ones included (beta, and the orders a theory rule checks)."""
    return _convert(value, name, "a number", lambda x: x == x)
