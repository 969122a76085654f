"""Exception hierarchy shared by all simulator modules, and the bounds that raise it.

A bound maps a field's value to the reason it is rejected, or None. A spec names its
fields' bounds in ``bounds``; the config checks them key by key, `spec` when built.
"""

import math
from dataclasses import dataclass
from typing import Optional


class SimulatorError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(SimulatorError):
    """Invalid parameter, inconsistent setup, or bad scenario configuration."""


class AddressError(SimulatorError):
    """Guest-physical address or range outside machine memory."""


class ConfigFileError(ConfigurationError):
    """Scenario config file failed validation.

    Carries the full list of (key, reason) pairs so callers can report
    every problem at once instead of one per invocation.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        lines = "; ".join(f"{key}: {reason}" for key, reason in self.problems)
        super().__init__(f"invalid config ({len(self.problems)} problem(s)): {lines}")


class ReportMismatchError(SimulatorError):
    """Two reports cannot be compared (different config digests)."""


def nonneg(value) -> Optional[str]:
    return None if value >= 0 else "must be >= 0"


def positive(value) -> Optional[str]:
    return None if value > 0 else "must be > 0"


def finite(bound):
    """`bound`, for a value that is neither infinite nor NaN."""
    return lambda value: bound(value) if -math.inf < value < math.inf else "must be finite"


def whole(bound):
    """`bound`, for a value that is a whole number of ticks."""
    return lambda value: bound(value) if value % 1 == 0 else "must be a whole number of ticks"


def byte(value) -> Optional[str]:
    return None if 0 <= value <= 0xFF else "must be a byte"


def one_of(*choices: str):
    return lambda value: None if value in choices else f"must be one of {', '.join(choices)}"


def require(name: str, problem: Optional[str]) -> None:
    """Raise ConfigurationError naming `name` if there is a `problem`."""
    if problem is not None:
        raise ConfigurationError(f"{name}: {problem}")


def check_bounds(spec) -> None:
    """Raise ConfigurationError for the first field of `spec` that its bound rejects."""
    for name, bound in spec.bounds.items():
        require(name, bound(getattr(spec, name)))


def spec(**bounds):
    """Make a class a frozen dataclass with `bounds` that its constructor checks: by
    `check_bounds`, or by its own ``__post_init__``, which calls that first."""
    def make(cls):
        cls.bounds = bounds
        if not hasattr(cls, "__post_init__"):
            cls.__post_init__ = check_bounds
        return dataclass(frozen=True)(cls)

    return make
