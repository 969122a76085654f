"""Fixed-point simulated time.

All simulated durations and instants are integer nanosecond ticks so that
time accounting is exact and runs replay byte-identically on any platform.
Floating point appears only at the reporting boundary.
"""

from decimal import Decimal, InvalidOperation

from .errors import ConfigurationError

TICKS_PER_SECOND = 1_000_000_000
TICKS_PER_US = 1_000

Ticks = int


def ticks_from_seconds(value) -> Ticks:
    """Convert a decimal second count (str, int, float, Decimal) to ticks.

    Values finer than one nanosecond are rejected rather than rounded.
    """
    return _scale(value, TICKS_PER_SECOND, "seconds")


def ticks_from_us(value) -> Ticks:
    return _scale(value, TICKS_PER_US, "microseconds")


def ticks_from_ns(value) -> Ticks:
    return _scale(value, 1, "nanoseconds")


def seconds_from_ticks(ticks: Ticks) -> float:
    return ticks / TICKS_PER_SECOND


def _scale(value, unit: int, unit_name: str) -> Ticks:
    try:
        if isinstance(value, float):
            dec = Decimal(repr(value))
        else:
            dec = Decimal(value)
    except (InvalidOperation, TypeError, ValueError):
        raise ConfigurationError(f"not a number: {value!r}") from None
    if not dec.is_finite():
        raise ConfigurationError(f"not a finite number: {value!r}")
    scaled = dec * unit
    if scaled != scaled.to_integral_value():
        raise ConfigurationError(
            f"{value!r} {unit_name} is finer than the 1 ns tick resolution"
        )
    return int(scaled)
