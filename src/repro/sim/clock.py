"""Time handling helpers for the discrete-event engine.

Simulated time is a ``float`` measured in **seconds**.  Rate-based progress
updates (see :mod:`repro.gpu.device`) repeatedly add small increments, so the
engine and its clients must never compare simulated times with ``==``.  The
helpers here centralise the tolerance used across the code base.
"""

from __future__ import annotations

#: Absolute tolerance for comparing simulated timestamps, in seconds.
#: One nanosecond of simulated time is far below any modelled latency
#: (kernel runtimes are in the 10us..10ms range) yet far above accumulated
#: float64 rounding error for the simulation horizons used here (< 1e3 s).
TIME_EPS: float = 1e-9


def times_close(a: float, b: float, eps: float = TIME_EPS) -> bool:
    """Return ``True`` when two simulated timestamps are indistinguishable."""
    return abs(a - b) <= eps


def is_before(a: float, b: float, eps: float = TIME_EPS) -> bool:
    """Return ``True`` when time ``a`` is strictly before ``b``.

    Timestamps closer than ``eps`` are treated as simultaneous.
    """
    return a < b - eps


def validate_time(value: float, name: str = "time") -> float:
    """Validate that ``value`` is a finite, non-negative timestamp and
    return it as a ``float``.

    Raises
    ------
    TypeError
        If ``value`` is not an ``int`` or ``float``, or is a ``bool``
        (which subclasses ``int`` but is no time).
    ValueError
        If ``value`` is negative, NaN, or infinite.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    value = float(value)
    if value != value:  # NaN check without importing math
        raise ValueError(f"{name} must not be NaN")
    if value in (float("inf"), float("-inf")):
        raise ValueError(f"{name} must be finite")
    if value < 0.0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value
