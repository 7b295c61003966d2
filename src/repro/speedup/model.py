"""Saturating speedup-curve primitives.

The paper's Fig. 1 shows per-operation speedup that rises steeply for the
first few SMs and then flattens.  We model each curve with the classic
*serial-fraction* (linear-overhead) law

    speedup(s) = s / (1 + sigma * (s - 1))

which satisfies speedup(1) = 1, is strictly increasing and concave, and
saturates toward ``1/sigma``.  ``sigma`` is calibrated per operation type so
the curve passes through the paper's measured value at 68 SMs
(:func:`sigma_for_target`).  This is the simulator's only curve family.

A second effect limits parallelism per *instance*: a kernel whose output has
few elements cannot occupy many SMs regardless of the operation type.
:class:`WidthLimitedCurve` clamps the SM count fed to an underlying curve.
A stage's useful width (the SM count beyond which extra SMs buy little) is
derived from its whole operator sequence, by
:meth:`repro.speedup.composite.CompositeWorkload.width_demand`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol


class SpeedupCurve(Protocol):
    """Anything mapping an SM count to a speedup factor.

    Implementations must satisfy ``speedup(1) == 1`` (within float error)
    and be non-decreasing in ``sms``.
    """

    def speedup(self, sms: float) -> float:
        """Speedup at ``sms`` streaming multiprocessors (may be fractional)."""
        ...


def sigma_for_target(target_speedup: float, at_sms: float) -> float:
    """Serial fraction that makes the curve hit ``target_speedup`` at ``at_sms``.

    Solves ``at_sms / (1 + sigma*(at_sms-1)) == target_speedup``.

    Raises
    ------
    ValueError
        If the target is infeasible (< 1 or > at_sms).
    """
    if at_sms <= 1:
        raise ValueError(f"at_sms must exceed 1, got {at_sms}")
    if not 1.0 <= target_speedup <= at_sms:
        raise ValueError(
            f"target speedup {target_speedup} infeasible at {at_sms} SMs "
            f"(must lie in [1, {at_sms}])"
        )
    return (at_sms / target_speedup - 1.0) / (at_sms - 1.0)


@dataclass(frozen=True)
class SaturatingCurve:
    """Serial-fraction speedup law ``s / (1 + sigma*(s-1))``.

    Attributes
    ----------
    sigma:
        Serial fraction in [0, 1].  0 is perfect linear speedup; the curve
        saturates toward ``1/sigma``.
    """

    sigma: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.sigma <= 1.0:
            raise ValueError(f"sigma must be in [0, 1], got {self.sigma}")

    def speedup(self, sms: float) -> float:
        """Speedup at a (possibly fractional) SM count."""
        if sms <= 0.0:
            return 0.0
        if sms <= 1.0:
            # Sub-SM shares degrade linearly: half an SM does half the work.
            return sms
        return sms / (1.0 + self.sigma * (sms - 1.0))


@dataclass(frozen=True)
class WidthLimitedCurve:
    """Clamp the SM count fed to an inner curve at a parallel-width limit.

    Models grid-size-limited kernels: an operator with W parallel work units
    gains nothing beyond ``width`` SMs.
    """

    inner: SaturatingCurve
    width: float

    def __post_init__(self) -> None:
        if self.width < 1.0:
            raise ValueError(f"width must be >= 1, got {self.width}")

    def speedup(self, sms: float) -> float:
        """Speedup with the SM count clamped at the width limit."""
        return self.inner.speedup(min(sms, self.width))
