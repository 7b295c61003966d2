"""The stochastic arrival processes: periodic, Poisson, MMPP, diurnal.

All processes anchor their first arrival at ``task.release_offset`` and
interpret the task's period as the *mean* inter-arrival time at nominal
load (rate ``1/period``), so a process swap changes the arrival law but
not the long-run demand — the knob the open-system sweeps actually want
to turn is burstiness, not throughput.

Determinism: every draw comes from a private ``random.Random`` seeded
with the per-task arrival seed, so streams are reproducible and
independent across tasks (see :mod:`repro.workloads.arrivals.base`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.core.task import TaskSpec
from repro.workloads.arrivals.base import ArrivalProcess


def _require_finite_positive(process: ArrivalProcess, *names: str) -> None:
    """Raise a ``ValueError`` naming the first field that is not a finite,
    positive number (an infinite rate never lets the clock advance, and a
    NaN one silently releases almost nothing)."""
    for name in names:
        value = getattr(process, name)
        if not (math.isfinite(value) and value > 0):
            raise ValueError(
                f"{name} must be finite and positive, got {value}"
            )


class PeriodicArrivals(ArrivalProcess):
    """The closed-system adapter: strictly periodic releases.

    Reproduces the scheduler's historical release loop **bit for bit**:
    the first arrival is ``task.release_offset`` and every later arrival
    is the previous one plus ``task.period`` — the same repeated float
    addition the legacy ``_release_job`` performed with ``now +
    task.period``, so traces are identical to the pre-arrivals code
    (pinned by ``tests/gpu/test_trace_equivalence.py``).
    """

    name = "periodic"

    def stream(self, task: TaskSpec, seed: int) -> Iterator[float]:
        def generate() -> Iterator[float]:
            when = task.release_offset
            while True:
                yield when
                when = when + task.period

        return generate()

    def describe(self) -> str:
        return "strictly periodic releases (the closed-system default)"


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals: i.i.d. exponential inter-arrival gaps.

    ``rate_scale`` multiplies the nominal rate ``1/period`` (2.0 doubles
    the average demand, 0.5 halves it), so overload studies can push an
    open queue past capacity without touching the taskset.
    """

    rate_scale: float = 1.0

    name = "poisson"

    def __post_init__(self) -> None:
        _require_finite_positive(self, "rate_scale")

    def stream(self, task: TaskSpec, seed: int) -> Iterator[float]:
        rate = self.rate_scale / task.period

        def generate() -> Iterator[float]:
            rng = random.Random(seed)
            when = task.release_offset
            while True:
                yield when
                when += rng.expovariate(rate)

        return generate()

    def describe(self) -> str:
        return (
            f"Poisson arrivals at {self.rate_scale:g}x the task's nominal "
            f"rate"
        )


@dataclass(frozen=True)
class MmppArrivals(ArrivalProcess):
    """Two-state Markov-modulated Poisson process (bursty arrivals).

    The process alternates between a *calm* and a *burst* state; in each
    state arrivals are Poisson at ``calm/period`` resp. ``burst/period``,
    and state sojourn times are exponential with mean
    ``sojourn_periods * period``.  With the defaults the time-average
    rate exceeds the nominal periodic demand during bursts by 4x — the
    classic bursty-overload regime an admission controller exists for.

    Parameters
    ----------
    burst / calm:
        Rate multipliers of the two states (relative to ``1/period``).
    sojourn_periods:
        Mean state-dwell time in units of the task period.
    """

    burst: float = 4.0
    calm: float = 0.25
    sojourn_periods: float = 8.0

    name = "mmpp"

    def __post_init__(self) -> None:
        _require_finite_positive(self, "burst", "calm", "sojourn_periods")

    def stream(self, task: TaskSpec, seed: int) -> Iterator[float]:
        rates = (self.calm / task.period, self.burst / task.period)
        mean_sojourn = self.sojourn_periods * task.period

        def generate() -> Iterator[float]:
            rng = random.Random(seed)
            state = rng.randrange(2)
            when = task.release_offset
            switch = when + rng.expovariate(1.0 / mean_sojourn)
            while True:
                yield when
                gap = rng.expovariate(rates[state])
                # Exponential gaps are memoryless, so a draw that crosses
                # the state boundary is discarded and redrawn from the
                # switch instant at the new state's rate.
                while when + gap > switch:
                    when = switch
                    state = 1 - state
                    switch = when + rng.expovariate(1.0 / mean_sojourn)
                    gap = rng.expovariate(rates[state])
                when += gap

        return generate()

    def describe(self) -> str:
        return (
            f"two-state MMPP: calm {self.calm:g}x / burst {self.burst:g}x "
            f"nominal rate, mean sojourn {self.sojourn_periods:g} periods"
        )


@dataclass(frozen=True)
class DiurnalArrivals(ArrivalProcess):
    """Piecewise-constant diurnal rate curve (repeating "day").

    A non-homogeneous Poisson process whose rate multiplier follows a
    four-phase day of length ``day`` seconds: trough, ramp, peak, ramp —
    the compressed shape of a real diurnal load curve.  Because segments
    are piecewise constant, arrivals are generated exactly (per-segment
    exponential gaps, redrawn at segment boundaries by memorylessness)
    rather than by thinning.

    Parameters
    ----------
    day:
        Length of one repeating cycle in simulated seconds (simulations
        here run seconds, not hours, so the default compresses a day
        into 2 s).
    trough / peak:
        Rate multipliers at the quietest and busiest phases; the two
        ramp phases run at their midpoint.
    """

    day: float = 2.0
    trough: float = 0.25
    peak: float = 3.0

    name = "diurnal"

    def __post_init__(self) -> None:
        _require_finite_positive(self, "day", "trough", "peak")

    def phases(self) -> Tuple[Tuple[float, float], ...]:
        """``(phase start as a day fraction, rate multiplier)`` segments."""
        mid = 0.5 * (self.trough + self.peak)
        return ((0.0, self.trough), (0.25, mid), (0.5, self.peak), (0.75, mid))

    def _rate_at(self, when: float, base_rate: float) -> Tuple[float, float]:
        """Rate in effect at ``when`` and the absolute next boundary."""
        phases = self.phases()
        day_index, position = divmod(when, self.day)
        fraction = position / self.day
        current = phases[-1]
        boundary = (day_index + 1) * self.day
        for start, multiplier in phases:
            if fraction >= start:
                current = (start, multiplier)
            else:
                boundary = day_index * self.day + start * self.day
                break
        return current[1] * base_rate, boundary

    def stream(self, task: TaskSpec, seed: int) -> Iterator[float]:
        base_rate = 1.0 / task.period

        def generate() -> Iterator[float]:
            rng = random.Random(seed)
            when = task.release_offset
            while True:
                yield when
                rate, boundary = self._rate_at(when, base_rate)
                gap = rng.expovariate(rate)
                while when + gap > boundary:
                    when = boundary
                    rate, boundary = self._rate_at(when, base_rate)
                    gap = rng.expovariate(rate)
                when += gap

        return generate()

    def describe(self) -> str:
        return (
            f"diurnal load curve: {self.trough:g}x..{self.peak:g}x nominal "
            f"rate over a {self.day:g}s day"
        )
