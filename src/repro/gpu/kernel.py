"""Stage kernels: the unit of execution on the simulated GPU.

One :class:`StageKernel` represents one stage instance of one job — a
back-to-back sequence of operator launches aggregated into a single
rate-based work item (the allocation model is in
:mod:`repro.gpu.allocator`).  Its progress rate at an SM share is given by
the stage's composite speedup curve.

A kernel optionally carries *setup time*: serial wall-clock latency paid
before useful work starts.  SGPRS' pre-created context pool makes this zero;
the naive baseline pays partition-reconfiguration setup on task switches.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Optional

from repro.speedup.model import SpeedupCurve


class PriorityLevel(enum.IntEnum):
    """Scheduler priority levels (Section IV-B3).

    Ordering matters: higher value = more urgent.  LOW stages whose
    predecessor missed its virtual deadline are *promoted* to MEDIUM; the
    final stage of every task is HIGH.
    """

    LOW = 0
    MEDIUM = 1
    HIGH = 2

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name.lower()


#: SM-share weights per priority level, used by the intra-context allocator.
#: HIGH stages receive twice the share of LOW stages, mirroring the larger
#: scheduling slice high-priority CUDA streams obtain from the hardware
#: work distributor.
PRIORITY_WEIGHTS = {
    PriorityLevel.LOW: 1.0,
    PriorityLevel.MEDIUM: 1.5,
    PriorityLevel.HIGH: 2.0,
}

#: Each level's name, indexed by level: the ``Enum.name`` descriptor runs
#: Python code on every read, a tuple index does not.
PRIORITY_NAMES = tuple(level.name for level in sorted(PriorityLevel))

_KERNEL_IDS = itertools.count()


class StageKernel:
    """One resident (or queued) stage execution.

    Parameters
    ----------
    label:
        Human-readable identifier, e.g. ``"task3/job12/stage4"``.
    curve:
        Composite speedup curve mapping an SM share to a progress rate.
    work:
        Total parallelisable work in single-SM seconds.
    width_demand:
        SM count beyond which additional allocation is mostly wasted;
        the allocator never grants more than this.
    deadline:
        Absolute (virtual) deadline used for EDF ordering.
    priority:
        Scheduler priority level.
    setup_time:
        Serial reconfiguration latency consumed at rate 1 before work
        starts (0 for SGPRS' zero-configuration pool).
    payload:
        Opaque reference back to the scheduler's stage instance; the
        scheduler clears it once the stage completes or is shed.
    """

    def __init__(
        self,
        label: str,
        curve: SpeedupCurve,
        work: float,
        width_demand: float,
        deadline: float,
        priority: PriorityLevel = PriorityLevel.LOW,
        setup_time: float = 0.0,
        payload: Any = None,
    ) -> None:
        if work <= 0:
            raise ValueError(f"kernel {label!r}: work must be positive, got {work}")
        if width_demand < 1.0:
            raise ValueError(
                f"kernel {label!r}: width_demand must be >= 1, got {width_demand}"
            )
        if setup_time < 0:
            raise ValueError(f"kernel {label!r}: setup_time must be >= 0")
        self.kernel_id = next(_KERNEL_IDS)
        self.label = label
        self.curve = curve
        self.work_total = work
        #: Parallelisable work left, in single-SM seconds.
        self.work_remaining = work
        #: Serial setup seconds left (burn at rate 1 before work starts).
        self.setup_remaining = setup_time
        self.width_demand = width_demand
        self.deadline = deadline
        self.priority = priority
        #: Intra-context share weight of the priority level; a kernel's
        #: priority never changes after construction.
        self.weight = PRIORITY_WEIGHTS[priority]
        self.payload = payload
        # Execution state, managed by the device/context/allocator:
        #: Effective SM share published by the last allocation pass.
        self.share: float = 0.0
        #: Progress rate (single-SM seconds per wall second).
        self.rate: float = 0.0
        #: Revision counter the allocator bumps on the kernel's first
        #: allocation pass and whenever the published ``rate`` actually
        #: changes; it lists those kernels in ``AllocationResult.changed``.
        #: The device re-anchors a kernel's completion only then: at a
        #: constant rate the completion time fixed when the rate was last
        #: set stays exact.
        self.rate_rev: int = 0
        #: The share ``curve.speedup`` was last queried at (NaN: never)
        #: and its value.  The allocator queries again only when the share
        #: moved; a curve is a pure function of the share, so this is exact.
        #: Composite curves memoise their speedups themselves, so this
        #: skips a memo lookup per resident kernel and pass, not a curve
        #: evaluation.
        self.curve_share: float = float("nan")
        self.curve_speedup: float = 0.0
        self.context_id: Optional[int] = None
        # ``nominal_speedup`` (the curve's speedup at the assigned
        # context's nominal SMs) is set by ``SimContext.enqueue`` and left
        # unset until then, so an estimate over a kernel that skipped the
        # queue fails loudly instead of reading a stale number.
        self.stream_id: Optional[int] = None
        self.dispatched_at: Optional[float] = None

    # ------------------------------------------------------------------
    # Progress accounting
    # ------------------------------------------------------------------
    #: Residual work below this many single-SM seconds counts as done
    #: (~1 picosecond of modelled work; far below any kernel's scale but
    #: far above accumulated float64 rounding error).
    WORK_EPS = 1e-12

    @property
    def is_complete(self) -> bool:
        """Whether setup and work have both been fully consumed."""
        return (
            self.setup_remaining <= self.WORK_EPS
            and self.work_remaining <= self.WORK_EPS
        )

    def force_complete(self) -> None:
        """Zero the residuals (used when remaining wall time is below the
        simulator's time resolution)."""
        self.setup_remaining = 0.0
        self.work_remaining = 0.0

    def advance(self, elapsed: float) -> float:
        """Consume ``elapsed`` seconds of wall time at the current rate.

        Setup time burns first (at rate 1, independent of the SM share),
        then work burns at ``self.rate``.  Returns the single-SM seconds of
        *work* actually consumed — setup seconds do not count as work, and
        the tail past completion consumes nothing — so the device's
        ``total_work_done`` integral conserves work exactly.
        """
        if elapsed < 0:
            raise ValueError(f"elapsed must be >= 0, got {elapsed}")
        setup = self.setup_remaining
        if setup > 0:
            consumed = min(setup, elapsed)
            setup -= consumed
            elapsed -= consumed
            if setup < self.WORK_EPS:
                setup = 0.0
            self.setup_remaining = setup
        rate = self.rate
        if elapsed <= 0 or rate <= 0:
            return 0.0
        work = self.work_remaining
        delta = elapsed * rate
        consumed_work = min(delta, work)
        work -= delta
        if work < self.WORK_EPS:
            work = 0.0
        self.work_remaining = work
        return consumed_work

    def time_to_completion(self) -> float:
        """Wall time until done at the current rate (inf when stalled)."""
        setup = self.setup_remaining
        work = self.work_remaining
        if setup <= self.WORK_EPS and work <= self.WORK_EPS:
            return 0.0
        rate = self.rate
        if rate <= 0:
            if work > 1e-15:
                return float("inf")
            return setup
        return setup + work / rate

    def progress_fraction(self) -> float:
        """Fraction of the work already performed, in [0, 1]."""
        return 1.0 - self.work_remaining / self.work_total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StageKernel({self.label!r}, prio={self.priority.name}, "
            f"remaining={self.work_remaining:.2e}/{self.work_total:.2e})"
        )
