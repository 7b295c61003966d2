"""Composite speedup curves for operator sequences.

A *stage* (and the whole network) executes its operators back to back on
whatever SM share it currently holds.  Its wall time at share ``s`` is

    T(s) = sum_op [ launch_overhead + work_op / speedup_op(s) ]

and its composite speedup is ``T(1) / T(s)``.  The scheduler's
discrete-event simulation runs one kernel per stage whose progress rate at
share ``s`` is exactly this composite speedup, so operator-mix effects (the
reason ResNet18 only reaches ~23x while convolution alone reaches 32x) are
preserved without simulating every operator launch.

The simulator asks for ``T(1)`` on every stage release and for the speedup
on every allocation pass, so a composite computes ``base_time`` once at
construction and memoises ``speedup`` per share, in a bounded per-instance
dict.  A composite's speedup is a pure function of the share, so the memo
is exact: it returns the float a fresh evaluation would.  Composites are
built once per task template (``repro.workloads.generator``) and shared by
every task cloned from it, so a process fills each memo once and then
reuses it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.dnn.ops import Operator
from repro.numeric import sum_in_order
from repro.speedup.calibration import (
    DEFAULT_CALIBRATION,
    DeviceCalibration,
    instance_curve,
    operator_work_time,
)
from repro.speedup.model import WidthLimitedCurve


@dataclass(frozen=True)
class CompositeWorkload:
    """Aggregated cost model of an operator sequence.

    Satisfies the :class:`~repro.speedup.model.SpeedupCurve` protocol via
    :meth:`speedup`, so stage kernels can use it directly as their rate
    curve.

    Attributes
    ----------
    name:
        Label (stage or network name).
    segments:
        ``(work_time_at_1_sm, curve)`` pairs, one per operator.
    overhead:
        Total serial (non-parallelisable) time: launch overheads.
    base_time:
        Wall time at a single SM (the WCET baseline): ``time_at(1.0)``,
        computed once at construction.

    ``base_time`` and the ``speedup`` memo are derived state: they take no
    part in ``==``, ``hash`` or ``repr``, so two composites with equal
    fields compare and hash equal however warm their memos are.
    """

    #: Bound of the per-instance ``speedup`` memo; it is cleared wholesale
    #: when full.  Paper-shaped runs query a few hundred shares per curve.
    MEMO_MAX_ENTRIES = 4096

    name: str
    segments: Tuple[Tuple[float, WidthLimitedCurve], ...]
    overhead: float
    base_time: float = field(init=False, repr=False, compare=False)
    _speedup_memo: Dict[float, float] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError(f"composite {self.name!r} has no segments")
        if self.overhead < 0:
            raise ValueError(f"composite {self.name!r} has negative overhead")
        if any(work < 0 for work, _ in self.segments):
            raise ValueError(f"composite {self.name!r} has negative work")
        object.__setattr__(self, "base_time", self.time_at(1.0))
        object.__setattr__(self, "_speedup_memo", {})

    # ------------------------------------------------------------------
    # Time model
    # ------------------------------------------------------------------
    def time_at(self, sms: float) -> float:
        """Wall time (seconds) of the whole sequence at SM share ``sms``."""
        if sms <= 0:
            raise ValueError(f"sms must be positive, got {sms}")
        total = self.overhead
        for work, curve in self.segments:
            total += work / max(curve.speedup(sms), 1e-12)
        return total

    @property
    def total_work(self) -> float:
        """Parallelisable work in single-SM seconds (excludes overhead)."""
        return sum_in_order(work for work, _ in self.segments)

    def speedup(self, sms: float) -> float:
        """Composite speedup ``T(1)/T(s)``; 0 below a zero share.

        Memoised per share: only a share this composite has not seen since
        its memo was last cleared costs a :meth:`time_at` evaluation.
        """
        if sms <= 0:
            return 0.0
        memo = self._speedup_memo
        value = memo.get(sms)
        if value is None:
            if len(memo) >= self.MEMO_MAX_ENTRIES:
                memo.clear()
            value = memo[sms] = self.base_time / self.time_at(sms)
        return value

    # ------------------------------------------------------------------
    # Width demand
    # ------------------------------------------------------------------
    def width_demand(self, total_sms: float, fraction: float = 0.9) -> float:
        """SM count at which the composite reaches ``fraction`` of its
        speedup at ``total_sms``.

        This is the *useful width* of the stage: granting more SMs than this
        buys less than ``1 - fraction`` extra speedup, so the allocator
        treats it as the stage's demand.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        target = fraction * self.speedup(total_sms)
        low, high = 1.0, float(total_sms)
        if self.speedup(low) >= target:
            return low
        # Bisection: speedup is monotone in sms.
        for _ in range(60):
            mid = 0.5 * (low + high)
            if self.speedup(mid) >= target:
                high = mid
            else:
                low = mid
        return high


def composite_for_ops(
    name: str,
    ops: Sequence[Operator],
    calibration: DeviceCalibration = DEFAULT_CALIBRATION,
) -> CompositeWorkload:
    """Build the composite workload of an operator sequence.

    Zero-work marker operators (the synthetic graph input) contribute
    neither work nor launch overhead.
    """
    segments: List[Tuple[float, WidthLimitedCurve]] = []
    overhead = 0.0
    for op in ops:
        work = operator_work_time(op, calibration)
        if work <= 0.0 and op.bytes_moved == 0.0:
            continue  # synthetic marker node
        segments.append((work, instance_curve(op, calibration)))
        overhead += calibration.launch_overhead
    if not segments:
        raise ValueError(f"operator sequence {name!r} contains no real work")
    return CompositeWorkload(name=name, segments=tuple(segments), overhead=overhead)
