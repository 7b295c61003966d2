"""Virtual and absolute deadline assignment (Sections IV-A2 and IV-B1).

Offline, each stage receives a *relative virtual deadline* ``D_i^j``: a slice
of the task's relative deadline ``D_i`` proportional to the stage's share of
the task WCET.  Online, at each job release the stages' *absolute* deadlines
``d_i^j`` are laid out cumulatively from the release time, so the last
stage's absolute virtual deadline coincides with the job's absolute
deadline.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.task import TaskSpec
from repro.numeric import sum_in_order


def assign_virtual_deadlines(wcets: Sequence[float], relative_deadline: float) -> List[float]:
    """Split ``relative_deadline`` proportionally to stage WCETs.

    ``D_i^j = D_i * C_i^j / sum_k C_i^k``.  The returned values sum to the
    task deadline exactly (the last slice absorbs float residue).

    Raises
    ------
    ValueError
        On empty/non-positive WCETs or a non-positive deadline.
    """
    if not wcets:
        raise ValueError("wcets must be non-empty")
    if any(c <= 0 for c in wcets):
        raise ValueError(f"all WCETs must be positive, got {list(wcets)}")
    if relative_deadline <= 0:
        raise ValueError(f"deadline must be positive, got {relative_deadline}")
    total = sum_in_order(wcets)
    slices = [relative_deadline * c / total for c in wcets]
    # Absorb rounding residue into the final slice so the sum is exact.
    slices[-1] = relative_deadline - sum_in_order(slices[:-1])
    return slices


def apply_virtual_deadlines(task: TaskSpec) -> None:
    """Assign ``virtual_deadline`` on every stage of ``task`` in place."""
    slices = assign_virtual_deadlines(
        [stage.wcet for stage in task.stages], task.relative_deadline
    )
    for stage, value in zip(task.stages, slices):
        stage.virtual_deadline = value


def absolute_stage_deadlines(task: TaskSpec, release_time: float) -> List[float]:
    """Absolute virtual deadlines of one job's stages (Section IV-B1).

    ``d_i^j = release + D_i^1 + ... + D_i^j``; the last equals the job's
    absolute deadline.

    Raises
    ------
    ValueError
        If the offline phase has not assigned virtual deadlines yet.
    """
    deadlines: List[float] = []
    cumulative = release_time
    for stage in task.stages:
        if stage.virtual_deadline is None:
            raise ValueError(
                f"stage {stage.name!r} has no virtual deadline; "
                "run the offline phase first"
            )
        cumulative += stage.virtual_deadline
        deadlines.append(cumulative)
    return deadlines
