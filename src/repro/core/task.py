"""Task model (paper Section II).

A task set ``S = {tau_1 .. tau_|S|}``; each task is a DNN whose nodes are
*stages* (sub-tasks).  ``C_i`` / ``C_i^j`` are the WCETs of the task and its
stages, ``D_i`` the task's relative deadline (given), and ``D_i^j`` the
stages' *virtual* relative deadlines (derived offline, Section IV-A2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.dnn.graph import LayerGraph
from repro.numeric import sum_in_order
from repro.speedup.composite import CompositeWorkload


@dataclass
class StageSpec:
    """Offline description of one stage (sub-task) of a task.

    Attributes
    ----------
    index:
        Position in the task's stage sequence (0-based).
    name:
        Label, e.g. ``"resnet18/stage2"``.
    composite:
        Cost model of the stage's operator slice; its ``speedup`` method is
        the rate curve of the stage's kernels.
    wcet:
        Measured worst-case execution time at the pool's nominal partition
        size (``C_i^j``).
    width_demand:
        Useful parallel width of the stage's kernels (SMs).
    virtual_deadline:
        Relative virtual deadline ``D_i^j`` (seconds), assigned offline
        proportionally to WCET share.  ``None`` until assigned.
    """

    index: int
    name: str
    composite: CompositeWorkload
    wcet: float
    width_demand: float
    virtual_deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"stage index must be >= 0, got {self.index}")
        if self.wcet <= 0:
            raise ValueError(f"stage {self.name!r}: wcet must be positive")
        if self.width_demand < 1:
            raise ValueError(f"stage {self.name!r}: width_demand must be >= 1")

    @property
    def work(self) -> float:
        """Parallelisable work in single-SM seconds."""
        return self.composite.total_work


@dataclass
class TaskSpec:
    """One periodic DNN inference task (``tau_i``).

    Attributes
    ----------
    name:
        Unique task name.
    graph:
        The task's network (DAG of operators).
    stages:
        Ordered stage specs (``tau_i^j``); populated by the offline phase.
    period:
        Release period in seconds (e.g. 1/30 for a 30 fps camera).
    relative_deadline:
        ``D_i``; defaults to the period (implicit deadline) when ``None``
        is passed to the constructor helpers.
    release_offset:
        Phase of the first release (staggered offsets avoid the synchronous
        worst-case burst; the workload generator sets them).
    """

    name: str
    graph: LayerGraph
    period: float
    relative_deadline: float
    stages: List[StageSpec] = field(default_factory=list)
    release_offset: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("task name must be non-empty")
        if not (math.isfinite(self.period) and self.period > 0):
            raise ValueError(
                f"task {self.name!r}: period must be finite and positive, "
                f"got {self.period}"
            )
        if not (math.isfinite(self.relative_deadline) and self.relative_deadline > 0):
            raise ValueError(
                f"task {self.name!r}: deadline must be finite and positive, "
                f"got {self.relative_deadline}"
            )
        if not (math.isfinite(self.release_offset) and self.release_offset >= 0):
            raise ValueError(
                f"task {self.name!r}: offset must be finite and >= 0, "
                f"got {self.release_offset}"
            )

    @property
    def num_stages(self) -> int:
        """Number of stages the task was divided into."""
        return len(self.stages)

    @property
    def total_wcet(self) -> float:
        """``C_i``: sum of stage WCETs at the nominal partition size."""
        return sum_in_order(stage.wcet for stage in self.stages)

    @property
    def fps(self) -> float:
        """Frame rate implied by the period."""
        return 1.0 / self.period

    def utilization(self) -> float:
        """WCET over period — the task's demand on one nominal partition."""
        return self.total_wcet / self.period

    def validate(self) -> None:
        """Check stage indices and virtual deadlines are consistent.

        Raises
        ------
        ValueError
            If stages are missing/unordered or virtual deadlines do not sum
            to the task deadline (within float tolerance).
        """
        if not self.stages:
            raise ValueError(f"task {self.name!r} has no stages")
        for expected, stage in enumerate(self.stages):
            if stage.index != expected:
                raise ValueError(
                    f"task {self.name!r}: stage {expected} has index {stage.index}"
                )
        deadlines = [stage.virtual_deadline for stage in self.stages]
        if any(d is not None for d in deadlines):
            if any(d is None for d in deadlines):
                raise ValueError(
                    f"task {self.name!r}: some stages lack virtual deadlines"
                )
            total = sum_in_order(deadlines)
            if abs(total - self.relative_deadline) > 1e-9 * max(
                1.0, self.relative_deadline
            ):
                raise ValueError(
                    f"task {self.name!r}: virtual deadlines sum to {total}, "
                    f"expected {self.relative_deadline}"
                )


class TaskSet:
    """An ordered collection of tasks with unique names."""

    def __init__(self, tasks: Sequence[TaskSpec]) -> None:
        names = [task.name for task in tasks]
        if len(set(names)) != len(names):
            raise ValueError("task names must be unique")
        self.tasks: List[TaskSpec] = list(tasks)

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)

    def __getitem__(self, index: int) -> TaskSpec:
        return self.tasks[index]

    def by_name(self, name: str) -> TaskSpec:
        """Look up a task by name."""
        for task in self.tasks:
            if task.name == name:
                return task
        raise KeyError(f"unknown task {name!r}")

    def total_utilization(self) -> float:
        """Sum of per-task utilizations (nominal-partition WCET basis)."""
        return sum_in_order(task.utilization() for task in self.tasks)

    def total_demand_fps(self) -> float:
        """Sum of requested frame rates."""
        return sum_in_order(task.fps for task in self.tasks)

    def validate(self) -> None:
        """Validate every task."""
        for task in self.tasks:
            task.validate()
