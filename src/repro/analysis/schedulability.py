"""Back-of-envelope schedulability analysis.

These closed-form estimates are *not* used by the online scheduler — they
exist so users (``repro synth`` prints them) can sanity-check where pivot
points should fall before running a sweep.  Each gives a taskset's demand
as a fraction of one scheduler's capacity; for identical tasks, demand
crosses 1 at the task count the capacity allows.
"""

from __future__ import annotations

from repro.core.task import TaskSet
from repro.gpu.spec import GpuDeviceSpec
from repro.numeric import sum_in_order


def taskset_naive_utilization(
    task_set: TaskSet,
    num_contexts: int,
    sms_per_context: float,
    switch_overhead: float = 0.0,
) -> float:
    """Demand fraction of the naive scheduler's capacity for a concrete
    (possibly heterogeneous) taskset; > 1 predicts deadline misses.

    Each task demands ``fps_i * service_i`` context-seconds per second,
    where ``service_i`` is its whole-job time at the partition size (the
    sum of its stage composites' times).
    """
    if num_contexts < 1:
        raise ValueError("num_contexts must be >= 1")
    demand = 0.0
    for task in task_set:
        service = (
            sum_in_order(
                stage.composite.time_at(sms_per_context) for stage in task.stages
            )
            + switch_overhead
        )
        demand += task.fps * service
    return demand / num_contexts


def taskset_sgprs_utilization(task_set: TaskSet, spec: GpuDeviceSpec) -> float:
    """Demand fraction of the SGPRS saturation ceiling for a concrete
    taskset; > 1 predicts deadline misses.

    Each task demands ``fps_i * base_time_i`` single-SM seconds per
    second against the device's ``aggregate_speedup_cap`` supply.
    """
    demand = sum_in_order(
        task.fps * sum_in_order(stage.composite.base_time for stage in task.stages)
        for task in task_set
    )
    return demand / spec.aggregate_speedup_cap
