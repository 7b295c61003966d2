"""Back-of-envelope schedulability analysis.

These closed-form estimates are *not* used by the online scheduler — they
exist so users (and tests) can sanity-check where pivot points should fall
before running a sweep, and so the benchmark harness can assert the
simulated pivots land near the analytic capacity.
"""

from __future__ import annotations

from repro.core.task import TaskSet, TaskSpec
from repro.gpu.spec import GpuDeviceSpec
from repro.speedup.composite import CompositeWorkload


def naive_capacity_estimate(
    network: CompositeWorkload,
    num_contexts: int,
    sms_per_context: float,
    switch_overhead: float = 0.0,
) -> float:
    """Jobs/second the naive scheduler can sustain.

    Each partition serves whole jobs sequentially at its partition size,
    paying ``switch_overhead`` per job once tasks interleave.
    """
    if num_contexts < 1:
        raise ValueError("num_contexts must be >= 1")
    service_time = network.time_at(sms_per_context) + switch_overhead
    return num_contexts / service_time


def sgprs_capacity_estimate(
    network: CompositeWorkload,
    spec: GpuDeviceSpec,
) -> float:
    """Jobs/second SGPRS can sustain at full device saturation.

    At saturation the device's aggregate progress ceiling binds: total
    progress is ``aggregate_speedup_cap`` single-SM seconds per second, and
    each job needs ``base_time`` single-SM seconds of progress.
    """
    return spec.aggregate_speedup_cap / network.base_time


def utilization_bound_tasks(
    task: TaskSpec,
    capacity_jobs_per_second: float,
) -> int:
    """Largest task count whose demand stays within a capacity estimate."""
    if capacity_jobs_per_second <= 0:
        raise ValueError("capacity must be positive")
    demand_per_task = task.fps
    return int(capacity_jobs_per_second / demand_per_task)


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
            sum(stage.composite.time_at(sms_per_context) for stage in task.stages)
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
    demand = sum(
        task.fps * sum(stage.composite.base_time for stage in task.stages)
        for task in task_set
    )
    return demand / spec.aggregate_speedup_cap
