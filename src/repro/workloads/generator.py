"""Task set generators.

The paper's evaluation workload: "identical periodic tasks (30 fps) with
explicit deadlines, each divided into six stages", the task being ResNet18
with a 224x224 input.  Release offsets are staggered uniformly across the
period so the synchronous release burst (which is not what a multi-camera
system sees) does not dominate; tests cover the synchronous case
separately.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, List, Sequence, Tuple

from repro.core.profiling import prepare_task
from repro.core.task import TaskSpec, TaskSet
from repro.dnn.graph import LayerGraph
from repro.dnn.resnet import build_resnet18
from repro.speedup.calibration import DEFAULT_CALIBRATION, DeviceCalibration

#: The paper's benchmark rate: 30 frames per second.
DEFAULT_PERIOD = 1.0 / 30.0

#: The paper divides each ResNet18 task into six stages.
DEFAULT_NUM_STAGES = 6

_TEMPLATE_CACHE: Dict[Tuple, TaskSpec] = {}


def clone_task(template: TaskSpec, name: str, release_offset: float) -> TaskSpec:
    """Cheap copy of a prepared task under a new name/offset.

    Stage composites (immutable cost models) are shared; stage specs are
    copied so later mutation of one task cannot leak into another.
    """
    clone = TaskSpec(
        name=name,
        graph=template.graph,
        period=template.period,
        relative_deadline=template.relative_deadline,
        release_offset=release_offset,
    )
    clone.stages = [copy.copy(stage) for stage in template.stages]
    return clone


def template_task(
    graph_builder: Callable[[], LayerGraph],
    builder_key: str,
    period: float,
    num_stages: int,
    nominal_sms: float,
    calibration: DeviceCalibration = DEFAULT_CALIBRATION,
) -> TaskSpec:
    """Prepared (offline-profiled) task template, cached across calls.

    The cache key includes the calibration's *value* fingerprint, not its
    object identity — a custom :class:`DeviceCalibration` can never
    collide with the default entry (or with another custom instance whose
    ``id()`` happens to be recycled), while equal-valued calibrations
    share one template.  Callers must not mutate the returned template;
    use :func:`clone_task` to instantiate it.
    """
    key = (
        builder_key,
        period,
        num_stages,
        round(nominal_sms, 6),
        calibration.fingerprint,
    )
    if key not in _TEMPLATE_CACHE:
        _TEMPLATE_CACHE[key] = prepare_task(
            name="template",
            graph=graph_builder(),
            period=period,
            num_stages=num_stages,
            nominal_sms=nominal_sms,
            calibration=calibration,
        )
    return _TEMPLATE_CACHE[key]


def identical_periodic_tasks(
    count: int,
    nominal_sms: float,
    period: float = DEFAULT_PERIOD,
    num_stages: int = DEFAULT_NUM_STAGES,
    graph_builder: Callable[[], LayerGraph] = build_resnet18,
    builder_key: str = "resnet18",
    stagger: bool = True,
    calibration: DeviceCalibration = DEFAULT_CALIBRATION,
) -> TaskSet:
    """The paper's workload: ``count`` identical periodic DNN tasks.

    Parameters
    ----------
    count:
        Number of tasks (the sweep variable of Figs. 3 and 4).
    nominal_sms:
        Partition size the offline phase profiles WCETs at — use the pool's
        per-context SM count.
    stagger:
        Spread first releases uniformly over one period (default).  With
        ``False`` all tasks release synchronously at t=0 (worst case).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    template = template_task(
        graph_builder, builder_key, period, num_stages, nominal_sms, calibration
    )
    tasks: List[TaskSpec] = []
    for index in range(count):
        offset = (index / count) * period if stagger else 0.0
        tasks.append(clone_task(template, f"cam{index}", offset))
    return TaskSet(tasks)


def mixed_task_set(
    specs: Sequence[Tuple[Callable[[], LayerGraph], str, float, int]],
    nominal_sms: float,
    stagger: bool = True,
    calibration: DeviceCalibration = DEFAULT_CALIBRATION,
) -> TaskSet:
    """Heterogeneous task set.

    ``specs`` is a sequence of ``(graph_builder, builder_key, period,
    num_stages)`` tuples; each becomes one task.  Useful for the examples
    (e.g. a perception stack mixing ResNet18 and ResNet34 at different
    rates).
    """
    if not specs:
        raise ValueError("specs must be non-empty")
    tasks: List[TaskSpec] = []
    max_period = max(spec[2] for spec in specs)
    for index, (graph_builder, builder_key, period, num_stages) in enumerate(specs):
        template = template_task(
            graph_builder, builder_key, period, num_stages, nominal_sms, calibration
        )
        offset = (index / len(specs)) * max_period if stagger else 0.0
        tasks.append(clone_task(template, f"task{index}_{builder_key}", offset))
    return TaskSet(tasks)
