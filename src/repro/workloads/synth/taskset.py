"""Utilization-driven synthesis of heterogeneous periodic DNN tasksets.

The pipeline, driven entirely by one seeded ``random.Random``:

1. **UUniFast-discard** partitions the target total utilization into
   per-task shares ``u_i`` under a per-task cap.
2. Each task draws a **model** from the spec's zoo mix, a **stage count**
   from the spec's choices, a constrained-**deadline ratio**, a release
   **offset fraction** and a log-uniform **period jitter** (every draw
   happens for every task in a fixed order, so the stream — and hence the
   taskset — is invariant to which modes are enabled).
3. The task's WCET ``C_i`` comes from the offline-profiled template of its
   (model, stage count) pair; its **implied period** is ``T_i = C_i/u_i``.
4. The **period class** reshapes the periods (camera snap / log-uniform
   spread), after which one global scale factor restores the target total
   utilization exactly.
5. Deadlines (implicit or constrained) and virtual stage deadlines are
   assigned, and the tasks are wrapped in a validated ``TaskSet``.

Because stage partitioning splits the same operator sequence, a task's
total WCET is independent of its stage count — so a naive (monolithic)
variant and an SGPRS variant synthesized from the same spec see the *same*
periods and deadlines, differing only in stage structure.  That is what
makes scheduler comparisons on synthesized tasksets apples-to-apples.
"""

from __future__ import annotations

import copy
import math
import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.deadlines import apply_virtual_deadlines
from repro.core.task import TaskSpec, TaskSet
from repro.numeric import sum_in_order
from repro.speedup.calibration import DEFAULT_CALIBRATION, DeviceCalibration
from repro.workloads.generator import template_task
from repro.workloads.synth.spec import SynthSpec
from repro.workloads.synth.uunifast import uunifast_discard
from repro.workloads.synth.zoo import get_model, pick_model

#: Base rate of the camera ladder: the "camera" period class snaps each
#: task to the nearest rate of the harmonic family ``15 * 2^k`` fps —
#: 15/30/60 fps are the paper-relevant rungs, extended both ways so light
#: models (fast implied rates) and heavy models (slow implied rates) land
#: on plausible camera-like rates without huge distortion (snapping is
#: within sqrt(2) of the implied period, keeping per-task utilizations
#: near their UUniFast shares).  After snapping, the global
#: utilization-restoring rescale shifts all rates by one common factor,
#: so the output keeps the ladder's exact octave ratios rather than the
#: absolute rungs.
CAMERA_BASE_FPS = 15.0

#: The ladder's exponent range: 15/2^2 ~ 3.75 fps up to 15*2^6 = 960 fps.
_CAMERA_LADDER_RANGE = (-2, 6)

#: The paper-relevant rungs (kept as a public constant for tests/docs).
CAMERA_PERIODS: Tuple[float, ...] = (1.0 / 15.0, 1.0 / 30.0, 1.0 / 60.0)

#: Canonical template period; templates are period-agnostic (WCETs and
#: composites do not depend on it), so one cache entry serves all tasks.
_TEMPLATE_PERIOD = 1.0


@dataclass(frozen=True)
class _Draws:
    """Per-task RNG draws, in stream order."""

    model: str
    num_stages: int
    deadline_ratio: float
    offset_fraction: float
    period_jitter: float


def _draw_tasks(spec: SynthSpec, rng: random.Random) -> List[_Draws]:
    draws: List[_Draws] = []
    log_spread = math.log(spec.loguniform_spread)
    for _ in range(spec.num_tasks):
        model = pick_model(spec.zoo_mix, rng)
        num_stages = spec.stage_choices[rng.randrange(len(spec.stage_choices))]
        ratio = rng.uniform(*spec.constrained_ratio)
        offset_fraction = rng.random()
        jitter = math.exp(rng.uniform(-log_spread, log_spread))
        draws.append(
            _Draws(model, num_stages, ratio, offset_fraction, jitter)
        )
    return draws


def _snap_to_camera(period: float) -> float:
    """Nearest rung of the harmonic camera ladder (``15 * 2^k`` fps)."""
    lo, hi = _CAMERA_LADDER_RANGE
    exponent = round(math.log2(1.0 / (period * CAMERA_BASE_FPS)))
    exponent = min(hi, max(lo, exponent))
    return 1.0 / (CAMERA_BASE_FPS * 2.0 ** exponent)


def _instantiate(
    template: TaskSpec,
    name: str,
    period: float,
    relative_deadline: float,
    release_offset: float,
) -> TaskSpec:
    """Clone a template's stages under new timing parameters.

    Unlike :func:`repro.workloads.generator.clone_task`, the period and
    deadline change, so virtual stage deadlines are re-derived.
    """
    task = TaskSpec(
        name=name,
        graph=template.graph,
        period=period,
        relative_deadline=relative_deadline,
        release_offset=release_offset,
    )
    task.stages = [copy.copy(stage) for stage in template.stages]
    apply_virtual_deadlines(task)
    return task


def synthesize_taskset(
    spec: SynthSpec,
    nominal_sms: float,
    calibration: DeviceCalibration = DEFAULT_CALIBRATION,
    monolithic: bool = False,
) -> TaskSet:
    """Generate the taskset described by ``spec``.

    Parameters
    ----------
    nominal_sms:
        Partition size the offline phase profiles WCETs at (the pool's
        per-context SM count), as for the homogeneous generators.
    monolithic:
        Collapse every task to a single stage (the naive baseline's job
        shape) *without* consuming different RNG draws — periods,
        deadlines and offsets are identical to the staged taskset from
        the same spec.
    """
    rng = random.Random(spec.seed)
    # Task draws come FIRST on the stream: uunifast_discard consumes a
    # rejection-dependent number of rng calls, and the rejection count
    # varies with the utilization target — drawing models/stages/deadlines
    # before it keeps the task mix invariant across a utilization axis
    # (specs differing only in total_utilization synthesize the same mix).
    draws = _draw_tasks(spec, rng)
    # The discard cap self-relaxes when the target is high for the task
    # count: below 2x the mean share, rejection sampling would grind (or
    # become infeasible outright), so the cap floors at that slack level.
    effective_cap = max(
        spec.max_task_utilization,
        2.0 * spec.total_utilization / spec.num_tasks,
    )
    utilizations = uunifast_discard(
        spec.num_tasks,
        spec.total_utilization,
        rng,
        max_utilization=effective_cap,
    )

    templates = []
    wcets = []
    for draw in draws:
        num_stages = 1 if monolithic else draw.num_stages
        model = get_model(draw.model)
        templates.append(
            template_task(
                model.builder,
                model.key,
                _TEMPLATE_PERIOD,
                num_stages,
                nominal_sms,
                calibration,
            )
        )
        # Period math always uses the single-stage (whole-network) WCET:
        # a staged partition sums the same per-operator times in a
        # different order, which can shift the total by an ulp — enough to
        # make monolithic (naive) and staged (SGPRS) tasksets disagree on
        # periods in the last bit.  The canonical basis keeps every
        # variant of one spec bit-identical in timing.
        wcets.append(
            template_task(
                model.builder,
                model.key,
                _TEMPLATE_PERIOD,
                1,
                nominal_sms,
                calibration,
            ).total_wcet
        )
    periods = [wcet / u for wcet, u in zip(wcets, utilizations)]
    if spec.period_class == "camera":
        periods = [_snap_to_camera(period) for period in periods]
    elif spec.period_class == "loguniform":
        periods = [
            period * draw.period_jitter
            for period, draw in zip(periods, draws)
        ]
    # One global re-scale restores the target total utilization exactly
    # (a no-op for the "implied" class up to float rounding).
    achieved = sum_in_order(
        wcet / period for wcet, period in zip(wcets, periods)
    )
    scale = achieved / spec.total_utilization
    periods = [period * scale for period in periods]

    tasks: List[TaskSpec] = []
    for index, (draw, template, period) in enumerate(
        zip(draws, templates, periods)
    ):
        if spec.deadline_mode == "constrained":
            deadline = period * draw.deadline_ratio
        else:
            deadline = period
        offset = draw.offset_fraction * period if spec.stagger else 0.0
        tasks.append(
            _instantiate(
                template,
                name=f"synth{index}_{draw.model}",
                period=period,
                relative_deadline=deadline,
                release_offset=offset,
            )
        )
    task_set = TaskSet(tasks)
    task_set.validate()
    return task_set


def describe_taskset(task_set: TaskSet) -> str:
    """Human-readable per-task table (the ``repro synth`` CLI output)."""
    header = f"{'task':<24} {'fps':>7} {'stages':>6} {'wcet_ms':>8} {'util':>6} {'D/T':>5}"
    lines = [header, "-" * len(header)]
    for task in task_set:
        lines.append(
            f"{task.name:<24} {task.fps:>7.2f} {task.num_stages:>6d} "
            f"{task.total_wcet * 1e3:>8.3f} {task.utilization():>6.3f} "
            f"{task.relative_deadline / task.period:>5.2f}"
        )
    lines.append(
        f"{'total':<24} {task_set.total_demand_fps():>7.2f} {'':>6} {'':>8} "
        f"{task_set.total_utilization():>6.3f}"
    )
    return "\n".join(lines)


def taskset_signature(task_set: TaskSet) -> Sequence[Tuple]:
    """Structural fingerprint used by determinism/golden tests."""
    return tuple(
        (
            task.name,
            round(task.period, 12),
            round(task.relative_deadline, 12),
            round(task.release_offset, 12),
            task.num_stages,
            round(task.total_wcet, 12),
        )
        for task in task_set
    )
