"""Online scheduling plumbing shared by SGPRS and the naive baseline.

``SchedulerBase`` owns the job lifecycle: releases pulled from an
arrival source (:mod:`repro.workloads.arrivals`; strictly periodic by
default), admission control (:mod:`repro.core.admission`), per-release
absolute deadline assignment (Section IV-B1), stage-by-stage execution on
the GPU device, and metrics recording.  Concrete schedulers specialise

* :meth:`SchedulerBase.select_context` — the context-assignment policy;
* :meth:`SchedulerBase.admit_job` / the ``admission`` policy —
  admission/shedding behaviour;
* the reconfiguration policy — what a partition switch costs.

Trace kinds emitted here (see the class docstring for the full list)
distinguish two ways a release can fail to enter the system:

``job_skip``
    The frame was dropped *at the source* — the paper's blocking-client
    model, where a release whose predecessor is still in flight never
    reaches the server.  Skipped jobs count as deadline misses.
``job_reject``
    The *admission controller* refused the job — a deliberate
    load-shedding decision under overload.  Rejected jobs feed the
    rejection-rate metric and are excluded from the deadline-miss rate.
"""

from __future__ import annotations

import random
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - workloads imports core at runtime
    from repro.workloads.arrivals import ArrivalProcess

from repro.core.admission import AdmissionDecision, AdmissionPolicy
from repro.core.deadlines import absolute_stage_deadlines
from repro.core.priority import initial_priority, promote_if_predecessor_missed
from repro.core.task import StageSpec, TaskSet, TaskSpec
from repro.gpu.context import SimContext
from repro.gpu.device import GpuDevice
from repro.gpu.kernel import PRIORITY_NAMES, PriorityLevel, StageKernel
from repro.gpu.mps import ReconfigurationPolicy, ZeroConfigPool
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import MetricsCollector, StageRecord
from repro.sim.trace import TraceRecorder
from repro.sim.trace_kinds import (
    JOB_COMPLETE,
    JOB_REJECT,
    JOB_RELEASE,
    JOB_SHED,
    JOB_SKIP,
    STAGE_RELEASE,
)


class StageInstance:
    """One released stage of one job.

    A stage and its kernel point at each other (``kernel`` and
    ``StageKernel.payload``), and at its job (``job`` and
    ``JobInstance.stage``) while it is in flight.  The scheduler clears
    ``payload`` and ``JobInstance.stage`` when the stage completes or its
    job is shed, so a finished stage is freed by reference counting.
    """

    def __init__(
        self,
        spec: StageSpec,
        job: "JobInstance",
        absolute_deadline: float,
        priority: PriorityLevel,
        record: Optional[StageRecord] = None,
    ) -> None:
        self.spec = spec
        self.job = job
        self.absolute_deadline = absolute_deadline
        self.priority = priority
        self.record = record
        self.kernel: Optional[StageKernel] = None
        #: Stable identifier, e.g. ``"cam3/j12/s4"``.
        self.label = f"{job.task.name}/j{job.index}/s{spec.index}"


class JobInstance:
    """One periodic release of a task."""

    def __init__(
        self, task: TaskSpec, index: int, release_time: float
    ) -> None:
        self.task = task
        self.index = index
        self.release_time = release_time
        self.absolute_deadline = release_time + task.relative_deadline
        self.stage_deadlines: List[float] = absolute_stage_deadlines(
            task, release_time
        )
        #: The stage in flight, if any: a job's stages run one at a time.
        self.stage: Optional[StageInstance] = None
        self.completed = False
        self.aborted = False
        #: Whether the job passed admission (skipped/rejected jobs never
        #: enter the system and keep this False).
        self.admitted = False
        #: Internal: the job left the in-flight accounting (completed or
        #: shed); guards double-decrements of the queue-depth counters.
        self._departed = False

    @property
    def finished(self) -> bool:
        """Whether the job is out of the system (done or shed)."""
        return self.completed or self.aborted


class SchedulerBase:
    """Common machinery for online schedulers.

    Parameters
    ----------
    engine / device:
        The simulation substrate; the scheduler installs itself as the
        device's completion callback.
    task_set:
        Offline-prepared tasks (stages, WCETs, virtual deadlines).
    metrics:
        Collector for job/stage records.
    reconfig:
        Partition reconfiguration cost policy; defaults to the
        zero-configuration pool.
    trace:
        Optional trace recorder.  The scheduler emits kinds
        ``job_release``, ``job_skip`` (a release dropped at the source
        because the task's previous job was still in flight — see
        :meth:`admit_job`; counts as a deadline miss), ``job_reject`` (a
        release refused by the admission policy — counts toward the
        rejection rate, never toward DMR), ``job_complete``, ``job_shed``
        (aborted via :meth:`abort_job`) and ``stage_release``; the device
        layer adds ``kernel_start``, ``kernel_done`` and ``allocation``.
    horizon:
        Releases are only scheduled strictly before this simulated time.
    arrivals:
        The :class:`~repro.workloads.arrivals.ArrivalProcess` supplying
        release times.  ``None`` (the default) is strictly periodic —
        bit-identical to the historical hardcoded release loop.
    admission:
        Optional :class:`~repro.core.admission.AdmissionPolicy`.  ``None``
        (the default) keeps the legacy boolean :meth:`admit_job` hook,
        whose stock behaviour is the paper's skip-if-in-flight rule;
        a policy object takes over the decision and can additionally
        *reject* jobs (``job_reject``).
    work_jitter_cv:
        Relative half-width of per-stage execution-time jitter: each stage
        instance's work is the nominal work times a uniform factor in
        ``[1 - cv, 1 + cv]``.  Models the run-to-run variability real GPU
        kernels show (cache state, DRAM arbitration, OS noise); the offline
        WCET margin is meant to cover it.  0 gives fully deterministic
        execution.
    seed:
        Seed for the jitter stream; runs are reproducible for a fixed seed.
    """

    #: Subclasses give themselves a short name for reports.
    name = "base"

    #: Ablation switch: the paper's MEDIUM promotion of late stages
    #: (Section IV-B3).  Disabled in the ablation benchmark.
    enable_medium_promotion = True

    def __init__(
        self,
        engine: SimulationEngine,
        device: GpuDevice,
        task_set: TaskSet,
        metrics: MetricsCollector,
        reconfig: Optional[ReconfigurationPolicy] = None,
        trace: Optional[TraceRecorder] = None,
        horizon: float = float("inf"),
        work_jitter_cv: float = 0.0,
        seed: int = 0,
        arrivals: Optional["ArrivalProcess"] = None,
        admission: Optional[AdmissionPolicy] = None,
    ) -> None:
        if not 0.0 <= work_jitter_cv < 1.0:
            raise ValueError(
                f"work_jitter_cv must be in [0, 1), got {work_jitter_cv}"
            )
        self.engine = engine
        self.device = device
        self.task_set = task_set
        self.metrics = metrics
        self.reconfig = reconfig if reconfig is not None else ZeroConfigPool()
        self.trace = trace
        self.horizon = horizon
        self.work_jitter_cv = work_jitter_cv
        self.seed = seed
        self.arrivals = arrivals
        self.admission = admission
        self._rng = random.Random(seed)
        self._job_counters: Dict[str, int] = {}
        self._latest_job: Dict[str, JobInstance] = {}
        #: Task name -> its arrival stream, the action that releases its
        #: next job and that action's event tag, all built once.
        self._release_plans: Dict[
            str, Tuple[Iterator[float], Callable[[], None], str]
        ] = {}
        #: Task name -> its stages' initial priorities (by stage index)
        #: and its last stage index, built once.
        self._stage_plans: Dict[str, Tuple[Tuple[PriorityLevel, ...], int]] = {
            task.name: (
                tuple(
                    initial_priority(index, task.num_stages)
                    for index in range(task.num_stages)
                ),
                task.num_stages - 1,
            )
            for task in task_set
        }
        self._inflight: Dict[str, int] = {}
        self._inflight_total = 0
        device.on_kernel_complete = self._on_kernel_complete

    # ------------------------------------------------------------------
    # Policy hooks
    # ------------------------------------------------------------------
    def select_context(self, kernel: StageKernel) -> SimContext:
        """Choose the context a released stage is assigned to."""
        raise NotImplementedError

    def admit_job(
        self, job: JobInstance, previous: Optional[JobInstance]
    ) -> bool:
        """Whether a released job enters the system.

        The default models the paper's deployment: each task is a periodic
        client thread issuing a *blocking* inference call, so while the
        previous frame is still in flight the next release is skipped (the
        frame is dropped at the source).  A skipped job stays in the metrics
        as released-but-never-finished, i.e. a deadline miss.

        Subclasses may override it; to admit every release and let
        backlogs snowball, pass the ``admit_all`` policy
        (:class:`~repro.core.admission.AdmitAll`) instead.
        """
        return previous is None or previous.finished

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Open every task's arrival stream and schedule its first release."""
        arrivals = self.arrivals
        if arrivals is None:
            # Lazy import: core must stay importable without workloads.
            from repro.workloads.arrivals import PeriodicArrivals

            arrivals = self.arrivals = PeriodicArrivals()
        from repro.workloads.arrivals import derive_arrival_seed

        for task in self.task_set:
            self._release_plans[task.name] = (
                arrivals.stream(
                    task, derive_arrival_seed(self.seed, arrivals.name, task.name)
                ),
                partial(self._release_job, task),
                f"release:{task.name}",
            )
            self._schedule_next_release(task)

    def detach(self) -> None:
        """Drop the callbacks that tie the scheduler into the engine/device
        cycle: the device's completion callback and the per-task release
        actions.

        Called once the run is over (``run_simulation`` calls it after
        building its result); nothing left in the engine or the device
        then refers to the scheduler, so reference counting frees it and,
        unless the result holds it, its metrics collector.  It touches no
        event, the heap or any counter.
        """
        self.device.on_kernel_complete = None
        self._release_plans.clear()

    def _schedule_next_release(self, task: TaskSpec) -> None:
        """Pull the task's next arrival and schedule it, if inside horizon.

        A ``None`` from the stream (only replay streams are finite) or an
        arrival at/past the horizon ends the task's release chain.
        """
        stream, action, tag = self._release_plans[task.name]
        when = next(stream, None)
        if when is not None and when < self.horizon:
            self.engine.schedule_at(when, action, tag)

    def _decide(
        self, job: JobInstance, previous: Optional[JobInstance]
    ) -> AdmissionDecision:
        """Route a release through the policy object or the legacy hook."""
        if self.admission is None:
            if self.admit_job(job, previous):
                return AdmissionDecision.ADMIT
            return AdmissionDecision.SKIP
        return self.admission.decide(
            job, previous, self._inflight.get(job.task.name, 0)
        )

    def _release_job(self, task: TaskSpec) -> None:
        index = self._job_counters.get(task.name, 0)
        self._job_counters[task.name] = index + 1
        now = self.engine.now
        job = JobInstance(task, index, now)
        self.metrics.job_released(task.name, index, now, job.absolute_deadline)
        if self.trace is not None:
            # deadline rides along so the trace replay
            # (metrics_from_trace) can score DMR without the workload
            self.trace.record(
                now,
                JOB_RELEASE,
                task=task.name,
                job=index,
                deadline=job.absolute_deadline,
            )
        previous = self._latest_job.get(task.name)
        decision = self._decide(job, previous)
        if decision is AdmissionDecision.ADMIT:
            job.admitted = True
            self._latest_job[task.name] = job
            self._inflight[task.name] = self._inflight.get(task.name, 0) + 1
            self._inflight_total += 1
            self.metrics.record_queue_depth(now, self._inflight_total)
            self._release_stage(job, 0, predecessor_missed=False)
        elif decision is AdmissionDecision.REJECT:
            job.aborted = True
            self.metrics.job_rejected(task.name, index)
            if self.trace is not None:
                self.trace.record(now, JOB_REJECT, task=task.name, job=index)
        else:
            job.aborted = True
            if self.trace is not None:
                self.trace.record(now, JOB_SKIP, task=task.name, job=index)
        self._schedule_next_release(task)

    def _job_departed(self, job: JobInstance) -> None:
        """Take an admitted job out of the in-flight accounting once.

        The count must exist and be positive — every admitted job
        incremented it at release.  A missing or non-positive count means
        the admit/depart bookkeeping drifted; failing loudly here beats
        the silent ``dict.get(name, 1) - 1`` this once did, which invented
        a phantom admission and let ``_inflight_total`` go negative
        without anyone noticing.
        """
        if not job.admitted or job._departed:
            return
        job._departed = True
        name = job.task.name
        count = self._inflight.get(name, 0)
        if count <= 0 or self._inflight_total <= 0:
            raise RuntimeError(
                f"in-flight accounting drift: job {name}#{job.index} departed "
                f"with inflight[{name}]={count}, total={self._inflight_total}"
            )
        self._inflight[name] = count - 1
        self._inflight_total -= 1
        self.metrics.record_queue_depth(self.engine.now, self._inflight_total)

    def _release_stage(
        self, job: JobInstance, stage_index: int, predecessor_missed: bool
    ) -> None:
        if job.aborted:
            return
        task = job.task
        spec = task.stages[stage_index]
        priority = promote_if_predecessor_missed(
            self._stage_plans[task.name][0][stage_index],
            predecessor_missed and self.enable_medium_promotion,
        )
        deadline = job.stage_deadlines[stage_index]
        record = self.metrics.stage_released(
            task.name, job.index, stage_index, self.engine.now, deadline
        )
        record.priority = PRIORITY_NAMES[priority]
        stage = StageInstance(spec, job, deadline, priority, record)
        work = spec.composite.base_time
        if self.work_jitter_cv > 0.0:
            work *= 1.0 + self.work_jitter_cv * self._rng.uniform(-1.0, 1.0)
        kernel = StageKernel(
            label=stage.label,
            curve=spec.composite,
            work=work,
            width_demand=spec.width_demand,
            deadline=deadline,
            priority=priority,
            payload=stage,
        )
        stage.kernel = kernel
        job.stage = stage
        context = self.select_context(kernel)
        kernel.setup_remaining = self.reconfig.setup_time(context, task.name)
        record.context_id = context.context_id
        if self.trace is not None:
            self.trace.record(
                self.engine.now,
                STAGE_RELEASE,
                stage=stage.label,
                context=context.context_id,
                priority=record.priority,
                deadline=deadline,
            )
        self.device.submit(kernel, context)

    def _on_kernel_complete(self, kernel: StageKernel) -> None:
        stage: StageInstance = kernel.payload
        # Unlink the finished stage from its kernel and its job, so that
        # reference counting frees the stage and the kernel right away.
        kernel.payload = None
        job = stage.job
        job.stage = None
        now = self.engine.now
        if stage.record is not None:
            stage.record.finish_time = now
        if job.aborted:
            return
        if stage.spec.index == self._stage_plans[job.task.name][1]:
            job.completed = True
            self.metrics.job_completed(job.task.name, job.index, now)
            self._job_departed(job)
            if self.trace is not None:
                self.trace.record(
                    now, JOB_COMPLETE, task=job.task.name, job=job.index
                )
        else:
            missed = now > stage.absolute_deadline
            self._release_stage(job, stage.spec.index + 1, predecessor_missed=missed)

    # ------------------------------------------------------------------
    # Shedding support
    # ------------------------------------------------------------------
    def abort_job(self, job: JobInstance) -> None:
        """Shed a job: abort its stage in flight, queued or resident.

        The abort is one device change point (a single settle pass), and
        a queued stage leaves its context's queue at once.  The stage is
        unlinked from its kernel and its job first, so reference counting
        frees the stage and the kernel.  The job's metrics record
        stays unfinished, so it counts as a deadline miss once its
        deadline passes.
        """
        if job.finished:
            return
        job.aborted = True
        stage = job.stage
        if stage is not None:
            job.stage = None
            kernel = stage.kernel
            kernel.payload = None
            self.device.abort_many([kernel])
        self._job_departed(job)
        if self.trace is not None:
            self.trace.record(
                self.engine.now, JOB_SHED, task=job.task.name, job=job.index
            )
