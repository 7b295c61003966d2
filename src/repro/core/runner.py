"""One-call simulation runs: assemble engine, device, scheduler; run; report.

This is the layer the examples, benchmarks and sweep harness build on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Type, Union

if TYPE_CHECKING:  # pragma: no cover
    from repro.workloads.arrivals import ArrivalProcess

from repro.core.admission import AdmissionPolicy, resolve_admission
from repro.core.context_pool import ContextPoolConfig, build_contexts
from repro.core.naive import NaiveScheduler, build_naive_contexts
from repro.core.scheduler import SchedulerBase
from repro.core.sequential import SequentialScheduler, build_sequential_context
from repro.core.sgprs import SgprsScheduler
from repro.core.task import TaskSet
from repro.gpu.allocator import AllocationParams
from repro.gpu.device import GpuDevice
from repro.gpu.spec import RTX_2080_TI, GpuDeviceSpec
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import MetricsCollector
from repro.sim.trace_columnar import ColumnarTrace


def validate_horizon(duration: float, warmup: float) -> None:
    """A run's horizon rules: ``duration`` finite and positive, ``warmup``
    in ``[0, duration)``.  Sweep points and specs apply them when built."""
    if not (math.isfinite(duration) and duration > 0):
        raise ValueError(f"duration must be finite and positive, got {duration}")
    if not 0 <= warmup < duration:
        raise ValueError(f"warmup must be in [0, duration), got {warmup}")


@dataclass
class RunConfig:
    """Configuration of one simulation run.

    Attributes
    ----------
    pool:
        Context pool sizing.
    scheduler:
        Scheduler class (``SgprsScheduler`` or ``NaiveScheduler``).
    duration:
        Simulated seconds.
    warmup:
        Seconds excluded from steady-state metrics.
    spec:
        Device architecture (defaults to the paper's RTX 2080 Ti).
    allocation:
        Allocation model constants.
    record_trace:
        Whether to keep a full execution trace (large runs disable it).
        The run records into a
        :class:`~repro.sim.trace_columnar.ColumnarTrace`, serialisable
        via :mod:`repro.sim.trace_io`; an emit site that breaks its
        kind's layout fails the run with a ``ValueError``.
    work_jitter_cv / seed:
        Per-stage execution-time jitter (see
        :class:`repro.core.scheduler.SchedulerBase`) and its seed.
    arrival:
        Arrival process driving releases: a spec string resolved through
        the arrivals registry (``"poisson"``, ``"mmpp:burst=6"``, ...),
        an :class:`~repro.workloads.arrivals.ArrivalProcess` instance, or
        ``""`` for the strictly periodic default (bit-identical to the
        legacy release loop).
    admission:
        Admission policy: a spec string resolved through the admission
        registry (``"reject"``, ``"queue:depth=2"``, ...), an
        :class:`~repro.core.admission.AdmissionPolicy` instance, or
        ``""`` for the legacy skip-if-in-flight hook.
    """

    pool: ContextPoolConfig
    scheduler: Type[SchedulerBase] = SgprsScheduler
    duration: float = 10.0
    warmup: float = 2.0
    spec: GpuDeviceSpec = RTX_2080_TI
    allocation: AllocationParams = field(default_factory=AllocationParams)
    record_trace: bool = False
    work_jitter_cv: float = 0.0
    seed: int = 0
    arrival: Union[str, "ArrivalProcess"] = ""
    admission: Union[str, AdmissionPolicy] = ""

    def __post_init__(self) -> None:
        validate_horizon(self.duration, self.warmup)


@dataclass
class RunResult:
    """Outcome of one simulation run.

    ``total_fps`` and ``dmr`` are the paper's two metrics over the
    steady-state window.
    """

    config: RunConfig
    total_fps: float
    dmr: float
    per_task_fps: Dict[str, float]
    released: int
    completed: int
    utilization: float
    mean_pressure: float
    metrics: MetricsCollector
    #: The run's trace when ``RunConfig.record_trace`` is set.
    trace: Optional[ColumnarTrace]
    goodput: float = 0.0
    rejection_rate: float = 0.0
    rejected: int = 0
    p99_response: Optional[float] = None
    p999_response: Optional[float] = None
    mean_queue_depth: float = 0.0
    max_queue_depth: int = 0

    def summary(self) -> str:
        """One-line human-readable result."""
        return (
            f"{self.config.scheduler.name}: fps={self.total_fps:.1f} "
            f"dmr={self.dmr * 100:.2f}% util={self.utilization * 100:.1f}%"
        )

    def metrics_summary(self) -> Dict[str, float]:
        """The slim scalar record the sweep harness ships across processes.

        Deliberately excludes ``metrics`` and ``trace`` (megabytes on long
        runs) and ``config`` (not JSON-serialisable); this is the whole
        payload a sweep point contributes to figures and caches.
        """
        return {
            "total_fps": self.total_fps,
            "dmr": self.dmr,
            "utilization": self.utilization,
            "mean_pressure": self.mean_pressure,
            "released": self.released,
            "completed": self.completed,
            "goodput": self.goodput,
            "rejection_rate": self.rejection_rate,
            "rejected": self.rejected,
            "p99_response": self.p99_response,
            "p999_response": self.p999_response,
            "mean_queue_depth": self.mean_queue_depth,
            "max_queue_depth": self.max_queue_depth,
        }


def run_simulation(task_set: TaskSet, config: RunConfig) -> RunResult:
    """Execute one run and return its steady-state metrics."""
    task_set.validate()
    engine = SimulationEngine()
    trace = ColumnarTrace() if config.record_trace else None
    if issubclass(config.scheduler, NaiveScheduler):
        contexts = build_naive_contexts(config.pool, config.spec)
    elif issubclass(config.scheduler, SequentialScheduler):
        contexts = build_sequential_context(config.spec)
    else:
        contexts = build_contexts(config.pool, config.spec)
    device = GpuDevice(
        engine,
        config.spec,
        contexts,
        config.allocation,
        trace=trace,
    )
    metrics = MetricsCollector(warmup=config.warmup)
    arrivals = None
    if config.arrival:
        from repro.workloads.arrivals import resolve_arrival

        arrivals = resolve_arrival(config.arrival)
    admission = resolve_admission(config.admission)
    scheduler = config.scheduler(
        engine,
        device,
        task_set,
        metrics,
        trace=trace,
        horizon=config.duration,
        work_jitter_cv=config.work_jitter_cv,
        seed=config.seed,
        arrivals=arrivals,
        admission=admission,
    )
    scheduler.start()
    engine.run_until(config.duration)
    now = engine.now
    result = RunResult(
        config=config,
        per_task_fps=metrics.per_task_fps(now),
        utilization=device.utilization(now),
        mean_pressure=device.mean_pressure(now),
        metrics=metrics,
        trace=trace,
        **metrics.summary(now),
    )
    # The engine and the device stay a reference cycle (the device's
    # pending event calls back into it), but once the scheduler's
    # callbacks are dropped nothing in that cycle refers to the scheduler:
    # it is freed on return, and the collector with the result.
    scheduler.detach()
    return result
