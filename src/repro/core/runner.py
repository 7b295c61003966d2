"""One-call simulation runs: assemble engine, device, scheduler; run; report.

This is the layer the examples, benchmarks and sweep harness build on.
"""

from __future__ import annotations

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
from repro.gpu.device import REARM_MODES, GpuDevice
from repro.gpu.spec import RTX_2080_TI, GpuDeviceSpec
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import MetricsCollector
from repro.sim.trace import TRACE_BACKENDS, TraceRecorder, make_trace_recorder


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
    trace_backend:
        Recorder implementation when tracing
        (:data:`repro.sim.trace.TRACE_BACKENDS`): ``"list"`` (default)
        keeps one dataclass per event, ``"columnar"`` the array-backed
        :class:`~repro.sim.trace_columnar.ColumnarTrace` — same query
        results, a fraction of the memory, serialisable via
        :mod:`repro.sim.trace_io`.
    work_jitter_cv / seed:
        Per-stage execution-time jitter (see
        :class:`repro.core.scheduler.SchedulerBase`) and its seed.
    rearm_mode:
        Completion re-arming strategy of the device
        (:data:`repro.gpu.device.REARM_MODES`): ``"incremental"``
        (default) or the reference ``"full"`` re-arm-everything mode.
        Both produce bit-identical traces; ``"full"`` exists for
        equivalence tests and as the engine benchmark baseline.
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
    trace_backend: str = "list"
    work_jitter_cv: float = 0.0
    seed: int = 0
    rearm_mode: str = "incremental"
    arrival: Union[str, "ArrivalProcess"] = ""
    admission: Union[str, AdmissionPolicy] = ""

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if not 0 <= self.warmup < self.duration:
            raise ValueError(
                f"warmup must be in [0, duration), got {self.warmup}"
            )
        if self.rearm_mode not in REARM_MODES:
            raise ValueError(
                f"rearm_mode must be one of {REARM_MODES}, got "
                f"{self.rearm_mode!r}"
            )
        if self.trace_backend not in TRACE_BACKENDS:
            raise ValueError(
                f"trace_backend must be one of {TRACE_BACKENDS}, got "
                f"{self.trace_backend!r}"
            )


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
    #: Either recorder backend (same query API); see RunConfig.trace_backend.
    trace: Optional[TraceRecorder]
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
    trace = make_trace_recorder(
        config.trace_backend, enabled=config.record_trace
    )
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
        trace=trace if config.record_trace else None,
        rearm=config.rearm_mode,
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
        trace=trace if config.record_trace else None,
        horizon=config.duration,
        work_jitter_cv=config.work_jitter_cv,
        seed=config.seed,
        arrivals=arrivals,
        admission=admission,
    )
    scheduler.start()
    engine.run_until(config.duration)
    now = engine.now
    return RunResult(
        config=config,
        total_fps=metrics.total_fps(now),
        dmr=metrics.deadline_miss_rate(now),
        per_task_fps=metrics.per_task_fps(now),
        released=metrics.released_count(),
        completed=metrics.completed_count(),
        utilization=device.utilization(now),
        mean_pressure=device.mean_pressure(now),
        metrics=metrics,
        trace=trace if config.record_trace else None,
        goodput=metrics.goodput(now),
        rejection_rate=metrics.rejection_rate(now),
        rejected=metrics.rejected_count(),
        p99_response=metrics.response_time_percentile(0.99),
        p999_response=metrics.response_time_percentile(0.999),
        mean_queue_depth=metrics.mean_queue_depth(now),
        max_queue_depth=metrics.max_queue_depth(now),
    )
