"""Per-point evaluation, safe to run in a worker process.

:func:`run_point` is the single execution path behind every sweep: the
serial runner, the ``multiprocessing`` pool workers and the compatibility
wrappers in :mod:`repro.workloads.scenarios` all call it.  It returns a
:class:`PointResult` — a slim, picklable record of the steady-state
metrics, deliberately *not* carrying the :class:`MetricsCollector` or
trace (those can be megabytes per run and would dominate IPC cost).

Traces can still leave the worker — sideways, not through IPC: pass
``trace_store`` and the point runs with columnar tracing on and ships
the serialised trace (:mod:`repro.sim.trace_io`) straight into the run
store's ``traces/`` prefix before returning the slim result.  That is
what ``run_dist_worker(record_traces=True)`` wires up.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.core.context_pool import ContextPoolConfig
from repro.core.runner import RunConfig, run_simulation
from repro.exp.grid import GridPoint, resolve_variant
from repro.gpu.spec import RTX_2080_TI
from repro.workloads.generator import identical_periodic_tasks

#: v2: open-system metrics (goodput / rejection rate / tail latency /
#: queue depth) joined the result payload.  v1 records are still readable
#: (the new fields default to "closed-system run" values).
RESULT_VERSION = 2

_READABLE_RESULT_VERSIONS = (1, 2)


@dataclass(frozen=True)
class PointResult:
    """Steady-state metrics of one evaluated grid point.

    ``elapsed`` is the wall-clock cost of computing the point (0.0 when the
    value came from the cache); it is provenance, not part of the result
    identity.  ``p99_response`` / ``p999_response`` are ``None`` when no
    post-warmup job completed (nothing to take a percentile of).
    """

    point: GridPoint
    total_fps: float
    dmr: float
    utilization: float
    mean_pressure: float
    released: int
    completed: int
    elapsed: float = 0.0
    goodput: float = 0.0
    rejection_rate: float = 0.0
    rejected: int = 0
    p99_response: Optional[float] = None
    p999_response: Optional[float] = None
    mean_queue_depth: float = 0.0
    max_queue_depth: int = 0

    def to_dict(self) -> dict:
        """JSON-serialisable form (used by the on-disk cache)."""
        return {
            "version": RESULT_VERSION,
            "point": self.point.config_dict(),
            "total_fps": self.total_fps,
            "dmr": self.dmr,
            "utilization": self.utilization,
            "mean_pressure": self.mean_pressure,
            "released": self.released,
            "completed": self.completed,
            "elapsed": self.elapsed,
            "goodput": self.goodput,
            "rejection_rate": self.rejection_rate,
            "rejected": self.rejected,
            "p99_response": self.p99_response,
            "p999_response": self.p999_response,
            "mean_queue_depth": self.mean_queue_depth,
            "max_queue_depth": self.max_queue_depth,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PointResult":
        """Inverse of :meth:`to_dict` (v1 records load with defaults).

        Raises
        ------
        ValueError
            On a missing or unsupported result version.
        """
        if payload.get("version") not in _READABLE_RESULT_VERSIONS:
            raise ValueError(
                f"unsupported result version: {payload.get('version')!r}"
            )
        return cls(
            point=GridPoint.from_dict(payload["point"]),
            total_fps=payload["total_fps"],
            dmr=payload["dmr"],
            utilization=payload["utilization"],
            mean_pressure=payload["mean_pressure"],
            released=payload["released"],
            completed=payload["completed"],
            elapsed=payload.get("elapsed", 0.0),
            goodput=payload.get("goodput", 0.0),
            rejection_rate=payload.get("rejection_rate", 0.0),
            rejected=payload.get("rejected", 0),
            p99_response=payload.get("p99_response"),
            p999_response=payload.get("p999_response"),
            mean_queue_depth=payload.get("mean_queue_depth", 0.0),
            max_queue_depth=payload.get("max_queue_depth", 0),
        )


def run_point(point: GridPoint, trace_store=None) -> PointResult:
    """Evaluate one grid point (process-safe, top-level, deterministic).

    With ``trace_store`` (anything :data:`repro.exp.dist.RunStore`
    accepts) the run records a columnar trace and ships it to the store
    under the point's config hash in trace format v1 (see
    :func:`repro.exp.dist.save_point_trace`) before returning; the
    returned :class:`PointResult` stays slim either way.  Worker-pool
    friendly: ``functools.partial(run_point, trace_store=...)`` pickles.
    """
    started = time.perf_counter()
    scheduler, oversubscription, task_stages = resolve_variant(
        point.variant, point.num_stages
    )
    pool = ContextPoolConfig.from_oversubscription(
        point.num_contexts,
        oversubscription,
        RTX_2080_TI,
        allow_stream_borrowing=point.allow_stream_borrowing,
    )
    if point.workload == "identical":
        tasks = identical_periodic_tasks(
            count=point.num_tasks,
            nominal_sms=pool.sms_per_context,
            period=point.period,
            num_stages=task_stages,
        )
    else:
        # Synthesized heterogeneous taskset.  Imported lazily to keep the
        # worker importable before the workloads package finishes loading
        # (repro/__init__ import order).  Monolithic variants (the naive
        # baseline resolves to one stage per task) schedule the same
        # periods/deadlines as staged variants by construction.
        from repro.workloads.synth.scenarios import taskset_for_point

        tasks = taskset_for_point(
            point,
            nominal_sms=pool.sms_per_context,
            monolithic=task_stages == 1,
        )
    result = run_simulation(
        tasks,
        RunConfig(
            pool=pool,
            scheduler=scheduler,
            duration=point.duration,
            warmup=point.warmup,
            work_jitter_cv=point.work_jitter_cv,
            seed=point.seed,
            arrival=point.arrival,
            admission=point.admission,
            record_trace=trace_store is not None,
        ),
    )
    if trace_store is not None:
        from repro.exp.dist import save_point_trace

        save_point_trace(trace_store, point, result.trace)
    return PointResult(
        point=point,
        elapsed=time.perf_counter() - started,
        **result.metrics_summary(),
    )
