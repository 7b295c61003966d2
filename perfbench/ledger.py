"""Span ledger: per-layer host time and work counts, measured from outside.

Nothing under ``src/`` knows about the ledger.  :func:`installed` patches
the public boundaries of each simulator layer with wrappers that open a
span on an in-memory stack, and restores every original on exit, so only
the traced repeat pays for the wrappers.

* A span's duration is charged to its layer as *self* time minus the time
  its child spans cover; the self times of all layers therefore sum to
  the root span (the workload call) exactly.
* Functions imported by name are patched where the caller looks them up
  (``compute_allocation`` inside ``repro.gpu.device``, ``run_simulation``
  inside ``repro.exp.worker``, ...).
* Engine event actions are classified by their public ``Event.tag``
  prefix: ``release:`` actions are scheduler spans, ``complete:`` actions
  device spans.  The classification happens in a wrapper of
  ``SimulationEngine.schedule_at``.
* Engine, device and context instances are captured by wrapping their
  constructors, so their public counters can be summed afterwards.
* Hot same-layer re-entries (``CompositeWorkload.speedup`` calling
  ``time_at``, the water-fill inside ``compute_allocation``, ...) are only
  counted, not given a span of their own: the enclosing span of the same
  layer already covers their time.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

#: A span's ``(layer, op)`` key.
SpanKey = Tuple[str, str]

ROOT_LAYER = "bench"

#: MetricsCollector methods fed during a run (``sim.metrics.calls``); its
#: other public methods are the end-of-run queries (``finalize_s``).
_METRICS_FEED = (
    "job_released",
    "job_completed",
    "job_rejected",
    "record_queue_depth",
    "stage_released",
)
_METRICS_QUERY = (
    "total_fps",
    "deadline_miss_rate",
    "per_task_fps",
    "per_task_dmr",
    "stage_miss_rate",
    "response_times",
    "response_time_percentile",
    "rejection_rate",
    "rejected_count",
    "goodput",
    "mean_queue_depth",
    "max_queue_depth",
    "released_count",
    "completed_count",
)
_CONTEXT_METHODS = (
    "enqueue",
    "queued_count",
    "queue_empty",
    "is_idle",
    "resident_kernels",
    "free_streams",
    "free_stream_count",
    "dispatch_ready",
    "remove",
    "backlog_work",
    "estimated_finish_time",
    "estimate_completion",
)


class Ledger:
    """Spans and counters of one traced workload repeat."""

    def __init__(self) -> None:
        #: Open spans: ``[layer, child seconds, start]``.
        self._stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Inclusive seconds of the outermost spans of each ``(layer, op)``.
        self.op_s: Dict[SpanKey, float] = defaultdict(float)
        #: Calls of each wrapped ``(layer, op)``, folded re-entries included.
        self.calls: Counter = Counter()
        #: Named work counts the wrappers observe (decisions, bytes, ...).
        self.counts: Counter = Counter()
        self.engines: list = []
        self.devices: list = []
        self.contexts: list = []
        #: Effective cancels per engine instance.
        self.cancels: Counter = Counter()
        self.root_s = 0.0

    def spanned(
        self, layer: str, op: str, fn: Callable, fold: bool = False
    ) -> Callable:
        """``fn`` wrapped in a span of ``layer``.

        With ``fold`` a call made while a span of the same layer is on top
        of the stack is only counted.
        """
        stack = self._stack
        self_s = self.self_s
        op_s = self.op_s
        calls = self.calls
        key = (layer, op)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[key] += 1
            if fold and stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0, clock()]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[2]
                stack.pop()
                self_s[layer] += duration - frame[1]
                op_s[key] += duration
                if stack:
                    stack[-1][1] += duration

        return wrapper

    def root(self, fn: Callable[[], object]) -> object:
        """Run ``fn`` as the root span; its duration lands in ``root_s``."""
        if self._stack:
            raise RuntimeError("the root span must be the outermost span")
        try:
            return self.spanned(ROOT_LAYER, "workload", fn)()
        finally:
            self.root_s = self.op_s[(ROOT_LAYER, "workload")]

    def spans(self) -> dict:
        """The recorded spans, aggregated per layer and per ``(layer, op)``."""
        return {
            "root_s": self.root_s,
            "self_s": dict(sorted(self.self_s.items())),
            "ops": [
                {
                    "layer": layer,
                    "op": op,
                    "calls": self.calls[(layer, op)],
                    "inclusive_s": self.op_s.get((layer, op), 0.0),
                }
                for layer, op in sorted(self.calls)
            ],
            "counts": dict(sorted(self.counts.items())),
        }


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def wrap(self, owner: object, name: str, make: Callable) -> None:
        """Replace ``owner.name`` with ``make(original)``."""
        original = vars(owner)[name]
        self._undo.append((owner, name, original))
        setattr(owner, name, functools.wraps(original)(make(original)))

    def undo(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def _subclasses(cls: type) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def _capture(bucket: list) -> Callable:
    """Constructor wrapper factory that records every new instance."""

    def make(init):
        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            bucket.append(obj)

        return __init__

    return make


class _Draws:
    """An arrival stream whose draws run inside arrival-layer spans."""

    __slots__ = ("_next",)

    def __init__(self, next_draw: Callable) -> None:
        self._next = next_draw

    def __iter__(self) -> "_Draws":
        return self

    def __next__(self) -> float:
        return self._next()


def _patch_all(ledger: Ledger, patches: _Patches) -> None:
    from repro.core import admission as admission_mod
    from repro.core.scheduler import SchedulerBase
    from repro.exp import cache as cache_mod
    from repro.exp import runner as runner_mod
    from repro.exp import worker as worker_mod
    from repro.gpu import allocator as allocator_mod
    from repro.gpu import device as device_mod
    from repro.gpu.context import SimContext
    from repro.sim import metrics as metrics_mod
    from repro.sim import trace_io
    from repro.sim.engine import SimulationEngine
    from repro.sim.trace import TraceRecorder
    from repro.sim.trace_columnar import ColumnarTrace
    from repro.speedup.composite import CompositeWorkload
    from repro.workloads.arrivals.base import ArrivalProcess

    spanned = ledger.spanned
    counts = ledger.counts

    def span_method(owner, name, layer, op=None, fold=False):
        patches.wrap(
            owner, name, lambda fn: spanned(layer, op or name, fn, fold)
        )

    # speedup.composite: the CompositeWorkload boundary, not the
    # per-operator curves underneath it.
    for name in ("time_at", "speedup", "width_demand"):
        span_method(CompositeWorkload, name, "speedup.composite", fold=True)

    # sim.engine: run_until, heap pushes and cancels; event actions are
    # classified by their tag prefix.
    patches.wrap(SimulationEngine, "__init__", _capture(ledger.engines))
    span_method(SimulationEngine, "run_until", "sim.engine")

    def classify(schedule_at):
        def classified(engine, when, action, tag=""):
            if tag.startswith("complete:"):
                counts["rearms"] += 1
                action = spanned("gpu.device", "complete", action)
            elif tag.startswith("release:"):
                action = spanned("core.scheduler", "release", action)
            return schedule_at(engine, when, action, tag)

        return spanned("sim.engine", "schedule_at", classified)

    patches.wrap(SimulationEngine, "schedule_at", classify)

    def count_cancels(cancel):
        def counted(engine, event):
            if not (event.cancelled or event.fired):
                ledger.cancels[engine] += 1
            return cancel(engine, event)

        return spanned("sim.engine", "cancel", counted)

    patches.wrap(SimulationEngine, "cancel", count_cancels)

    # gpu.device: change points entered from the scheduler (completion
    # events are classified above).
    patches.wrap(device_mod.GpuDevice, "__init__", _capture(ledger.devices))
    for name in ("submit", "abort", "abort_many"):
        span_method(device_mod.GpuDevice, name, "gpu.device")

    # gpu.allocator: the allocation pass where the device looks it up, and
    # the water-fill where the cache and the allocator look it up.
    patches.wrap(
        device_mod,
        "compute_allocation",
        lambda fn: spanned("gpu.allocator", "compute_allocation", fn),
    )
    patches.wrap(
        allocator_mod,
        "intra_context_shares",
        lambda fn: spanned("gpu.allocator", "waterfill", fn, fold=True),
    )

    # gpu.context
    patches.wrap(SimContext, "__init__", _capture(ledger.contexts))
    for name in _CONTEXT_METHODS:
        span_method(SimContext, name, "gpu.context", fold=True)

    # core.scheduler: release actions (above), the completion callback the
    # scheduler installs on the device, and job shedding.
    def wrap_callback(init):
        def __init__(scheduler, *args, **kwargs):
            init(scheduler, *args, **kwargs)
            device = scheduler.device
            device.on_kernel_complete = spanned(
                "core.scheduler", "on_kernel_complete", device.on_kernel_complete
            )

        return __init__

    patches.wrap(SchedulerBase, "__init__", wrap_callback)
    span_method(SchedulerBase, "abort_job", "core.scheduler")

    # core.admission: the legacy hook and every policy's decide().
    def count_hook(admit_job):
        def counted(scheduler, job, previous):
            admitted = admit_job(scheduler, job, previous)
            counts["decisions"] += 1
            if not admitted:
                counts["skips"] += 1
            return admitted

        return spanned("core.admission", "admit_job", counted)

    patches.wrap(SchedulerBase, "admit_job", count_hook)
    decision = admission_mod.AdmissionDecision

    def count_decide(decide):
        def counted(policy, job, previous, inflight):
            outcome = decide(policy, job, previous, inflight)
            counts["decisions"] += 1
            if outcome is decision.REJECT:
                counts["rejects"] += 1
            elif outcome is decision.SKIP:
                counts["skips"] += 1
            return outcome

        return spanned("core.admission", "decide", counted)

    for policy in _subclasses(admission_mod.AdmissionPolicy):
        if "decide" in vars(policy):
            patches.wrap(policy, "decide", count_decide)

    # workloads.arrivals: every draw from every arrival stream.
    def count_draws(stream):
        def drawn(process, task, seed):
            iterator = stream(process, task, seed)
            return _Draws(
                spanned("workloads.arrivals", "draw", iterator.__next__)
            )

        return drawn

    for process in _subclasses(ArrivalProcess):
        if "stream" in vars(process):
            patches.wrap(process, "stream", count_draws)

    # sim.metrics
    for name in _METRICS_FEED + _METRICS_QUERY:
        span_method(metrics_mod.MetricsCollector, name, "sim.metrics", fold=True)

    # sim.trace: recording, serialisation, decoding and replay.
    for recorder in (TraceRecorder, ColumnarTrace):
        span_method(recorder, "record", "sim.trace", op="record")

    def count_bytes(to_bytes):
        def counted(trace):
            data = to_bytes(trace)
            counts["bytes"] += len(data)
            return data

        return spanned("sim.trace", "serialise", counted)

    patches.wrap(trace_io, "trace_to_bytes", count_bytes)
    patches.wrap(
        trace_io,
        "trace_from_bytes",
        lambda fn: spanned("sim.trace", "decode", fn),
    )
    patches.wrap(
        metrics_mod,
        "metrics_from_trace",
        lambda fn: spanned("sim.trace", "replay", fn),
    )

    # exp: the sweep harness; core.runner: run_simulation's own set-up.
    patches.wrap(runner_mod, "run_grid", lambda fn: spanned("exp", "run_grid", fn))
    patches.wrap(
        worker_mod, "run_point", lambda fn: spanned("exp", "run_point", fn)
    )
    patches.wrap(
        worker_mod,
        "run_simulation",
        lambda fn: spanned("core.runner", "run_simulation", fn),
    )
    span_method(cache_mod.ResultCache, "put", "exp", op="cache_put")
    span_method(cache_mod.ResultCache, "get", "exp", op="cache_get")


@contextmanager
def installed(ledger: Ledger) -> Iterator[Ledger]:
    """Patch every layer boundary for ``ledger``; restore on exit."""
    patches = _Patches()
    try:
        _patch_all(ledger, patches)
        yield ledger
    finally:
        patches.undo()


def layer_metrics(ledger: Ledger) -> Dict[str, float]:
    """The per-layer metrics of one traced repeat, by ``BENCHMARK.json``
    name (``bench.trace_overhead_ratio`` needs the untraced wall and is
    added by the runner)."""
    calls = ledger.calls
    counts = ledger.counts
    self_s = ledger.self_s
    op_s = ledger.op_s
    engines = ledger.engines
    devices = ledger.devices
    events = sum(engine.processed_count for engine in engines)
    passes = sum(device.alloc_passes for device in devices)
    skips = sum(device.alloc_skips for device in devices)
    records = calls[("sim.trace", "record")]
    trace_bytes = counts["bytes"]
    run_grid_s = op_s.get(("exp", "run_grid"), 0.0)
    run_point_s = op_s.get(("exp", "run_point"), 0.0)
    return {
        "speedup.composite.time_at_calls": calls[("speedup.composite", "time_at")],
        "speedup.composite.speedup_calls": calls[("speedup.composite", "speedup")],
        "speedup.composite.width_demand_calls": calls[
            ("speedup.composite", "width_demand")
        ],
        "speedup.composite.self_s": self_s["speedup.composite"],
        "sim.engine.events": events,
        "sim.engine.heap_pushes": sum(e.scheduled_count for e in engines),
        "sim.engine.cancels": sum(ledger.cancels.values()),
        "sim.engine.compactions": sum(e.compaction_count for e in engines),
        "sim.engine.self_s": self_s["sim.engine"],
        "sim.engine.ns_per_event": (
            self_s["sim.engine"] / events * 1e9 if events else 0.0
        ),
        "gpu.device.settles": passes + skips,
        "gpu.device.completions": calls[("gpu.device", "complete")],
        "gpu.device.rearms": counts["rearms"],
        "gpu.device.self_s": self_s["gpu.device"],
        "gpu.allocator.passes": passes,
        "gpu.allocator.skips": skips,
        "gpu.allocator.waterfill_misses": calls[("gpu.allocator", "waterfill")],
        "gpu.allocator.self_s": self_s["gpu.allocator"],
        "gpu.context.dispatch_calls": calls[("gpu.context", "dispatch_ready")],
        "gpu.context.free_builds": sum(
            c.stat_free_builds for c in ledger.contexts
        ),
        "gpu.context.acct_queries": sum(
            c.stat_acct_queries for c in ledger.contexts
        ),
        "gpu.context.self_s": self_s["gpu.context"],
        "core.scheduler.jobs_released": calls[("core.scheduler", "release")],
        "core.scheduler.stages_released": calls[
            ("sim.metrics", "stage_released")
        ],
        "core.scheduler.jobs_skipped": counts["skips"],
        "core.scheduler.self_s": self_s["core.scheduler"],
        "core.admission.decisions": counts["decisions"],
        "core.admission.rejects": counts["rejects"],
        "core.admission.self_s": self_s["core.admission"],
        "workloads.arrivals.draws": calls[("workloads.arrivals", "draw")],
        "workloads.arrivals.self_s": self_s["workloads.arrivals"],
        "sim.metrics.calls": sum(
            calls[("sim.metrics", name)] for name in _METRICS_FEED
        ),
        "sim.metrics.self_s": self_s["sim.metrics"],
        "sim.metrics.finalize_s": sum(
            op_s.get(("sim.metrics", name), 0.0) for name in _METRICS_QUERY
        ),
        "sim.trace.records": records,
        "sim.trace.record_s": op_s.get(("sim.trace", "record"), 0.0),
        "sim.trace.bytes": trace_bytes,
        "sim.trace.bytes_per_record": (
            trace_bytes / records if records else 0.0
        ),
        "sim.trace.serialise_s": op_s.get(("sim.trace", "serialise"), 0.0),
        "sim.trace.replay_s": op_s.get(("sim.trace", "decode"), 0.0)
        + op_s.get(("sim.trace", "replay"), 0.0),
        "sim.trace.self_s": self_s["sim.trace"],
        "exp.points": calls[("exp", "run_point")],
        "exp.cache_puts": calls[("exp", "cache_put")],
        "exp.cache_put_s": op_s.get(("exp", "cache_put"), 0.0),
        "exp.runner_overhead_s": (
            run_grid_s - run_point_s if run_grid_s else 0.0
        ),
        "exp.worker_overhead_s": (
            run_point_s - op_s.get(("core.runner", "run_simulation"), 0.0)
            if run_point_s
            else 0.0
        ),
        "exp.self_s": self_s["exp"],
        "core.runner.self_s": self_s["core.runner"],
        "bench.root_s": ledger.root_s,
        "bench.self_s": self_s[ROOT_LAYER],
    }
