"""Discrete-event simulation substrate.

This package provides the deterministic event engine the GPU simulator and
the schedulers are built on, together with tracing and metrics collection.

Public classes
--------------
SimulationEngine
    Binary-heap discrete event engine with stable FIFO tie-breaking.
Event
    Handle returned by :meth:`SimulationEngine.schedule`; cancel it with
    :meth:`SimulationEngine.cancel`.
ColumnarTrace / TraceRecorder
    Structured execution trace: the array-backed columnar recorder every
    traced run records into, and the plain list recorder it is checked
    against.
write_trace / read_trace
    Compact on-disk trace format (:mod:`repro.sim.trace_io`).
MetricsCollector / JobRecord
    Real-time metrics: total FPS, deadline miss rate, response times,
    fed live by the scheduler or by replaying a trace
    (:func:`repro.sim.metrics.metrics_from_trace`).
"""

from repro.sim.clock import TIME_EPS, times_close
from repro.sim.engine import Event, SimulationEngine, SimulationError
from repro.sim.metrics import JobRecord, MetricsCollector, StageRecord
from repro.sim.trace import TraceRecord, TraceRecorder
from repro.sim.trace_columnar import ColumnarTrace
from repro.sim.trace_io import (
    TRACE_FORMAT_VERSION,
    get_trace,
    put_trace,
    read_trace,
    trace_from_bytes,
    trace_to_bytes,
    write_trace,
)

__all__ = [
    "TIME_EPS",
    "times_close",
    "Event",
    "SimulationEngine",
    "SimulationError",
    "JobRecord",
    "StageRecord",
    "MetricsCollector",
    "TraceRecord",
    "TraceRecorder",
    "ColumnarTrace",
    "TRACE_FORMAT_VERSION",
    "trace_to_bytes",
    "trace_from_bytes",
    "write_trace",
    "read_trace",
    "put_trace",
    "get_trace",
]
