"""Execution-timeline analysis from traces.

Turns a trace produced by a run with ``record_trace=True`` (a
:class:`~repro.sim.trace_columnar.ColumnarTrace`, whose iteration walks
each kind's columns; everything here only needs iteration over
:class:`~repro.sim.trace.TraceRecord` objects, so a list of records or a
:class:`~repro.sim.trace.TraceRecorder` works too) into per-context
occupancy statistics, per-stage latency breakdowns, and a text Gantt
chart — the tools one actually uses to debug why a task set misses
deadlines.
:func:`first_divergence` compares two traces event by event, which
combined with :mod:`repro.sim.trace_io` shipping makes cross-run
regression hunts ("where do these two runs first differ?") a one-liner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.sim.clock import TIME_EPS
from repro.sim.trace_kinds import KERNEL_DONE, KERNEL_START, STAGE_RELEASE


@dataclass(frozen=True)
class KernelSpan:
    """One stage execution interval on a context."""

    label: str
    context_id: int
    start: float
    end: float
    priority: Optional[str] = None

    @property
    def duration(self) -> float:
        """Wall time the stage occupied its stream."""
        return self.end - self.start


def extract_spans(trace: Iterable) -> List[KernelSpan]:
    """Pair ``kernel_start``/``kernel_done`` records into spans.

    Kernels still resident when the trace ends (no ``kernel_done``) are
    dropped; aborted kernels never produce a ``kernel_done`` and are
    likewise dropped.
    """
    open_starts: Dict[str, Tuple[float, int, Optional[str]]] = {}
    spans: List[KernelSpan] = []
    for record in trace:
        if record.kind == KERNEL_START:
            open_starts[record.get("kernel")] = (
                record.time,
                record.get("context"),
                record.get("priority"),
            )
        elif record.kind == KERNEL_DONE:
            label = record.get("kernel")
            started = open_starts.pop(label, None)
            if started is not None:
                start, context_id, priority = started
                spans.append(
                    KernelSpan(
                        label=label,
                        context_id=context_id,
                        start=start,
                        end=record.time,
                        priority=priority,
                    )
                )
    return spans


def context_occupancy(
    spans: List[KernelSpan], horizon: float
) -> Dict[int, float]:
    """Mean resident-kernel count per context over ``[0, horizon]``.

    A value of 4.0 means the context's four streams were busy the whole
    time; values are not clipped so modelling errors (more than four
    concurrent spans) would show up in tests.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    busy: Dict[int, float] = {}
    for span in spans:
        if span.end == span.start:
            # A zero-work stage still occupied a stream for an instant;
            # give it one epsilon so it registers instead of vanishing.
            overlap = TIME_EPS if span.start <= horizon else 0.0
        else:
            overlap = min(span.end, horizon) - min(span.start, horizon)
        busy[span.context_id] = busy.get(span.context_id, 0.0) + max(overlap, 0.0)
    return {context: total / horizon for context, total in busy.items()}


def stage_latency_breakdown(
    trace: Iterable,
) -> Dict[int, Tuple[float, float]]:
    """Per stage index: (mean queueing delay, mean execution time).

    Queueing delay is release -> kernel start; execution is start -> done.
    Keyed by the stage's index parsed from labels of the form
    ``task/jN/sK``.
    """
    released: Dict[str, float] = {}
    started: Dict[str, float] = {}
    sums: Dict[int, List[float]] = {}
    for record in trace:
        if record.kind == STAGE_RELEASE:
            released[record.get("stage")] = record.time
        elif record.kind == KERNEL_START:
            started[record.get("kernel")] = record.time
        elif record.kind == KERNEL_DONE:
            label = record.get("kernel")
            if label in released and label in started:
                index = int(label.rsplit("/s", 1)[1])
                bucket = sums.setdefault(index, [0.0, 0.0, 0.0])
                bucket[0] += started[label] - released[label]
                bucket[1] += record.time - started[label]
                bucket[2] += 1.0
    return {
        index: (queueing / count, execution / count)
        for index, (queueing, execution, count) in sums.items()
        if count > 0
    }


def render_gantt(
    spans: List[KernelSpan],
    start: float,
    end: float,
    width: int = 80,
) -> str:
    """Text Gantt chart: one row per context, one column per time bucket.

    Cell characters count the spans *touching* each bucket: space for 0,
    digits 1-9, ``+`` above nine.  With buckets wider than a stage's
    runtime the count includes sequential stages, so it is an activity
    density, not an instantaneous concurrency level.  A zero-duration
    span (a zero-work stage) counts in the bucket its instant lands in
    (the last bucket when it sits exactly on ``end``) — the previous
    strict-overlap test made point spans on bucket boundaries invisible.
    """
    if end <= start:
        raise ValueError("end must exceed start")
    contexts = sorted({span.context_id for span in spans})
    bucket = (end - start) / width
    lines = [f"gantt [{start:.3f}s .. {end:.3f}s], {bucket * 1e3:.2f} ms/col"]

    def touches(span: KernelSpan, t0: float, t1: float, last: bool) -> bool:
        if span.end == span.start:
            if last and span.start == t1:
                return True
            return t0 <= span.start < t1
        return span.start < t1 and span.end > t0

    for context_id in contexts:
        row = []
        for column in range(width):
            t0 = start + column * bucket
            t1 = t0 + bucket
            count = sum(
                1
                for span in spans
                if span.context_id == context_id
                and touches(span, t0, t1, column == width - 1)
            )
            if count == 0:
                row.append(" ")
            elif count <= 9:
                row.append(str(count))
            else:
                row.append("+")
        lines.append(f"ctx{context_id} |{''.join(row)}|")
    return "\n".join(lines)


def first_divergence(
    trace_a: Iterable, trace_b: Iterable
) -> Optional[Tuple[int, Optional[object], Optional[object]]]:
    """First event where two traces differ, or ``None`` when identical.

    Compares record by record (time, kind and fields must all match) and
    returns ``(index, record_a, record_b)`` for the first mismatch; a
    record is ``None`` when that trace ended early.  Works across
    recorders and on traces loaded via
    :func:`repro.sim.trace_io.read_trace`, so two stored runs can be
    diffed without re-simulating either.
    """
    iter_a, iter_b = iter(trace_a), iter(trace_b)
    sentinel = object()
    index = 0
    while True:
        record_a = next(iter_a, sentinel)
        record_b = next(iter_b, sentinel)
        if record_a is sentinel and record_b is sentinel:
            return None
        if record_a is sentinel or record_b is sentinel or record_a != record_b:
            return (
                index,
                None if record_a is sentinel else record_a,
                None if record_b is sentinel else record_b,
            )
        index += 1
