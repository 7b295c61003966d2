"""Trace-recorder benchmark: columnar vs list-backed memory and speed.

A list-backed trace pays a ``TraceRecord`` named tuple plus a fields dict
per event (~264 bytes/event measured; ~288 when it was a dataclass); the
columnar recorder, which every traced run uses, interns kinds and strings
into flat typed arrays (~49 bytes/event).  ``nbytes()`` counts no presence bytes: the recorder
keeps one layout per kind, so every field is present in every row.  The
v1 on-disk format still writes one presence byte per field and row, all
ones, so a serialised trace takes ~53 bytes/event.  That ~6x gap is what
makes ``record_traces`` sweeps affordable: a million-event point trace
is ~50 MB of Python objects on the list backend but ~5 MB of arrays —
and a ~5 MB trace file — on the columnar one.

Two tiers:

* ``test_trace_memory_guardrail_fast`` (fast tier, every push) gates the
  memory ratio at >= 2x.  The columnar side is ``nbytes()`` (an exact
  deterministic count of the array buffers + intern tables); the list
  side is tracemalloc over the recording loop (deterministic for a fixed
  allocation sequence).  Wall time is reported, not gated, in this tier.
* ``test_trace_throughput`` (slow tier) measures append and replay
  (iteration) events/sec on a bigger trace plus the end-to-end
  serialise/deserialise rate.  The gate is deliberately loose (columnar
  appends within 4x of the list backend's rate; measured at 0.37-0.55x
  the list backend's append time on this 58k-event trace, the last
  chunk's flush included, over 3 runs on a 2-vCPU machine, and at 0.67x
  in one run since ``TraceRecord`` became a named tuple, which made the
  list backend's appends faster): the point of
  the columnar backend is memory, and the gate only guards against an
  accidental order-of-magnitude regression in the hot ``record()`` path.

Results land in ``results/bench_trace.txt`` (human-readable) and
``results/BENCH_trace.json`` (machine-readable trajectory); CI uploads
both as workflow artifacts.
"""

import time
import tracemalloc

import pytest

from benchmarks.conftest import emit, emit_json
from repro.core.context_pool import ContextPoolConfig
from repro.core.runner import RunConfig, run_simulation
from repro.gpu.spec import RTX_2080_TI
from repro.sim.trace import TraceRecorder
from repro.sim.trace_columnar import ColumnarTrace
from repro.sim.trace_io import trace_from_bytes, trace_to_bytes
from repro.workloads.generator import identical_periodic_tasks


def sample_events(num_tasks, duration):
    """A realistic event stream: every kind a real overloaded run emits."""
    pool = ContextPoolConfig.from_oversubscription(2, 1.0, RTX_2080_TI)
    tasks = identical_periodic_tasks(
        num_tasks, nominal_sms=pool.sms_per_context
    )
    result = run_simulation(
        tasks,
        RunConfig(
            pool=pool,
            duration=duration,
            warmup=duration / 4.0,
            record_trace=True,
        ),
    )
    return [(r.time, r.kind, r.fields) for r in result.trace]


def record_into(recorder, events):
    for timestamp, kind, fields in events:
        recorder.record(timestamp, kind, **fields)
    return recorder


def measure(num_tasks, duration):
    events = sample_events(num_tasks, duration)
    count = len(events)

    # list backend: tracemalloc over the recording loop (objects + dicts);
    # a separate untraced pass times the appends (tracemalloc's hooks
    # would otherwise slow the list side ~3x and skew the comparison)
    tracemalloc.start()
    baseline = tracemalloc.get_traced_memory()[0]
    listed = record_into(TraceRecorder(), events)
    list_bytes = tracemalloc.get_traced_memory()[0] - baseline
    tracemalloc.stop()
    started = time.perf_counter()
    record_into(TraceRecorder(), events)
    list_wall = time.perf_counter() - started

    # columnar backend: nbytes() is an exact deterministic buffer count;
    # the len() read columnarises the last pending chunk inside the timing
    started = time.perf_counter()
    columnar = record_into(ColumnarTrace(), events)
    len(columnar)
    columnar_wall = time.perf_counter() - started
    columnar_bytes = columnar.nbytes()

    started = time.perf_counter()
    list_replayed = sum(1 for _ in listed)
    list_iter_wall = time.perf_counter() - started
    started = time.perf_counter()
    columnar_replayed = sum(1 for _ in columnar)
    columnar_iter_wall = time.perf_counter() - started
    assert list_replayed == columnar_replayed == count

    started = time.perf_counter()
    data = trace_to_bytes(columnar)
    serialise_wall = time.perf_counter() - started
    started = time.perf_counter()
    rebuilt = trace_from_bytes(data)
    deserialise_wall = time.perf_counter() - started
    assert len(rebuilt) == count

    return {
        "scenario": {
            "num_tasks": num_tasks,
            "duration": duration,
            "events": count,
        },
        "list": {
            "bytes_per_event": round(list_bytes / count, 1),
            "append_events_per_second": round(count / list_wall, 1),
            "replay_events_per_second": round(count / list_iter_wall, 1),
        },
        "columnar": {
            "bytes_per_event": round(columnar_bytes / count, 1),
            "append_events_per_second": round(count / columnar_wall, 1),
            "replay_events_per_second": round(
                count / columnar_iter_wall, 1
            ),
            "file_bytes_per_event": round(len(data) / count, 1),
            "serialise_events_per_second": round(
                count / serialise_wall, 1
            ),
            "deserialise_events_per_second": round(
                count / deserialise_wall, 1
            ),
        },
        "memory_ratio": round(list_bytes / columnar_bytes, 2),
        "append_slowdown": round(list_wall and columnar_wall / list_wall, 2),
    }


def render(title, record):
    scenario = record["scenario"]
    lines = [
        f"== {title} ==",
        f"scenario: {scenario['num_tasks']} tasks, "
        f"{scenario['duration']:g}s sim, {scenario['events']} events",
        f"{'backend':<10} {'B/event':>8} {'append ev/s':>12} "
        f"{'replay ev/s':>12}",
    ]
    for backend in ("list", "columnar"):
        row = record[backend]
        lines.append(
            f"{backend:<10} {row['bytes_per_event']:>8.1f} "
            f"{row['append_events_per_second']:>12.1f} "
            f"{row['replay_events_per_second']:>12.1f}"
        )
    columnar = record["columnar"]
    lines.append(
        f"memory ratio (list/columnar): {record['memory_ratio']:.2f}x"
    )
    lines.append(
        f"on-disk: {columnar['file_bytes_per_event']:.1f} B/event, "
        f"serialise {columnar['serialise_events_per_second']:.0f} ev/s, "
        f"deserialise {columnar['deserialise_events_per_second']:.0f} ev/s"
    )
    return "\n".join(lines)


def test_trace_memory_guardrail_fast():
    """Fast-tier guardrail: the columnar backend must hold an event in at
    most half the memory the list backend does (measured ~5x less)."""
    record = measure(num_tasks=16, duration=0.5)
    emit("bench_trace.txt", render("trace memory guardrail (fast)", record))
    emit_json("BENCH_trace.json", "memory_guardrail_fast", record)
    assert record["memory_ratio"] >= 2.0, (
        "the columnar trace lost its memory advantage "
        f"(got {record['memory_ratio']:.2f}x, expect ~5x)"
    )
    # the on-disk format must not balloon past the in-memory layout
    assert (
        record["columnar"]["file_bytes_per_event"]
        <= 1.5 * record["columnar"]["bytes_per_event"]
    )


@pytest.mark.slow
def test_trace_throughput():
    """Slow tier: append/replay/serialise rates on a bigger trace.

    The memory contract carries the strict gate (fast tier); here the
    timing gate only rejects an order-of-magnitude regression of the hot
    ``record()`` path — shared CI runners throttle, and a flaky gate
    teaches people to ignore it.
    """
    record = measure(num_tasks=24, duration=3.0)
    emit("bench_trace.txt", render("trace throughput (slow)", record))
    emit_json("BENCH_trace.json", "throughput", record)
    assert record["memory_ratio"] >= 2.0
    assert (
        record["columnar"]["append_events_per_second"]
        >= record["list"]["append_events_per_second"] / 4.0
    ), (
        "columnar record() fell more than 4x behind the list backend "
        f"(got {record['append_slowdown']:.2f}x its time, expect ~0.7x)"
    )
