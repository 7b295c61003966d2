"""Engine event-churn benchmark: the two completion re-arm modes.

The simulator is the inner loop of every sweep point, and its hottest path
is the change-point settle: the historical design cancelled and re-armed a
completion event for *every* resident kernel on every submit / completion /
abort — O(K) heap churn per change point, O(K²) events per hyperperiod —
and the tombstones it left behind grew the heap without bound.  The
incremental device re-arms O(changed) (see :mod:`repro.gpu.device`) and
the engine compacts tombstone-majority heaps.

Both modes (``incremental`` / the reference ``full``) run an
``admit_all_releases`` backlog with a deterministic O(1) round-robin
context assignment, so the measurement isolates the engine/device layer
instead of SGPRS's O(backlog) placement scans.  The DRAM/L2 aggregate
ceiling is lifted, so rates across contexts stay decoupled: most change
points touch one context and re-arm O(changed).

Both modes produce bit-identical traces (pinned by
``tests/gpu/test_trace_equivalence.py``), so they process the *same* live
events — all that differs is how much scheduling work is wasted re-arming
events whose time never moved.

Two tiers:

* ``test_engine_guardrail_fast`` (fast tier, every push) asserts the
  *deterministic* churn contract — the reference mode schedules >= 2x
  what incremental does — and prints the measured throughput (counts
  cannot flake on shared CI runners; wall time is reported, not gated,
  in this tier).
* ``test_engine_throughput`` (slow tier) measures wall-clock events/sec on
  a bigger instance and asserts incremental >= 1.5x over full (measured
  ~3x on an idle machine).

A ``--runslow`` session writes the results to ``results/bench_engine.txt``
(human-readable) and ``results/BENCH_engine.json`` (the machine-readable
perf trajectory); CI's slow shards upload both as workflow artifacts.
"""

import itertools
import time

import pytest

from conftest import emit, emit_json

from repro.core.sgprs import SgprsScheduler
from repro.gpu.context import SimContext
from repro.gpu.device import GpuDevice
from repro.gpu.spec import GpuDeviceSpec
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import MetricsCollector
from repro.workloads.generator import identical_periodic_tasks

#: The paper's device with the aggregate-speedup ceiling lifted, so rates
#: across contexts stay decoupled (see module docstring).
BENCH_SPEC = GpuDeviceSpec(
    name="RTX 2080 Ti (uncapped aggregate)",
    total_sms=68,
    aggregate_speedup_cap=1e9,
)

MODES = ("incremental", "full")


class BacklogRoundRobin(SgprsScheduler):
    """Admit-everything + O(1) round-robin placement.

    ``admit_all_releases`` lets queues snowball (dense change points);
    round-robin keeps per-release scheduling cost constant so the bench
    measures the device/engine layer, not the placement policy.
    """

    name = "sgprs_backlog_rr"
    admit_all_releases = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._round_robin = itertools.count()

    def select_context(self, kernel):
        contexts = self.device.contexts
        return contexts[next(self._round_robin) % len(contexts)]


def run_contention(rearm, num_contexts, streams_per_class, num_tasks,
                   duration):
    """One high-contention run; returns (engine, device, wall_seconds)."""
    engine = SimulationEngine()
    sms_per_context = BENCH_SPEC.total_sms / num_contexts
    contexts = [
        SimContext(
            index,
            sms_per_context,
            high_streams=streams_per_class,
            low_streams=streams_per_class,
        )
        for index in range(num_contexts)
    ]
    device = GpuDevice(engine, BENCH_SPEC, contexts, rearm=rearm)
    tasks = identical_periodic_tasks(
        num_tasks, nominal_sms=sms_per_context
    )
    scheduler = BacklogRoundRobin(
        engine,
        device,
        tasks,
        MetricsCollector(warmup=duration / 4.0),
        horizon=duration,
    )
    scheduler.start()
    started = time.perf_counter()
    engine.run_until(duration)
    return engine, device, time.perf_counter() - started


def measure(num_contexts, streams_per_class, num_tasks, duration):
    """Run both modes and collect the comparison record."""
    rows = {}
    for rearm in MODES:
        engine, device, wall = run_contention(
            rearm, num_contexts, streams_per_class, num_tasks, duration
        )
        rows[rearm] = {
            "wall_seconds": round(wall, 4),
            "events_processed": engine.processed_count,
            "events_scheduled": engine.scheduled_count,
            "events_per_second": round(engine.processed_count / wall, 1),
            "heap_compactions": engine.compaction_count,
            "final_heap_size": engine.heap_size,
            "alloc_passes": device.alloc_passes,
            "alloc_skips": device.alloc_skips,
        }
    incremental, full = rows["incremental"], rows["full"]
    # bit-identical traces => identical live events in both modes
    assert incremental["events_processed"] == full["events_processed"]
    return {
        "scenario": {
            "device": BENCH_SPEC.name,
            "aggregate_speedup_cap": BENCH_SPEC.aggregate_speedup_cap,
            "num_contexts": num_contexts,
            "streams_per_class": streams_per_class,
            "num_tasks": num_tasks,
            "duration": duration,
            "scheduler": "sgprs admit_all_releases backlog, round-robin",
        },
        "incremental": incremental,
        "full": full,
        "churn_ratio": round(
            full["events_scheduled"] / incremental["events_scheduled"], 2
        ),
        "speedup_events_per_second": round(
            incremental["events_per_second"] / full["events_per_second"], 2
        ),
    }


def render(title, record):
    lines = [
        f"== {title} ==",
        "scenario: {device}, {num_contexts} contexts x {streams_per_class}+"
        "{streams_per_class} streams, {num_tasks} tasks, "
        "{duration:g}s sim, admit-all backlog".format(**record["scenario"]),
        f"{'mode':<12} {'events/s':>10} {'wall s':>8} {'scheduled':>10} "
        f"{'processed':>10} {'compactions':>12}",
    ]
    for mode in MODES:
        row = record[mode]
        lines.append(
            f"{mode:<12} {row['events_per_second']:>10.1f} "
            f"{row['wall_seconds']:>8.3f} {row['events_scheduled']:>10} "
            f"{row['events_processed']:>10} {row['heap_compactions']:>12}"
        )
    lines.append(
        f"churn ratio (full/incremental scheduled): "
        f"{record['churn_ratio']:.2f}x"
    )
    lines.append(
        f"throughput speedup, incremental vs full (events/s): "
        f"{record['speedup_events_per_second']:.2f}x"
    )
    return "\n".join(lines)


def test_engine_guardrail_fast():
    """Fast-tier guardrail (uncapped): the incremental device must schedule
    at most half the events the reference mode does (a deterministic count,
    so the gate cannot flake on shared CI runners)."""
    record = measure(
        num_contexts=8, streams_per_class=2, num_tasks=96, duration=0.25
    )
    emit("bench_engine.txt", render("engine churn guardrail (fast)", record))
    emit_json("BENCH_engine.json", "guardrail_fast", record)
    assert record["churn_ratio"] >= 2.0, (
        "incremental re-arming must at least halve engine event churn "
        f"(got {record['churn_ratio']:.2f}x)"
    )
    # the backlog must actually exercise the skip-pass fast path
    assert record["incremental"]["alloc_skips"] > 0


@pytest.mark.slow
def test_engine_throughput():
    """Slow tier (uncapped): wall-clock events/sec on the big
    high-contention instance shows the >= 2x speedup over the
    re-arm-everything reference (measured ~3x on an idle machine).

    The hard gate on the *timing* ratio is deliberately looser than the
    measured value: shared CI runners can throttle one of the timed runs,
    and a transient-noise failure would teach people to ignore the gate.
    The deterministic churn ratio carries the strict >= 2x contract; the
    recorded snapshot carries the measured speedup.
    """
    record = measure(
        num_contexts=16, streams_per_class=2, num_tasks=384, duration=0.3
    )
    emit("bench_engine.txt", render("engine throughput (high contention)",
                                    record))
    emit_json("BENCH_engine.json", "high_contention", record)
    assert record["churn_ratio"] >= 2.0
    assert record["speedup_events_per_second"] >= 1.5, (
        "incremental re-arming lost its wall-clock advantage on the "
        f"high-contention scenario (got "
        f"{record['speedup_events_per_second']:.2f}x, expect ~3x idle)"
    )


# ----------------------------------------------------------------------
# Scheduler-layer fast path (PR 9): cached occupancy + incremental
# accounting + batched dispatch, measured against the frozen
# ``accounting="scan"`` baseline that re-scans queues per call.
# ----------------------------------------------------------------------

class BacklogSgprs(SgprsScheduler):
    """Admit-everything with the *real* SGPRS placement scans.

    Unlike :class:`BacklogRoundRobin`, placement is the paper's
    three-criteria policy, so every release pays ``queue_empty`` /
    ``free_streams`` / ``queued_count`` / ``estimate_completion`` /
    ``estimated_finish_time`` across all contexts — exactly the
    scheduler-layer surface the PR 9 fast path rebuilt.  The snowballing
    backlog makes the scan-mode cost grow with queue depth while the fast
    mode stays O(contexts) per release.
    """

    name = "sgprs_backlog"
    admit_all_releases = True


def run_sched_backlog(accounting, num_contexts, streams_per_class,
                      num_tasks, duration):
    """One SGPRS-placed backlog run in the given accounting mode."""
    engine = SimulationEngine()
    sms_per_context = BENCH_SPEC.total_sms / num_contexts
    contexts = [
        SimContext(
            index,
            sms_per_context,
            high_streams=streams_per_class,
            low_streams=streams_per_class,
            accounting=accounting,
        )
        for index in range(num_contexts)
    ]
    device = GpuDevice(engine, BENCH_SPEC, contexts)
    tasks = identical_periodic_tasks(num_tasks, nominal_sms=sms_per_context)
    scheduler = BacklogSgprs(
        engine,
        device,
        tasks,
        MetricsCollector(warmup=duration / 4.0),
        horizon=duration,
    )
    scheduler.start()
    started = time.perf_counter()
    engine.run_until(duration)
    wall = time.perf_counter() - started
    return {
        "wall_seconds": round(wall, 4),
        "events_processed": engine.processed_count,
        "events_per_second": round(engine.processed_count / wall, 1),
        "stat_acct_queries": sum(c.stat_acct_queries for c in contexts),
        "stat_scan_elems": sum(c.stat_scan_elems for c in contexts),
        "stat_free_builds": sum(c.stat_free_builds for c in contexts),
        "stat_requeues": sum(c.stat_requeues for c in contexts),
        "stat_compactions": sum(c.stat_compactions for c in contexts),
    }


def measure_sched(num_contexts, streams_per_class, num_tasks, duration):
    """Run both accounting modes and collect the comparison record."""
    rows = {
        accounting: run_sched_backlog(
            accounting, num_contexts, streams_per_class, num_tasks, duration
        )
        for accounting in ("fast", "scan")
    }
    fast, scan = rows["fast"], rows["scan"]
    return {
        "scenario": {
            "device": BENCH_SPEC.name,
            "num_contexts": num_contexts,
            "streams_per_class": streams_per_class,
            "num_tasks": num_tasks,
            "duration": duration,
            "rearm": "incremental",
            "scheduler": "sgprs admit_all_releases backlog, paper placement",
        },
        "fast": fast,
        "scan": scan,
        "scan_elems_ratio": round(
            scan["stat_scan_elems"] / max(fast["stat_scan_elems"], 1), 2
        ),
        "free_builds_ratio": round(
            scan["stat_free_builds"] / max(fast["stat_free_builds"], 1), 2
        ),
        "sched_speedup_events_per_second": round(
            fast["events_per_second"] / scan["events_per_second"], 2
        ),
    }


def render_sched(title, record):
    lines = [
        f"== {title} ==",
        "scenario: {device}, {num_contexts} contexts x {streams_per_class}+"
        "{streams_per_class} streams, {num_tasks} tasks, {duration:g}s sim, "
        "{rearm} rearm, SGPRS placement backlog".format(**record["scenario"]),
        f"{'accounting':<12} {'events/s':>10} {'wall s':>8} "
        f"{'scan elems':>11} {'free builds':>12} {'requeues':>9} "
        f"{'acct calls':>11}",
    ]
    for mode in ("fast", "scan"):
        row = record[mode]
        lines.append(
            f"{mode:<12} {row['events_per_second']:>10.1f} "
            f"{row['wall_seconds']:>8.3f} {row['stat_scan_elems']:>11} "
            f"{row['stat_free_builds']:>12} {row['stat_requeues']:>9} "
            f"{row['stat_acct_queries']:>11}"
        )
    lines.append(
        f"queue-entry scan ratio (scan/fast): "
        f"{record['scan_elems_ratio']:.2f}x"
    )
    lines.append(
        f"free-list build ratio (scan/fast): "
        f"{record['free_builds_ratio']:.2f}x"
    )
    lines.append(
        f"throughput speedup, fast vs scan accounting (events/s): "
        f"{record['sched_speedup_events_per_second']:.2f}x"
    )
    return "\n".join(lines)


def test_sched_guardrail_fast():
    """Fast-tier guardrail: the deterministic scheduler-layer churn
    contracts.  The fast accounting must answer every placement query
    without walking a single queue entry (``stat_scan_elems == 0``) while
    the scan baseline walks >= 2x that floor; occupancy caching must at
    least halve free-list rebuilds; and the batched dispatch must never
    pop-and-requeue a blocked stage.  Counts cannot flake on shared CI
    runners; wall time is reported, not gated, in this tier."""
    record = measure_sched(
        num_contexts=8, streams_per_class=2, num_tasks=96, duration=0.25
    )
    emit(
        "bench_engine.txt",
        render_sched("scheduler-layer churn guardrail (fast)", record),
    )
    emit_json("BENCH_engine.json", "sched_fast", record)
    assert record["fast"]["stat_scan_elems"] == 0, (
        "fast accounting must answer placement queries without scanning "
        f"queues (walked {record['fast']['stat_scan_elems']} entries)"
    )
    assert record["scan_elems_ratio"] >= 2.0
    assert record["free_builds_ratio"] >= 2.0, (
        "cached occupancy must at least halve free-list rebuilds "
        f"(got {record['free_builds_ratio']:.2f}x)"
    )
    assert record["fast"]["stat_requeues"] == 0, (
        "batched dispatch must never pop-and-requeue a blocked stage"
    )
    assert record["scan"]["stat_requeues"] > 0, (
        "the scan baseline must exercise the requeue churn being measured"
    )


@pytest.mark.slow
def test_sched_throughput():
    """Slow tier: wall-clock events/sec on the 16-context SGPRS-placed
    backlog.  The scan baseline pays O(contexts x queued) placement scans
    per release (quadratic in the snowballing backlog); the fast path pays
    O(contexts).  Gate >= 2x over the scan baseline, looser than the
    measured value so shared-runner throttling cannot teach anyone to
    ignore it."""
    record = measure_sched(
        num_contexts=16, streams_per_class=2, num_tasks=384, duration=0.2
    )
    emit(
        "bench_engine.txt",
        render_sched("scheduler-layer throughput (16-context backlog)",
                     record),
    )
    emit_json("BENCH_engine.json", "sched_backlog", record)
    assert record["fast"]["stat_scan_elems"] == 0
    assert record["scan_elems_ratio"] >= 2.0
    assert record["sched_speedup_events_per_second"] >= 2.0, (
        "the scheduler-layer fast path lost its wall-clock advantage on "
        "the 16-context backlog (got "
        f"{record['sched_speedup_events_per_second']:.2f}x, expect more "
        "on an idle machine)"
    )
