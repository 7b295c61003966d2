#!/usr/bin/env python3
"""Paper-shaped end-to-end benchmark of the SGPRS simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig3_fast --seed 1 --seconds 20 --trace 0

One client runs a workload back to back, serially and in-process (a
closed loop, the path ``repro fig3`` takes).  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of
``BENCHMARK.json`` from repeats run under the span ledger, alternating
with untraced repeats for the tracing overhead.  Every metric is printed
by name with its unit, the last line of standard output is one JSON
object, and the spans of a traced run are written to
``perfbench/out/spans-<workload>-seed<seed>.json``.

Host numbers (``wall_s``, ``setup_s``, ``peak_rss_mb``, ``*_s``) are host
time and memory of this process; every ``sim_*`` number is simulated time
on the modelled RTX 2080 Ti.  The model has no hardware reference in the
repository, so it is unvalidated and no error figure is given.

``wall_s`` and ``setup_s`` are in reference-speed seconds: host time
scaled by the speed of a fixed pure-Python reference loop, sampled all
through each timed repeat and just around each set-up probe (see
``HostSpeed``).  On a shared host whose speed drifts by tens of percent
within seconds, the scaled time moves far less than the raw time; the
raw times are printed on the summary lines.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from ledger import Ledger, installed, layer_metrics
from workloads import WORKLOADS, sim_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Fresh processes timed from spawn to the first simulated event.
SETUP_PROBES = 7
#: Timed repeats a run makes even when ``--seconds`` has already elapsed.
MIN_REPEATS = 2
#: Simulated seconds of the untimed warm-up repeat: enough to build every
#: task template (a process-wide cache) and import what the workload loads
#: lazily, so that timed repeats measure steady-state cost.
WARMUP_HORIZON = 0.05
#: Nominal host seconds per iteration of the reference loop: host times
#: are reported as if the loop ran at this speed (about what a quiet
#: 2-vCPU KVM sandbox gives).
REFERENCE_S_PER_ITERATION = 1e-6
#: Reference-loop iterations run around each set-up probe.
BRACKET_ITERATIONS = 150_000
#: Reference-loop iterations per speed sample taken during a timed repeat,
#: and the timer period that triggers the samples (about 8% of the time).
SAMPLE_ITERATIONS = 2_000
SAMPLE_PERIOD_S = 0.025

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_fps": "frames/sim_s",
    "sim_on_time_rate": "ratio",
    "sim_goodput": "jobs/sim_s",
    "sim_p99_response_ms": "sim_ms",
    "sim_admit_rate": "ratio",
}


def _unit_of_layer_metric(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ns_per_event"):
        return "ns"
    if name.endswith("bytes_per_record"):
        return "bytes/record"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _is_timing(name: str) -> bool:
    """Whether a per-layer metric is a host timing (else a repeatable count)."""
    return _unit_of_layer_metric(name) in ("s", "ns")


def _reference_loop(iterations: int) -> float:
    """Seconds of a fixed interpreter-bound loop: heap, dict and float work
    like the simulator's, but no code of the repository."""
    started = time.perf_counter()
    heap: list = []
    table: Dict[int, float] = {}
    acc = 0.0
    for i in range(iterations):
        key = (i * 7919) % 1009
        heapq.heappush(heap, (key * 0.5, i))
        table[key] = table.get(key, 0.0) + i * 1.5
        if len(heap) > 64:
            due, seq = heapq.heappop(heap)
            acc += due / (seq + 1)
    return time.perf_counter() - started


def _to_reference(seconds: float, loop_s: float, iterations: int) -> float:
    """``seconds`` at the speed the reference loop ran, in seconds at the
    nominal speed ``REFERENCE_S_PER_ITERATION``."""
    return seconds * iterations * REFERENCE_S_PER_ITERATION / loop_s


class HostSpeed:
    """Times calls in reference-speed seconds.

    The speed of a shared host drifts by tens of percent within seconds,
    so the reference loop is sampled all through a timed call: a timer
    signal runs ``SAMPLE_ITERATIONS`` of it every ``SAMPLE_PERIOD_S``.
    The call's own time is the elapsed time minus the samples, scaled by
    the samples' mean speed.
    """

    def __init__(self) -> None:
        self.sampled_s = 0.0
        self.samples = 0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        self.sampled_s += _reference_loop(SAMPLE_ITERATIONS)
        self.samples += 1

    def time(self, call):
        """``(raw seconds, reference-speed seconds, result)`` of ``call()``."""
        sampled_s, samples = self.sampled_s, self.samples
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        started = time.perf_counter()
        try:
            result = call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            elapsed = time.perf_counter() - started
        sampled_s = self.sampled_s - sampled_s
        samples = self.samples - samples
        own = elapsed - sampled_s
        if samples == 0:
            sampled_s, samples = _reference_loop(SAMPLE_ITERATIONS), 1
        loop_s = sampled_s / samples
        return own, _to_reference(own, loop_s, SAMPLE_ITERATIONS), result


def _import_repro() -> None:
    """Make the checkout's ``src/`` importable; fail when it is absent."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401


class _FirstEvent(Exception):
    """Raised by the set-up probe when the first event is about to fire."""


def probe_setup(name: str, seed: int) -> None:
    """Child side of ``setup_s``: stop the workload at its first event.

    Prints the ``time.monotonic()`` reading taken when the engine starts
    running events; the parent subtracts its own reading from just before
    it spawned this process.
    """
    _import_repro()
    from repro.sim.engine import SimulationEngine

    def run_until(engine, horizon, max_events=None):
        raise _FirstEvent(time.monotonic())

    SimulationEngine.run_until = run_until
    workload = WORKLOADS[name](seed)
    OUT.mkdir(exist_ok=True)
    try:
        workload.run(OUT)()
    except _FirstEvent as first:
        print(repr(first.args[0]))
    else:
        raise RuntimeError(f"{name} finished without running an event")
    finally:
        workload.cleanup()


def measure_setup(name: str, seed: int, probes: int) -> tuple:
    """Seconds from process spawn to the first simulated event, per probe,
    raw and in reference-speed seconds (the reference loop timed just
    before and just after each probe)."""
    raw: List[float] = []
    scaled: List[float] = []
    before = _reference_loop(BRACKET_ITERATIONS)
    for _ in range(probes):
        started = time.monotonic()
        child = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload",
                name,
                "--seed",
                str(seed),
                "--setup-probe",
            ],
            capture_output=True,
            text=True,
            timeout=60,
            cwd=ROOT,
        )
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{child.stderr}")
        raw.append(float(child.stdout.split()[-1]) - started)
        after = _reference_loop(BRACKET_ITERATIONS)
        scaled.append(_to_reference(raw[-1], (before + after) / 2, BRACKET_ITERATIONS))
        before = after
    return raw, scaled


class Run:
    """Repeats of one workload, their checks and their measurements."""

    def __init__(self, workload, speed: HostSpeed) -> None:
        self.workload = workload
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.reference = None
        self.digest = ""
        self.walls: List[float] = []
        self.scaled_walls: List[float] = []
        self.traced_walls: List[float] = []
        self.layers: List[Dict[str, float]] = []
        self.spans: List[dict] = []

    def repeat(self, traced: bool = False) -> None:
        """Run, time and check one repeat."""
        call = self.workload.run(OUT)
        gc.collect()
        ledger = None
        try:
            if traced:
                ledger = Ledger()
                with installed(ledger):
                    outcome = ledger.root(call)
                self.traced_walls.append(ledger.root_s)
            else:
                wall, scaled, outcome = self.speed.time(call)
                self.walls.append(wall)
                self.scaled_walls.append(scaled)
        finally:
            self.workload.cleanup()
        self.workload.check(outcome)
        self.attempted += outcome.points
        failing = {label for label, _ in outcome.failures}
        for label, reason in outcome.failures:
            self.failures.append(f"{label}: {reason}")
        digest = outcome.digest()
        outcome.trace = b""  # hashed: keep no megabytes alive across repeats
        if self.reference is None:
            self.reference, self.digest = outcome, digest
        elif digest != self.digest:
            failing |= {r.point.label for r in outcome.results}
            self.failures.append("result digest differs from the first repeat")
        if ledger is not None:
            failing |= self._check_ledger(ledger, outcome)
        self.failed += len(failing)

    def _check_ledger(self, ledger, outcome) -> set:
        failing = set()
        for engine, result in zip(ledger.engines, outcome.results):
            expected = (
                engine.scheduled_count
                - ledger.cancels[engine]
                - engine.pending_count
            )
            if engine.processed_count != expected:
                failing.add(result.point.label)
                self.failures.append(
                    f"{result.point.label}: events {engine.processed_count} "
                    f"!= heap pushes - cancels - pending = {expected}"
                )
        if len(ledger.engines) != len(outcome.results):
            failing |= {r.point.label for r in outcome.results}
            self.failures.append(
                f"{len(ledger.engines)} engines for {len(outcome.results)} points"
            )
        layers = layer_metrics(ledger)
        if self.layers:
            first = self.layers[0]
            moved = [
                name
                for name in first
                if not _is_timing(name) and layers[name] != first[name]
            ]
            if moved:
                failing |= {r.point.label for r in outcome.results}
                self.failures.append(f"per-layer counts moved: {moved}")
        self.layers.append(layers)
        self.spans.append(ledger.spans())
        return failing


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    duration: Optional[float] = None,
    warmup: Optional[float] = None,
    setup_probes: int = SETUP_PROBES,
) -> dict:
    """One benchmark run; returns the result object the runner prints."""
    _import_repro()
    OUT.mkdir(exist_ok=True)
    setup, scaled_setup = (
        ([], []) if trace else measure_setup(name, seed, setup_probes)
    )
    speed = HostSpeed()
    warm = Run(WORKLOADS[name](seed, WARMUP_HORIZON, 0.0), speed)
    warm.repeat()
    run = Run(WORKLOADS[name](seed, duration, warmup), speed)
    run.attempted, run.failed = warm.attempted, warm.failed
    run.failures = warm.failures
    deadline = time.perf_counter() + seconds
    while True:
        run.repeat()
        if trace:
            run.repeat(traced=True)
        if len(run.walls) >= MIN_REPEATS and time.perf_counter() >= deadline:
            break

    summary = [
        f"# {name} seed={seed} trace={int(trace)}: {len(run.walls)} timed "
        f"untraced repeats"
        + (f" + {len(run.traced_walls)} traced" if trace else "")
        + f" after a {WARMUP_HORIZON} s warm-up, {run.attempted} points "
        f"attempted, "
        f"{run.failed} failed"
    ]
    metrics: Dict[str, dict] = {}

    def report(metric, value, unit, samples=None) -> None:
        metrics[metric] = {"value": value, "unit": unit}
        line = f"#   {metric:<40} {value:>16.6f} {unit}"
        if samples is not None and len(samples) > 1:
            q1, _, q3 = statistics.quantiles(samples, n=4)
            line += f"  (median of {len(samples)}; q1 {q1:.6f}, q3 {q3:.6f})"
        summary.append(line)

    if trace:
        for metric in run.layers[0]:
            unit = _unit_of_layer_metric(metric)
            samples = [layers[metric] for layers in run.layers]
            if _is_timing(metric):
                report(metric, statistics.median(samples), unit, samples)
            else:
                report(metric, samples[0], unit)
        report(
            "bench.trace_overhead_ratio",
            statistics.median(run.traced_walls) / statistics.median(run.walls),
            "ratio",
        )
        spans_path = OUT / f"spans-{name}-seed{seed}.json"
        spans_path.write_text(
            json.dumps({"workload": name, "seed": seed, "repeats": run.spans}, indent=1)
        )
        summary.append(f"# spans written to {spans_path.relative_to(ROOT)}")
    else:
        # Reference-speed seconds; see HostSpeed.
        report("wall_s", statistics.median(run.scaled_walls), "s", run.scaled_walls)
        report("setup_s", statistics.median(scaled_setup), "s", scaled_setup)
        for label, raw in (("raw wall", run.walls), ("raw set-up", setup)):
            summary.append(
                f"#   ({label}: median {statistics.median(raw):.6f} s, "
                f"min {min(raw):.6f} s, max {max(raw):.6f} s)"
            )
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        report("peak_rss_mb", peak_kb / 1024.0, "MB")
        for metric, value in sim_metrics(run.reference.results).items():
            report(metric, value, END_TO_END_UNITS[metric])
        raw = run.reference.results
        summary.append(
            "#   (raw: mean DMR "
            f"{statistics.fmean(r.dmr for r in raw):.6f}, mean rejection rate "
            f"{statistics.fmean(r.rejection_rate for r in raw):.6f})"
        )
    for failure in run.failures[:20]:
        summary.append(f"# FAILED {failure}")
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    return {
        "summary": summary,
        "result": {
            "correct": run.failed == 0 and finite,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": metrics,
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true", help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)
    if args.setup_probe:
        probe_setup(args.workload, args.seed)
        return 0
    outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(outcome["summary"]))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
