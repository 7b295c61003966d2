#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny horizons.

Run from the repository root::

    python3 perfbench/smoke.py

For every workload it checks that a plain and a traced run report every
metric ``BENCHMARK.json`` names, finite and with its unit, with no point
failing; that the per-layer counts of two traced runs are equal; that
the traced self times are non-negative and sum to the root span; and
that ``fig3_fast`` computes exactly the per-point FPS and DMR of
``run_scenario_sweep``, the function behind ``python -m repro fig3``.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import math
import sys

from run import OUT, ROOT, measure

#: (duration, warmup) small enough for a quick run of each workload.
TINY = {
    "fig3_fast": (0.15, 0.05),
    "overloaded_8x30": (0.2, 0.05),
    "open_mmpp_traced": (0.4, 0.1),
}
SEED = 3


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAILED: {message}")


def check_result(result: dict, declared: list, label: str) -> None:
    expect(result["correct"], f"{label}: not correct")
    expect(result["failed"] == 0, f"{label}: {result['failed']} points failed")
    expect(result["attempted"] >= 1, f"{label}: nothing attempted")
    metrics = result["metrics"]
    expect(
        sorted(metrics) == sorted(m["name"] for m in declared),
        f"{label}: reported {sorted(metrics)}",
    )
    for spec in declared:
        metric = metrics[spec["name"]]
        expect(math.isfinite(metric["value"]), f"{label}: {spec['name']} not finite")
        expect(metric["unit"] == spec["unit"], f"{label}: unit of {spec['name']}")


def check_spans(name: str) -> None:
    spans = json.loads((OUT / f"spans-{name}-seed{SEED}.json").read_text())
    for repeat in spans["repeats"]:
        self_times = repeat["self_s"]
        expect(
            all(value >= 0.0 for value in self_times.values()),
            f"{name}: negative self time {self_times}",
        )
        total = sum(self_times.values())
        expect(
            math.isclose(total, repeat["root_s"], rel_tol=1e-9, abs_tol=1e-9),
            f"{name}: self times sum to {total}, root span {repeat['root_s']}",
        )


def check_fig3_is_the_cli_sweep(result: dict) -> None:
    from repro.cli import FAST_TASK_COUNTS
    from repro.workloads.scenarios import SCENARIO_1, run_scenario_sweep
    from workloads import Fig3Fast

    duration, warmup = TINY["fig3_fast"]
    sweep = run_scenario_sweep(
        SCENARIO_1, sorted(FAST_TASK_COUNTS), duration=duration, warmup=warmup
    )
    workload = Fig3Fast(SEED, duration, warmup)
    try:
        outcome = workload.run(OUT)()
    finally:
        workload.cleanup()
    ours = {(r.point.variant, r.point.num_tasks): r for r in outcome.results}
    theirs = [point for points in sweep.values() for point in points]
    expect(len(ours) == len(theirs), "fig3_fast: grid size differs from the CLI's")
    for point in theirs:
        mine = ours[(point.variant, point.num_tasks)]
        expect(
            (mine.total_fps, mine.dmr) == (point.total_fps, point.dmr),
            f"fig3_fast: {point.variant}/n{point.num_tasks} differs from the CLI",
        )
    metrics = result["metrics"]
    expect(
        metrics["sim_fps"]["value"] == sum(p.total_fps for p in theirs),
        "fig3_fast: sim_fps is not the sum of the CLI's per-point FPS",
    )
    mean_dmr = sum(p.dmr for p in theirs) / len(theirs)
    expect(
        metrics["sim_on_time_rate"]["value"] == 1.0 - mean_dmr,
        "fig3_fast: sim_on_time_rate is not 1 - the CLI's mean DMR",
    )


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(
        sorted(w["name"] for w in declared["workloads"]) == sorted(TINY),
        "BENCHMARK.json workloads differ from the smoke test's",
    )
    for name, (duration, warmup) in TINY.items():
        plain = measure(name, SEED, 0, False, duration, warmup, setup_probes=1)
        check_result(plain["result"], declared["end_to_end"], f"{name} trace=0")
        traced = [
            measure(name, SEED, 0, True, duration, warmup)["result"]
            for _ in range(2)
        ]
        for result in traced:
            check_result(result, declared["per_layer"], f"{name} trace=1")
        counts = [
            {
                metric: value["value"]
                for metric, value in result["metrics"].items()
                if value["unit"] not in ("s", "ns", "ratio")
            }
            for result in traced
        ]
        expect(counts[0] == counts[1], f"{name}: per-layer counts differ")
        check_spans(name)
        trace_metrics = [
            value["value"]
            for metric, value in traced[0]["metrics"].items()
            if metric.startswith("sim.trace.")
        ]
        expect(
            any(trace_metrics) == (name == "open_mmpp_traced"),
            f"{name}: sim.trace.* must be non-zero only on open_mmpp_traced",
        )
        if name == "fig3_fast":
            check_fig3_is_the_cli_sweep(plain["result"])
        print(f"smoke: {name} ok")
    print("smoke: all workloads ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
