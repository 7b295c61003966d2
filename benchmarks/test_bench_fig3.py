"""Benchmarks E2/E3 — paper Fig. 3: Scenario 1 (two contexts).

Sweeps the task count for the naive baseline and the three SGPRS
over-subscription variants, prints total-FPS and DMR series (Figs. 3a/3b),
and asserts the paper's shape findings:

* the naive pivot point comes much earlier than every SGPRS variant;
* naive FPS sags toward ~468 at 30 tasks (paper: a 38% drop below SGPRS);
* SGPRS sustains its plateau beyond the pivot with a moderate DMR slope.

Grid and horizons are reduced relative to ``python -m repro fig3`` so the
benchmark suite finishes in minutes; the shapes are identical.  The sweep
runs through the :mod:`repro.exp` harness — set ``REPRO_BENCH_WORKERS`` /
``REPRO_BENCH_CACHE`` to shard or cache it.
"""

import pytest

from benchmarks.conftest import bench_cache_dir, bench_workers, emit
from repro.analysis.pivot import find_pivot
from repro.analysis.report import render_sweep_table
from repro.workloads.scenarios import SCENARIO_1, run_scenario_sweep

pytestmark = pytest.mark.slow

TASK_COUNTS = [8, 14, 16, 20, 23, 25, 28, 30]
DURATION = 3.0
WARMUP = 1.0


@pytest.fixture(scope="module")
def sweep():
    return run_scenario_sweep(
        SCENARIO_1,
        TASK_COUNTS,
        duration=DURATION,
        warmup=WARMUP,
        workers=bench_workers(),
        cache_dir=bench_cache_dir(),
    )


def test_fig3_scenario1_sweep(benchmark, sweep):
    # benchmark one representative heavy point so timing is meaningful
    # without re-running the whole sweep per round
    benchmark.pedantic(
        lambda: run_scenario_sweep(SCENARIO_1, [25], variants=["sgprs_1.5"],
                                   duration=1.5, warmup=0.5),
        rounds=1,
        iterations=1,
    )
    emit(
        "bench_fig3.txt",
        render_sweep_table(sweep, "total_fps",
                           title="Fig. 3a - total FPS (scenario 1)"),
    )
    emit(
        "bench_fig3.txt",
        render_sweep_table(sweep, "dmr",
                           title="Fig. 3b - deadline miss rate (scenario 1)"),
    )
    pivots = {v: find_pivot(points) for v, points in sweep.items()}
    emit("bench_fig3.txt", f"pivot points: {pivots}")

    # Shape assertions, inline so they execute under --benchmark-only
    # (the class below repeats them one-per-claim for plain pytest runs).
    naive_pivot = pivots["naive"] or 0
    best_pivot = max(pivots[v] or 0 for v in ("sgprs_1", "sgprs_1.5", "sgprs_2"))
    assert best_pivot >= naive_pivot + 6
    assert 22 <= best_pivot <= 26
    naive_final = sweep["naive"][-1].total_fps
    best_final = max(
        sweep[v][-1].total_fps for v in ("sgprs_1", "sgprs_1.5", "sgprs_2")
    )
    assert 0.25 <= 1.0 - naive_final / best_final <= 0.5
    assert sweep["naive"][-1].dmr > 0.9
    assert sweep["sgprs_1.5"][-1].dmr < 0.45


class TestFig3Shapes:
    def test_naive_pivot_much_earlier(self, sweep):
        naive_pivot = find_pivot(sweep["naive"]) or 0
        for variant in ("sgprs_1", "sgprs_1.5", "sgprs_2"):
            sgprs_pivot = find_pivot(sweep[variant]) or 0
            assert sgprs_pivot >= naive_pivot + 6, (
                f"{variant}: pivot {sgprs_pivot} vs naive {naive_pivot}"
            )

    def test_best_sgprs_pivot_near_paper_value(self, sweep):
        # paper: best-case pivot at 23 tasks in scenario 1
        best = max(
            find_pivot(sweep[v]) or 0
            for v in ("sgprs_1", "sgprs_1.5", "sgprs_2")
        )
        assert 22 <= best <= 26

    def test_naive_fps_sags_below_sgprs(self, sweep):
        naive_final = sweep["naive"][-1].total_fps
        best_final = max(
            sweep[v][-1].total_fps
            for v in ("sgprs_1", "sgprs_1.5", "sgprs_2")
        )
        drop = 1.0 - naive_final / best_final
        # paper: 38% drop; accept a generous band around it
        assert 0.25 <= drop <= 0.5, f"drop {drop:.2f}"

    def test_naive_fps_declines_after_saturation(self, sweep):
        by_count = {p.num_tasks: p.total_fps for p in sweep["naive"]}
        assert by_count[30] <= by_count[16] * 1.02

    def test_naive_dmr_drastic(self, sweep):
        assert sweep["naive"][-1].dmr > 0.9

    def test_sgprs_dmr_moderate_slope(self, sweep):
        final = sweep["sgprs_1.5"][-1]
        assert final.dmr < 0.45

    def test_sgprs_fps_sustained(self, sweep):
        points = {p.num_tasks: p.total_fps for p in sweep["sgprs_1.5"]}
        assert points[30] >= points[25] * 0.97

    def test_fps_equals_demand_below_pivot(self, sweep):
        for variant, points in sweep.items():
            for point in points:
                if point.dmr == 0.0 and point.num_tasks <= 14:
                    assert point.total_fps == pytest.approx(
                        30.0 * point.num_tasks, rel=0.05
                    )
