"""Benchmarks E4/E5 — paper Fig. 4: Scenario 2 (three contexts).

Same sweep as Fig. 3 on the three-context pool.  Asserts the paper's
Scenario-2 findings:

* best-case pivot around 24 tasks;
* 1.5x over-subscription reaches higher FPS than 2.0x (paper: 741 vs 731)
  because excessive over-subscription adds contention once three contexts
  can already fill the GPU;
* naive pivots early with a drastic DMR.
"""

import pytest

from benchmarks.conftest import bench_cache_dir, bench_workers, emit
from repro.analysis.pivot import find_pivot
from repro.analysis.report import render_sweep_table
from repro.workloads.scenarios import SCENARIO_2, run_scenario_sweep

pytestmark = pytest.mark.slow

TASK_COUNTS = [8, 14, 16, 20, 24, 26, 28, 30]
DURATION = 3.0
WARMUP = 1.0


@pytest.fixture(scope="module")
def sweep():
    return run_scenario_sweep(
        SCENARIO_2,
        TASK_COUNTS,
        duration=DURATION,
        warmup=WARMUP,
        workers=bench_workers(),
        cache_dir=bench_cache_dir(),
    )


def test_fig4_scenario2_sweep(benchmark, sweep):
    benchmark.pedantic(
        lambda: run_scenario_sweep(SCENARIO_2, [26], variants=["sgprs_1.5"],
                                   duration=1.5, warmup=0.5),
        rounds=1,
        iterations=1,
    )
    emit(
        "bench_fig4.txt",
        render_sweep_table(sweep, "total_fps",
                           title="Fig. 4a - total FPS (scenario 2)"),
    )
    emit(
        "bench_fig4.txt",
        render_sweep_table(sweep, "dmr",
                           title="Fig. 4b - deadline miss rate (scenario 2)"),
    )
    pivots = {v: find_pivot(points) for v, points in sweep.items()}
    emit("bench_fig4.txt", f"pivot points: {pivots}")

    # Shape assertions, inline so they execute under --benchmark-only
    # (the class below repeats them one-per-claim for plain pytest runs).
    fps_15 = sweep["sgprs_1.5"][-1].total_fps
    fps_20 = sweep["sgprs_2"][-1].total_fps
    assert fps_15 > fps_20
    assert fps_15 / fps_20 == pytest.approx(741.0 / 731.0, abs=0.03)
    best_pivot = max(pivots[v] or 0 for v in ("sgprs_1", "sgprs_1.5", "sgprs_2"))
    assert 23 <= best_pivot <= 26
    assert best_pivot >= (pivots["naive"] or 0) + 6
    assert sweep["naive"][-1].dmr > 0.6


class TestFig4Shapes:
    def test_moderate_oversubscription_beats_maximal(self, sweep):
        """Paper: SGPRS_1.5 reaches 741 fps vs 731 for SGPRS_2.0."""
        fps_15 = sweep["sgprs_1.5"][-1].total_fps
        fps_20 = sweep["sgprs_2"][-1].total_fps
        assert fps_15 > fps_20
        assert fps_15 / fps_20 == pytest.approx(741.0 / 731.0, abs=0.03)

    def test_best_pivot_near_paper_value(self, sweep):
        # paper: best-case pivot at 24 tasks in scenario 2
        best = max(
            find_pivot(sweep[v]) or 0
            for v in ("sgprs_1", "sgprs_1.5", "sgprs_2")
        )
        assert 23 <= best <= 26

    def test_scenario2_pivot_not_worse_than_scenario1(self, sweep):
        """The paper reports scenario 2 performing better overall."""
        from repro.workloads.scenarios import SCENARIO_1

        best2 = max(
            find_pivot(sweep[v]) or 0
            for v in ("sgprs_1", "sgprs_1.5", "sgprs_2")
        )
        # a single scenario-1 probe at that count: it must also be near
        # its own pivot (within one task)
        (probe,) = run_scenario_sweep(
            SCENARIO_1, [best2 + 2], variants=["sgprs_1.5"], duration=2.0,
            warmup=0.5,
        )["sgprs_1.5"]
        assert probe.dmr > 0.0 or best2 >= 24

    def test_naive_pivot_much_earlier(self, sweep):
        naive_pivot = find_pivot(sweep["naive"]) or 0
        best = max(
            find_pivot(sweep[v]) or 0
            for v in ("sgprs_1", "sgprs_1.5", "sgprs_2")
        )
        assert best >= naive_pivot + 6

    def test_naive_dmr_drastic(self, sweep):
        assert sweep["naive"][-1].dmr > 0.6

    def test_sgprs_fps_sustained(self, sweep):
        points = {p.num_tasks: p.total_fps for p in sweep["sgprs_1.5"]}
        assert points[30] >= points[26] * 0.97

    def test_sgprs_dmr_moderate(self, sweep):
        assert sweep["sgprs_1.5"][-1].dmr < 0.45
