"""Tests for the sharded grid runner and seed aggregation.

The fast tier proves correctness (serial == parallel == cached, CI math);
the slow tier measures the wall-clock acceptance criteria on a real
fig-3-sized grid.
"""

import math
import os

import pytest

from repro.exp.aggregate import aggregate_results, mean_ci, to_sweep
from repro.exp.grid import GridPoint, GridSpec
from repro.exp.runner import run_grid
from repro.exp.worker import PointResult, run_point

TINY = GridSpec(
    scenario="scenario1",
    num_contexts=2,
    variants=("naive", "sgprs_1.5"),
    task_counts=(2, 4),
    duration=0.6,
    warmup=0.2,
)


def metric_rows(result):
    return [
        (r.point.label, r.total_fps, r.dmr, r.utilization)
        for r in result.results
    ]


class TestRunGrid:
    def test_serial_matches_grid_order(self):
        result = run_grid(TINY)
        assert [r.point for r in result.results] == list(TINY.points())
        assert result.cache_hits == 0
        assert result.cache_misses == len(TINY)

    def test_parallel_is_bit_identical_to_serial(self):
        serial = run_grid(TINY, workers=0)
        parallel = run_grid(TINY, workers=2)
        assert metric_rows(serial) == metric_rows(parallel)

    def test_cache_second_run_is_all_hits(self, tmp_path):
        first = run_grid(TINY, cache_dir=tmp_path)
        second = run_grid(TINY, cache_dir=tmp_path)
        assert second.cache_hits == len(TINY)
        assert second.cache_misses == 0
        assert metric_rows(first) == metric_rows(second)

    def test_cache_is_config_sensitive(self, tmp_path):
        import dataclasses

        run_grid(TINY, cache_dir=tmp_path)
        longer = dataclasses.replace(TINY, duration=0.8)
        result = run_grid(longer, cache_dir=tmp_path)
        assert result.cache_hits == 0

    def test_progress_callback_sees_every_point(self, tmp_path):
        seen = []
        run_grid(TINY, cache_dir=tmp_path, progress=seen.append)
        assert len(seen) == len(TINY)
        run_grid(TINY, cache_dir=tmp_path, progress=seen.append)
        assert len(seen) == 2 * len(TINY)

    def test_sweep_shape(self):
        sweep = run_grid(TINY).sweep()
        assert set(sweep) == {"naive", "sgprs_1.5"}
        assert [p.num_tasks for p in sweep["naive"]] == [2, 4]

    def test_sweep_preserves_grid_order(self):
        # caller-supplied variant and task-count order survives
        # aggregation (render_sweep_table columns follow dict order)
        import dataclasses

        spec = dataclasses.replace(
            TINY, variants=("sgprs_1.5", "naive"), task_counts=(4, 2)
        )
        sweep = run_grid(spec).sweep()
        assert list(sweep) == ["sgprs_1.5", "naive"]
        assert [p.num_tasks for p in sweep["naive"]] == [4, 2]

    def test_worker_point_matches_inline_run(self):
        point = next(TINY.points())
        assert run_point(point).total_fps == run_point(point).total_fps

    @pytest.mark.parametrize("variant", ["sgprs_nan", "sgprs_inf"])
    def test_non_finite_oversubscription_rejected(self, variant):
        import dataclasses

        point = dataclasses.replace(next(TINY.points()), variant=variant)
        with pytest.raises(ValueError, match="oversubscription"):
            run_point(point)


class TestMeanCi:
    def test_single_value_has_zero_ci(self):
        assert mean_ci([5.0]) == (5.0, 0.0)

    def test_known_sample(self):
        mean, ci = mean_ci([1.0, 2.0, 3.0])
        assert mean == pytest.approx(2.0)
        # t(df=2, 95%) = 4.303, stdev = 1.0, n = 3
        assert ci == pytest.approx(4.303 / math.sqrt(3), rel=1e-3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_ci([])


class TestAggregation:
    @pytest.fixture(scope="class")
    def replicated(self):
        spec = GridSpec(
            scenario="scenario1",
            num_contexts=2,
            variants=("sgprs_1.5",),
            task_counts=(3,),
            seeds=(0, 1, 2),
            duration=0.6,
            warmup=0.2,
            work_jitter_cv=0.2,
        )
        return run_grid(spec)

    def test_cells_group_over_seeds(self, replicated):
        aggregates = aggregate_results(replicated.results)
        assert set(aggregates) == {"sgprs_1.5"}
        (cell,) = aggregates["sgprs_1.5"]
        assert cell.n == 3
        assert cell.ci_fps >= 0.0

    def test_mean_matches_manual(self, replicated):
        (cell,) = aggregate_results(replicated.results)["sgprs_1.5"]
        manual = sum(r.total_fps for r in replicated.results) / 3
        assert cell.mean_fps == pytest.approx(manual)

    def test_to_sweep_uses_means(self, replicated):
        sweep = to_sweep(replicated.results)
        (cell,) = aggregate_results(replicated.results)["sgprs_1.5"]
        assert sweep["sgprs_1.5"][0].total_fps == pytest.approx(
            cell.mean_fps
        )


class TestTailMetricAggregation:
    """p99/p999/queue-depth must aggregate, not silently drop (PR-8 fix)."""

    def tail_result(self, seed, p99, p999, mean_depth, max_depth):
        point = GridPoint(
            scenario="scenario1",
            num_contexts=2,
            variant="sgprs_1.5",
            num_tasks=4,
            seed=seed,
            base_seed=seed,
        )
        return PointResult(
            point=point,
            total_fps=100.0,
            dmr=0.0,
            utilization=0.5,
            mean_pressure=1.0,
            released=10,
            completed=10,
            p99_response=p99,
            p999_response=p999,
            mean_queue_depth=mean_depth,
            max_queue_depth=max_depth,
        )

    def test_percentiles_mean_and_ci(self):
        results = [
            self.tail_result(0, 0.010, 0.012, 1.0, 3),
            self.tail_result(1, 0.020, 0.022, 2.0, 5),
            self.tail_result(2, 0.030, 0.032, 3.0, 4),
        ]
        (cell,) = aggregate_results(results)["sgprs_1.5"]
        assert cell.mean_p99 == pytest.approx(0.020)
        assert cell.mean_p999 == pytest.approx(0.022)
        assert cell.ci_p99 > 0.0
        assert cell.mean_queue_depth == pytest.approx(2.0)
        assert cell.ci_queue_depth > 0.0
        # max depth is a peak over seeds, not a mean
        assert cell.max_queue_depth == 5

    def test_none_percentile_seeds_skipped(self):
        results = [
            self.tail_result(0, None, None, 0.0, 0),
            self.tail_result(1, 0.020, 0.025, 1.0, 2),
        ]
        (cell,) = aggregate_results(results)["sgprs_1.5"]
        assert cell.mean_p99 == pytest.approx(0.020)
        assert cell.mean_p999 == pytest.approx(0.025)
        assert cell.ci_p99 == 0.0

    def test_all_none_percentiles_stay_none(self):
        results = [
            self.tail_result(0, None, None, 0.0, 0),
            self.tail_result(1, None, None, 0.0, 0),
        ]
        (cell,) = aggregate_results(results)["sgprs_1.5"]
        assert cell.mean_p99 is None
        assert cell.mean_p999 is None
        assert cell.ci_p99 == 0.0

    def test_real_runs_carry_tail_metrics_through(self):
        spec = GridSpec(
            scenario="scenario1",
            num_contexts=2,
            variants=("sgprs_1.5",),
            task_counts=(6,),
            seeds=(0, 1),
            duration=0.6,
            warmup=0.2,
            work_jitter_cv=0.2,
        )
        result = run_grid(spec)
        (cell,) = aggregate_results(result.results)["sgprs_1.5"]
        assert cell.mean_p99 is not None and cell.mean_p99 > 0.0
        manual = sum(r.p99_response for r in result.results) / 2
        assert cell.mean_p99 == pytest.approx(manual)
        assert cell.max_queue_depth == max(
            r.max_queue_depth for r in result.results
        )


def synth_result(zoo_mix, seed=0, dmr=0.0, total_utilization=2.0,
                 fps=100.0):
    """A hand-built synth-axis PointResult (no simulation needed)."""
    point = GridPoint(
        scenario="util_ramp",
        num_contexts=2,
        variant="sgprs_1.5",
        num_tasks=4,
        seed=seed,
        base_seed=seed,
        workload="util_ramp",
        total_utilization=total_utilization,
        zoo_mix=zoo_mix,
    )
    return PointResult(
        point=point,
        total_fps=fps,
        dmr=dmr,
        utilization=0.5,
        mean_pressure=1.0,
        released=10,
        completed=10,
    )


class TestMultiAxisAggregation:
    """Regression: synthesis axes must separate cells, not pool as seeds.

    A grid sweeping ``zoo_mix`` (or ``period_class`` / ``deadline_mode``)
    used to collapse onto ``(variant, num_tasks, total_utilization)``
    cells, averaging genuinely different workloads as if the axis values
    were replication seeds.
    """

    def test_distinct_zoo_mixes_form_distinct_cells(self):
        results = [
            synth_result("fleet", seed=s, fps=100.0) for s in (0, 1)
        ] + [
            synth_result("surveillance", seed=s, fps=200.0) for s in (0, 1)
        ]
        aggregates = aggregate_results(results)["sgprs_1.5"]
        # same variant, num_tasks and utilization — still two cells
        assert len(aggregates) == 2
        by_mix = {cell.zoo_mix: cell for cell in aggregates}
        assert set(by_mix) == {"fleet", "surveillance"}
        assert by_mix["fleet"].n == 2
        assert by_mix["fleet"].mean_fps == pytest.approx(100.0)
        assert by_mix["surveillance"].mean_fps == pytest.approx(200.0)

    def test_same_axes_still_pool_over_seeds(self):
        results = [synth_result("fleet", seed=s) for s in (0, 1, 2)]
        (cell,) = aggregate_results(results)["sgprs_1.5"]
        assert cell.n == 3
        assert cell.zoo_mix == "fleet"
        assert cell.workload == "util_ramp"

    def test_to_sweep_rejects_inexpressible_axis(self):
        results = [synth_result("fleet"), synth_result("surveillance")]
        with pytest.raises(ValueError, match="zoo_mix"):
            to_sweep(results)

    def test_pivot_table_rejects_mixed_axis_columns(self):
        from repro.analysis.pivot import utilization_pivot_table

        mixed = [
            synth_result("fleet", total_utilization=1.0),
            synth_result("surveillance", total_utilization=2.0, dmr=0.5),
        ]
        with pytest.raises(ValueError, match="zoo_mix"):
            utilization_pivot_table(mixed)

    def test_pivot_table_accepts_one_axis_slice(self):
        from repro.analysis.pivot import utilization_pivot_table

        clean = [
            synth_result("fleet", total_utilization=1.0, dmr=0.0),
            synth_result("fleet", total_utilization=2.0, dmr=0.0),
            synth_result("fleet", total_utilization=3.0, dmr=0.4),
        ]
        assert utilization_pivot_table(clean) == {"sgprs_1.5": 2.0}


@pytest.mark.slow
class TestAcceptance:
    """ISSUE 1 acceptance: speedup and cache pay-off on a fig-3 grid."""

    GRID = GridSpec(
        scenario="scenario1",
        num_contexts=2,
        variants=("naive", "sgprs_1", "sgprs_1.5", "sgprs_2"),
        task_counts=(8, 14, 16, 20, 23, 25, 28, 30),
        duration=3.0,
        warmup=1.0,
    )

    def test_parallel_identical_and_cache_fast(self, tmp_path):
        import time

        serial = run_grid(self.GRID)
        parallel = run_grid(self.GRID, workers=4, cache_dir=tmp_path)
        assert metric_rows(serial) == metric_rows(parallel)
        started = time.perf_counter()
        cached = run_grid(self.GRID, workers=4, cache_dir=tmp_path)
        cached_elapsed = time.perf_counter() - started
        assert cached.cache_hits == len(self.GRID)
        assert metric_rows(cached) == metric_rows(serial)
        # a cached invocation costs under 10% of the computing run
        assert cached_elapsed < 0.1 * parallel.elapsed

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 4,
        reason="wall-clock speedup needs >= 4 physical cores",
    )
    def test_four_workers_give_3x(self, tmp_path):
        serial = run_grid(self.GRID)
        parallel = run_grid(self.GRID, workers=4)
        assert metric_rows(serial) == metric_rows(parallel)
        assert serial.elapsed / parallel.elapsed >= 3.0

class TestResultVersioning:
    def result(self):
        point = GridPoint(
            scenario="scenario1",
            num_contexts=2,
            variant="naive",
            num_tasks=2,
            seed=0,
        )
        return PointResult(
            point=point,
            total_fps=10.0,
            dmr=0.1,
            utilization=0.5,
            mean_pressure=0.2,
            released=20,
            completed=18,
            goodput=9.0,
            rejection_rate=0.05,
            rejected=1,
            p99_response=0.4,
            p999_response=0.6,
            mean_queue_depth=1.5,
            max_queue_depth=3,
        )

    def test_v2_roundtrip_keeps_open_system_fields(self):
        result = self.result()
        clone = PointResult.from_dict(result.to_dict())
        assert clone == result

    def test_v1_records_load_with_open_system_defaults(self):
        payload = self.result().to_dict()
        for key in (
            "goodput",
            "rejection_rate",
            "rejected",
            "p99_response",
            "p999_response",
            "mean_queue_depth",
            "max_queue_depth",
        ):
            del payload[key]
        payload["version"] = 1
        loaded = PointResult.from_dict(payload)
        assert loaded.total_fps == 10.0
        assert loaded.goodput == 0.0
        assert loaded.rejected == 0
        assert loaded.p99_response is None
        assert loaded.max_queue_depth == 0

    def test_unknown_version_rejected(self):
        payload = self.result().to_dict()
        payload["version"] = 99
        with pytest.raises(ValueError, match="unsupported result version"):
            PointResult.from_dict(payload)
