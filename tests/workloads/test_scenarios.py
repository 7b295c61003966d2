"""Unit tests for the scenario sweep harness."""

import pytest

from repro.core.context_pool import ContextPoolConfig
from repro.gpu.spec import RTX_2080_TI
from repro.workloads.scenarios import (
    OVERSUBSCRIPTION_LEVELS,
    SCENARIO_1,
    SCENARIO_2,
    default_variants,
    run_scenario_sweep,
)


class TestScenarioDefinitions:
    def test_scenario_context_counts(self):
        assert SCENARIO_1.num_contexts == 2
        assert SCENARIO_2.num_contexts == 3

    def test_paper_oversubscription_levels(self):
        assert OVERSUBSCRIPTION_LEVELS == (1.0, 1.5, 2.0)

    def test_pool_sizing(self):
        pool = ContextPoolConfig.from_oversubscription(
            SCENARIO_1.num_contexts, 1.5, RTX_2080_TI
        )
        assert pool.num_contexts == 2
        assert pool.sms_per_context == pytest.approx(51.0)

    def test_default_variants(self):
        assert default_variants() == ["naive", "sgprs_1", "sgprs_1.5", "sgprs_2"]


def grid_point(scenario, variant, num_tasks, duration=6.0, warmup=1.5):
    """One (variant, task count) point of a scenario sweep."""
    sweep = run_scenario_sweep(
        scenario, [num_tasks], variants=[variant],
        duration=duration, warmup=warmup,
    )
    return sweep[variant][0]


class TestSweepPoint:
    def test_sgprs_point(self):
        point = grid_point(SCENARIO_1, "sgprs_1.5", 4, duration=1.0, warmup=0.2)
        assert point.num_tasks == 4
        assert point.total_fps == pytest.approx(120.0, rel=0.05)
        assert point.dmr == 0.0

    def test_naive_point(self):
        point = grid_point(SCENARIO_1, "naive", 4, duration=1.0, warmup=0.2)
        assert point.variant == "naive"
        assert point.total_fps > 0

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            grid_point(SCENARIO_1, "mystery", 4)

    def test_oversubscription_parsed_from_variant(self):
        point = grid_point(SCENARIO_2, "sgprs_2", 2, duration=0.5, warmup=0.1)
        assert point.total_fps > 0


class TestSweep:
    def test_sweep_structure(self):
        sweep = run_scenario_sweep(
            SCENARIO_1, [2, 4], variants=["naive", "sgprs_1"],
            duration=0.6, warmup=0.1,
        )
        assert set(sweep) == {"naive", "sgprs_1"}
        for points in sweep.values():
            assert [p.num_tasks for p in points] == [2, 4]

    def test_fps_monotone_below_capacity(self):
        sweep = run_scenario_sweep(
            SCENARIO_1, [2, 4, 8], variants=["sgprs_1.5"],
            duration=0.6, warmup=0.1,
        )
        fps = [p.total_fps for p in sweep["sgprs_1.5"]]
        assert fps[0] < fps[1] < fps[2]
