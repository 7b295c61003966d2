"""Unit tests for pivot detection and schedulability estimates."""

import pytest

from repro.analysis.pivot import find_pivot, pivot_table
from repro.analysis.schedulability import (
    taskset_naive_utilization,
    taskset_sgprs_utilization,
)
from repro.gpu.spec import RTX_2080_TI
from repro.workloads.generator import identical_periodic_tasks
from repro.workloads.scenarios import SweepPoint


def points(*pairs):
    return [
        SweepPoint(variant="v", num_tasks=n, total_fps=0.0, dmr=d,
                   utilization=0.0)
        for n, d in pairs
    ]


class TestFindPivot:
    def test_simple_pivot(self):
        assert find_pivot(points((1, 0.0), (2, 0.0), (3, 0.1))) == 2

    def test_all_feasible(self):
        assert find_pivot(points((1, 0.0), (2, 0.0))) == 2

    def test_none_feasible(self):
        assert find_pivot(points((1, 0.5), (2, 0.9))) is None

    def test_tolerance(self):
        data = points((1, 0.0), (2, 0.005), (3, 0.2))
        assert find_pivot(data) == 1
        assert find_pivot(data, dmr_tolerance=0.01) == 2

    def test_unordered_input(self):
        assert find_pivot(points((3, 0.1), (1, 0.0), (2, 0.0))) == 2

    def test_noise_beyond_first_miss_ignored(self):
        # an isolated zero after misses must not extend the pivot
        assert find_pivot(points((1, 0.0), (2, 0.3), (3, 0.0))) == 1

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            find_pivot(points((1, 0.0)), dmr_tolerance=-0.1)


class TestPivotTable:
    def test_per_variant(self):
        sweep = {
            "a": points((1, 0.0), (2, 0.5)),
            "b": points((1, 0.0), (2, 0.0)),
        }
        table = pivot_table(sweep)
        assert table == {"a": 1, "b": 2}


class TestCapacityEstimates:
    """The capacity model ``repro synth`` prints, on the paper's identical
    30 fps ResNet18 tasks: demand crosses 1 where the closed-form
    capacities put it (494.7 jobs/s for naive on 2 x 34 SMs, 757.6 jobs/s
    for SGPRS at the device's aggregate ceiling)."""

    @staticmethod
    def tasks(count, num_stages):
        return identical_periodic_tasks(
            count, nominal_sms=34.0, num_stages=num_stages
        )

    def test_naive_capacity_scenario1(self):
        below = taskset_naive_utilization(self.tasks(16, 1), 2, 34.0)
        above = taskset_naive_utilization(self.tasks(17, 1), 2, 34.0)
        assert below == pytest.approx(0.970, abs=5e-4)
        assert above == pytest.approx(1.031, abs=5e-4)

    def test_switch_overhead_reduces_capacity(self):
        base = taskset_naive_utilization(self.tasks(16, 1), 2, 34.0)
        loaded = taskset_naive_utilization(
            self.tasks(16, 1), 2, 34.0, switch_overhead=1e-3
        )
        assert loaded > base

    def test_sgprs_capacity(self):
        below = taskset_sgprs_utilization(self.tasks(25, 6), RTX_2080_TI)
        above = taskset_sgprs_utilization(self.tasks(26, 6), RTX_2080_TI)
        assert below == pytest.approx(0.990, abs=5e-4)
        assert above == pytest.approx(1.030, abs=5e-4)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            taskset_naive_utilization(self.tasks(2, 1), 0, 34.0)
