"""Unit tests for the task model."""

import math

import pytest

from repro.core.task import StageSpec, TaskSpec, TaskSet
from repro.dnn.models import build_simple_cnn
from repro.speedup.composite import composite_for_ops


@pytest.fixture(scope="module")
def composite():
    graph = build_simple_cnn()
    return composite_for_ops("net", graph.topological_order())


def make_stage(index, composite, wcet=0.01, virtual_deadline=None):
    return StageSpec(
        index=index,
        name=f"stage{index}",
        composite=composite,
        wcet=wcet,
        width_demand=10.0,
        virtual_deadline=virtual_deadline,
    )


def make_task(composite, num_stages=3, period=0.1, deadline=None):
    task = TaskSpec(
        name="task",
        graph=build_simple_cnn(),
        period=period,
        relative_deadline=deadline if deadline is not None else period,
    )
    slice_deadline = task.relative_deadline / num_stages
    for index in range(num_stages):
        task.stages.append(
            make_stage(index, composite, virtual_deadline=slice_deadline)
        )
    return task


class TestStageSpec:
    def test_valid(self, composite):
        stage = make_stage(0, composite)
        assert stage.work == composite.total_work

    def test_negative_index_rejected(self, composite):
        with pytest.raises(ValueError):
            make_stage(-1, composite)

    def test_zero_wcet_rejected(self, composite):
        with pytest.raises(ValueError):
            StageSpec(0, "s", composite, wcet=0.0, width_demand=10.0)

    def test_width_below_one_rejected(self, composite):
        with pytest.raises(ValueError):
            StageSpec(0, "s", composite, wcet=0.1, width_demand=0.1)


class TestTaskSpec:
    def test_fps(self, composite):
        assert make_task(composite, period=1 / 30).fps == pytest.approx(30.0)

    def test_total_wcet(self, composite):
        task = make_task(composite, num_stages=3)
        assert task.total_wcet == pytest.approx(0.03)

    def test_utilization(self, composite):
        task = make_task(composite, num_stages=3, period=0.1)
        assert task.utilization() == pytest.approx(0.3)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            TaskSpec(name="", graph=build_simple_cnn(), period=0.1,
                     relative_deadline=0.1)

    def test_non_positive_period_rejected(self):
        with pytest.raises(ValueError):
            TaskSpec(name="t", graph=build_simple_cnn(), period=0.0,
                     relative_deadline=0.1)

    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"period": math.nan}, "period"),
            ({"period": math.inf}, "period"),
            ({"relative_deadline": math.nan}, "deadline"),
            ({"relative_deadline": math.inf}, "deadline"),
            ({"release_offset": math.nan}, "offset"),
        ],
    )
    def test_non_finite_time_rejected(self, overrides, field):
        fields = dict(period=0.1, relative_deadline=0.1)
        fields.update(overrides)
        with pytest.raises(ValueError, match=field):
            TaskSpec(name="t", graph=build_simple_cnn(), **fields)

    def test_generated_task_with_nan_period_rejected(self):
        from repro.workloads.generator import identical_periodic_tasks

        with pytest.raises(ValueError, match="period"):
            identical_periodic_tasks(count=2, nominal_sms=34, period=math.nan)

    def test_validate_accepts_consistent_task(self, composite):
        make_task(composite).validate()

    def test_validate_rejects_no_stages(self):
        task = TaskSpec(name="t", graph=build_simple_cnn(), period=0.1,
                        relative_deadline=0.1)
        with pytest.raises(ValueError):
            task.validate()

    def test_validate_rejects_bad_indices(self, composite):
        task = make_task(composite)
        task.stages[1], task.stages[2] = task.stages[2], task.stages[1]
        with pytest.raises(ValueError):
            task.validate()

    def test_validate_rejects_inconsistent_virtual_deadlines(self, composite):
        task = make_task(composite)
        task.stages[0].virtual_deadline *= 2
        with pytest.raises(ValueError):
            task.validate()

    def test_validate_rejects_partial_virtual_deadlines(self, composite):
        task = make_task(composite)
        task.stages[1].virtual_deadline = None
        with pytest.raises(ValueError):
            task.validate()


class TestTaskSet:
    def test_iteration_order(self, composite):
        tasks = [make_task(composite) for _ in range(3)]
        for index, task in enumerate(tasks):
            task.name = f"t{index}"
        task_set = TaskSet(tasks)
        assert [t.name for t in task_set] == ["t0", "t1", "t2"]

    def test_duplicate_names_rejected(self, composite):
        with pytest.raises(ValueError):
            TaskSet([make_task(composite), make_task(composite)])

    def test_by_name(self, composite):
        task = make_task(composite)
        assert TaskSet([task]).by_name("task") is task

    def test_by_name_missing(self, composite):
        with pytest.raises(KeyError):
            TaskSet([make_task(composite)]).by_name("ghost")

    def test_total_utilization(self, composite):
        first = make_task(composite)
        second = make_task(composite)
        second.name = "task2"
        task_set = TaskSet([first, second])
        assert task_set.total_utilization() == pytest.approx(0.6)

    def test_total_demand_fps(self, composite):
        task = make_task(composite, period=1 / 30)
        assert TaskSet([task]).total_demand_fps() == pytest.approx(30.0)
