"""Unit tests for the one-call run harness."""

import pytest

from repro.core.context_pool import ContextPoolConfig
from repro.core.naive import NaiveScheduler
from repro.core.runner import RunConfig, run_simulation
from repro.gpu.spec import RTX_2080_TI
from repro.workloads.generator import identical_periodic_tasks


@pytest.fixture(scope="module")
def pool():
    return ContextPoolConfig.from_oversubscription(2, 1.0, RTX_2080_TI)


class TestRunConfig:
    def test_defaults(self, pool):
        config = RunConfig(pool=pool)
        assert config.duration == 10.0
        assert config.spec is RTX_2080_TI

    def test_bad_duration_rejected(self, pool):
        with pytest.raises(ValueError):
            RunConfig(pool=pool, duration=0.0)

    @pytest.mark.parametrize("duration", [float("inf"), float("nan")])
    def test_non_finite_duration_rejected(self, pool, duration):
        with pytest.raises(ValueError, match="duration must be finite"):
            RunConfig(pool=pool, duration=duration, warmup=0.0)

    def test_warmup_must_precede_duration(self, pool):
        with pytest.raises(ValueError):
            RunConfig(pool=pool, duration=1.0, warmup=1.0)


class TestRunSimulation:
    def test_light_load_all_deadlines_met(self, pool):
        tasks = identical_periodic_tasks(4, nominal_sms=pool.sms_per_context)
        result = run_simulation(
            tasks, RunConfig(pool=pool, duration=1.0, warmup=0.2)
        )
        assert result.dmr == 0.0
        assert result.total_fps == pytest.approx(120.0, rel=0.05)

    def test_fps_scales_with_task_count(self, pool):
        def fps(count):
            tasks = identical_periodic_tasks(
                count, nominal_sms=pool.sms_per_context
            )
            return run_simulation(
                tasks, RunConfig(pool=pool, duration=1.0, warmup=0.2)
            ).total_fps
        assert fps(8) == pytest.approx(2 * fps(4), rel=0.05)

    def test_naive_scheduler_runs(self, pool):
        tasks = identical_periodic_tasks(
            4, nominal_sms=pool.sms_per_context, num_stages=1
        )
        result = run_simulation(
            tasks,
            RunConfig(pool=pool, scheduler=NaiveScheduler, duration=1.0,
                      warmup=0.2),
        )
        assert result.dmr == 0.0
        assert result.completed > 0

    def test_trace_recorded_when_requested(self, pool):
        tasks = identical_periodic_tasks(2, nominal_sms=pool.sms_per_context)
        result = run_simulation(
            tasks,
            RunConfig(pool=pool, duration=0.5, warmup=0.1, record_trace=True),
        )
        assert result.trace is not None
        assert len(result.trace) > 0

    def test_trace_omitted_by_default(self, pool):
        tasks = identical_periodic_tasks(2, nominal_sms=pool.sms_per_context)
        result = run_simulation(
            tasks, RunConfig(pool=pool, duration=0.5, warmup=0.1)
        )
        assert result.trace is None

    def test_summary_string(self, pool):
        tasks = identical_periodic_tasks(2, nominal_sms=pool.sms_per_context)
        result = run_simulation(
            tasks, RunConfig(pool=pool, duration=0.5, warmup=0.1)
        )
        summary = result.summary()
        assert "fps=" in summary and "dmr=" in summary

    def test_utilization_grows_with_load(self, pool):
        def utilization(count):
            tasks = identical_periodic_tasks(
                count, nominal_sms=pool.sms_per_context
            )
            return run_simulation(
                tasks, RunConfig(pool=pool, duration=1.0, warmup=0.2)
            ).utilization
        assert utilization(12) > utilization(4)


class TestSchedulerSpecificContexts:
    def test_sequential_gets_single_stream_full_device(self, pool):
        from repro.core.sequential import (
            SequentialScheduler,
            sequential_pool_config,
        )
        from repro.workloads.generator import identical_periodic_tasks

        seq_pool = sequential_pool_config(RTX_2080_TI)
        tasks = identical_periodic_tasks(
            12, nominal_sms=seq_pool.sms_per_context, num_stages=1
        )
        result = run_simulation(
            tasks,
            RunConfig(pool=seq_pool, scheduler=SequentialScheduler,
                      duration=1.5, warmup=0.5),
        )
        # one-at-a-time execution caps throughput at ~322 fps even though
        # 360 fps are requested
        assert result.total_fps < 340.0

    def test_naive_subclass_also_gets_naive_contexts(self, pool):
        from repro.core.naive import NaiveScheduler
        from repro.workloads.generator import identical_periodic_tasks

        class TracingNaive(NaiveScheduler):
            name = "naive_sub"

        tasks = identical_periodic_tasks(
            4, nominal_sms=pool.sms_per_context, num_stages=1
        )
        result = run_simulation(
            tasks,
            RunConfig(pool=pool, scheduler=TracingNaive, duration=1.0,
                      warmup=0.2),
        )
        assert result.completed > 0
