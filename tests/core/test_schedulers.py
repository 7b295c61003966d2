"""Behavioural tests for SGPRS and the naive baseline."""

import pytest

from repro.core.context_pool import ContextPoolConfig, build_contexts
from repro.core.naive import NaiveScheduler, build_naive_contexts
from repro.core.profiling import prepare_task
from repro.core.runner import RunConfig, run_simulation
from repro.core.sgprs import SgprsScheduler
from repro.core.task import TaskSet
from repro.dnn.models import build_simple_cnn
from repro.dnn.resnet import build_resnet18
from repro.gpu.allocator import AllocationParams
from repro.gpu.context import SimContext
from repro.gpu.device import GpuDevice
from repro.gpu.kernel import PriorityLevel, StageKernel
from repro.gpu.mps import SpatialReconfig
from repro.gpu.spec import RTX_2080_TI
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import MetricsCollector
from repro.sim.trace import TraceRecorder
from repro.speedup.model import SaturatingCurve
from repro.workloads.generator import identical_periodic_tasks


def build_sgprs(tasks, num_contexts=2, oversubscription=1.0, horizon=1.0,
                trace=None, jitter=0.0):
    engine = SimulationEngine()
    pool = ContextPoolConfig.from_oversubscription(
        num_contexts, oversubscription, RTX_2080_TI
    )
    contexts = build_contexts(pool, RTX_2080_TI)
    device = GpuDevice(engine, RTX_2080_TI, contexts, AllocationParams(),
                       trace=trace)
    metrics = MetricsCollector()
    scheduler = SgprsScheduler(
        engine, device, tasks, metrics, trace=trace, horizon=horizon,
        work_jitter_cv=jitter,
    )
    return engine, device, scheduler, metrics


def small_tasks(count, num_stages=3, period=0.05):
    tasks = []
    for index in range(count):
        task = prepare_task(
            f"t{index}", build_simple_cnn(), period=period,
            num_stages=num_stages, nominal_sms=34.0,
            release_offset=index * period / max(count, 1),
        )
        tasks.append(task)
    return TaskSet(tasks)


class TestJobLifecycle:
    def test_every_stage_runs_exactly_once(self):
        trace = TraceRecorder()
        tasks = small_tasks(1, num_stages=3, period=0.5)
        engine, device, scheduler, metrics = build_sgprs(
            tasks, horizon=0.4, trace=trace
        )
        scheduler.start()
        engine.run()
        assert metrics.completed_count() == 1
        assert len(trace.of_kind("stage_release")) == 3

    def test_stages_run_in_order(self):
        trace = TraceRecorder()
        tasks = small_tasks(1, num_stages=4, period=0.5)
        engine, device, scheduler, metrics = build_sgprs(
            tasks, horizon=0.4, trace=trace
        )
        scheduler.start()
        engine.run()
        stages = [r.get("stage") for r in trace.of_kind("stage_release")]
        assert stages == [f"t0/j0/s{i}" for i in range(4)]

    def test_periodic_releases(self):
        tasks = small_tasks(1, period=0.1)
        engine, device, scheduler, metrics = build_sgprs(tasks, horizon=0.55)
        scheduler.start()
        engine.run()
        assert metrics.released_count() == 6  # t = 0, .1, .2, .3, .4, .5

    def test_fast_task_meets_all_deadlines(self):
        tasks = small_tasks(2, period=0.05)
        engine, device, scheduler, metrics = build_sgprs(tasks, horizon=0.5)
        scheduler.start()
        engine.run()
        assert metrics.deadline_miss_rate(engine.now) == 0.0

    def test_job_completion_recorded_in_metrics(self):
        tasks = small_tasks(1, period=0.5)
        engine, device, scheduler, metrics = build_sgprs(tasks, horizon=0.4)
        scheduler.start()
        engine.run()
        job = metrics.jobs[0]
        assert job.finish_time is not None
        assert job.finish_time > job.release_time


class TestPriorities:
    def test_last_stage_released_high(self):
        trace = TraceRecorder()
        tasks = small_tasks(1, num_stages=3, period=0.5)
        engine, device, scheduler, metrics = build_sgprs(
            tasks, horizon=0.4, trace=trace
        )
        scheduler.start()
        engine.run()
        releases = trace.of_kind("stage_release")
        assert releases[0].get("priority") == "LOW"
        assert releases[1].get("priority") == "LOW"
        assert releases[2].get("priority") == "HIGH"

    def test_medium_promotion_on_virtual_deadline_miss(self):
        """Squeeze the deadline so early stages overrun their virtual
        deadlines; successors must then be released MEDIUM."""
        trace = TraceRecorder()
        task = prepare_task(
            "tight", build_resnet18(), period=0.5, num_stages=4,
            nominal_sms=34.0, relative_deadline=0.004,
        )
        tasks = TaskSet([task])
        engine, device, scheduler, metrics = build_sgprs(
            tasks, horizon=0.4, trace=trace
        )
        scheduler.start()
        engine.run()
        priorities = [r.get("priority") for r in trace.of_kind("stage_release")]
        assert "MEDIUM" in priorities
        # the final stage stays HIGH even when the job is late
        assert priorities[3] == "HIGH"


class TestContextAssignment:
    def test_empty_queue_context_preferred(self):
        """With two idle contexts, consecutive released stages spread out."""
        trace = TraceRecorder()
        tasks = small_tasks(2, num_stages=1, period=0.5)
        # release both at t=0
        for task in tasks:
            task.release_offset = 0.0
        engine, device, scheduler, metrics = build_sgprs(
            tasks, horizon=0.1, trace=trace
        )
        scheduler.start()
        engine.run()
        contexts = {r.get("context") for r in trace.of_kind("stage_release")}
        assert contexts == {0, 1}

    def test_all_stages_get_a_context(self):
        trace = TraceRecorder()
        tasks = small_tasks(4, num_stages=3, period=0.1)
        engine, device, scheduler, metrics = build_sgprs(
            tasks, horizon=0.3, trace=trace
        )
        scheduler.start()
        engine.run()
        for record in trace.of_kind("stage_release"):
            assert record.get("context") in (0, 1)

    def test_concurrency_capped_at_four_per_context(self):
        trace = TraceRecorder()
        tasks = small_tasks(12, num_stages=2, period=0.05)
        engine, device, scheduler, metrics = build_sgprs(
            tasks, num_contexts=2, horizon=0.2, trace=trace
        )
        scheduler.start()
        # replay the trace: count residency via start/done events
        engine.run()
        resident = {0: 0, 1: 0}
        for record in trace:
            if record.kind == "kernel_start":
                resident[record.get("context")] += 1
                assert resident[record.get("context")] <= 4
            elif record.kind == "kernel_done":
                resident[record.get("context")] -= 1


def _stage_kernel(work=1e-3, deadline=1.0):
    return StageKernel(
        label="k",
        curve=SaturatingCurve(0.05),
        work=work,
        width_demand=16.0,
        deadline=deadline,
    )


def _queued(context_id, works=()):
    """An idle context with one queued (never dispatched) stage per work."""
    context = SimContext(context_id, nominal_sms=17.0)
    for work in works:
        context.enqueue(_stage_kernel(work))
    return context


def _selected(contexts, kernel):
    """The id of the context SGPRS assigns ``kernel`` to, with the device
    listing ``contexts`` in the given order."""
    engine = SimulationEngine()
    device = GpuDevice(engine, RTX_2080_TI, contexts)
    scheduler = SgprsScheduler(engine, device, TaskSet([]), MetricsCollector())
    return scheduler.select_context(kernel).context_id


class TestContextSelectionRules:
    """Section IV-B2's three criteria and their tie-breaks, on hand-built
    contexts.  Every tie goes to the lowest id, so the device lists the
    contexts in descending id order where a first-found choice would
    pick the highest."""

    @pytest.mark.parametrize("descending", [False, True])
    def test_empty_queue_with_most_free_streams_wins(self, descending):
        busy, idle = _queued(0), _queued(1)
        busy.streams[0].attach(_stage_kernel())
        contexts = [idle, busy] if descending else [busy, idle]
        assert _selected(contexts, _stage_kernel()) == 1

    def test_empty_queues_with_equal_free_streams_lowest_id_wins(self):
        contexts = [_queued(2), _queued(1), _queued(0)]
        assert _selected(contexts, _stage_kernel()) == 0

    def test_empty_queue_wins_before_deadlines_are_looked_at(self):
        # Context 1 has no free stream and the later ETA (four long stages
        # resident), but context 0 has a stage queued.
        contexts = [_queued(0, [1e-3]), _queued(1)]
        for stream in contexts[1].streams:
            stream.attach(_stage_kernel(work=10.0))
        assert _selected(contexts, _stage_kernel()) == 1

    @pytest.mark.parametrize("descending", [False, True])
    def test_shortest_queue_meeting_the_deadline_wins(self, descending):
        # Context 2 has the shortest queue but cannot meet the deadline.
        contexts = [
            _queued(0, [1e-3] * 3),
            _queued(1, [1e-3] * 2),
            _queued(2, [1e3]),
        ]
        if descending:
            contexts.reverse()
        assert _selected(contexts, _stage_kernel(deadline=1.0)) == 1

    def test_equal_queues_meeting_the_deadline_lowest_id_wins(self):
        contexts = [_queued(2, [1e-3]), _queued(1, [1e-3]), _queued(0, [1e-3])]
        assert _selected(contexts, _stage_kernel(deadline=1.0)) == 0

    @pytest.mark.parametrize("descending", [False, True])
    def test_earliest_eta_wins_when_no_context_meets_the_deadline(
        self, descending
    ):
        # Context 1's queue is longer, but it drains first.
        contexts = [_queued(0, [1e-1]), _queued(1, [1e-3] * 2)]
        if descending:
            contexts.reverse()
        assert _selected(contexts, _stage_kernel(deadline=0.0)) == 1

    def test_equal_etas_lowest_id_wins(self):
        contexts = [_queued(2, [1e-3]), _queued(1, [1e-3]), _queued(0, [1e-3])]
        assert _selected(contexts, _stage_kernel(deadline=0.0)) == 0


class TestAdmission:
    def test_release_skipped_while_previous_in_flight(self):
        trace = TraceRecorder()
        # one task whose job takes much longer than its period
        task = prepare_task(
            "slow", build_resnet18(), period=0.002, num_stages=2,
            nominal_sms=8.0,
        )
        tasks = TaskSet([task])
        engine, device, scheduler, metrics = build_sgprs(
            tasks, num_contexts=1, horizon=0.02, trace=trace
        )
        scheduler.start()
        engine.run()
        skips = trace.of_kind("job_skip")
        assert skips, "overloaded task should skip releases"
        # skipped jobs count as released and missed
        assert metrics.released_count() > metrics.completed_count()
        assert metrics.deadline_miss_rate(engine.now) > 0.0

    def test_no_skip_when_system_keeps_up(self):
        trace = TraceRecorder()
        tasks = small_tasks(1, period=0.1)
        engine, device, scheduler, metrics = build_sgprs(
            tasks, horizon=0.5, trace=trace
        )
        scheduler.start()
        engine.run()
        assert trace.of_kind("job_skip") == []


class TestNaive:
    def make_naive(self, num_tasks, num_contexts=2, horizon=0.5, period=0.05):
        engine = SimulationEngine()
        pool = ContextPoolConfig.from_oversubscription(
            num_contexts, 1.0, RTX_2080_TI
        )
        contexts = build_naive_contexts(pool, RTX_2080_TI)
        device = GpuDevice(engine, RTX_2080_TI, contexts, AllocationParams())
        metrics = MetricsCollector()
        tasks = []
        for index in range(num_tasks):
            tasks.append(
                prepare_task(
                    f"t{index}", build_simple_cnn(), period=period,
                    num_stages=1, nominal_sms=pool.sms_per_context,
                    release_offset=index * period / num_tasks,
                )
            )
        scheduler = NaiveScheduler(
            engine, device, TaskSet(tasks), metrics, horizon=horizon
        )
        return engine, device, scheduler, metrics

    def test_round_robin_pinning(self):
        engine, device, scheduler, metrics = self.make_naive(4)
        assert scheduler.pinned_context("t0").context_id == 0
        assert scheduler.pinned_context("t1").context_id == 1
        assert scheduler.pinned_context("t2").context_id == 0
        assert scheduler.pinned_context("t3").context_id == 1

    def test_single_stream_serialises_jobs(self):
        engine, device, scheduler, metrics = self.make_naive(2, num_contexts=1)
        scheduler.start()
        engine.run()
        # never more than one resident kernel in a naive context
        assert len(device.contexts[0].streams) == 1

    def test_uses_spatial_reconfig_by_default(self):
        engine, device, scheduler, metrics = self.make_naive(2)
        assert isinstance(scheduler.reconfig, SpatialReconfig)

    def test_meets_deadlines_under_light_load(self):
        engine, device, scheduler, metrics = self.make_naive(2, horizon=0.4)
        scheduler.start()
        engine.run()
        assert metrics.deadline_miss_rate(engine.now) == 0.0
        assert metrics.completed_count() > 0

    def test_task_switch_pays_reconfiguration(self):
        """Two tasks pinned to one context alternate, paying setup on every
        job; a single pinned task pays only once.  Response times show it."""
        engine_a, _, scheduler_a, metrics_a = self.make_naive(
            2, num_contexts=1, horizon=0.5, period=0.01
        )
        scheduler_a.start()
        engine_a.run()
        engine_b, _, scheduler_b, metrics_b = self.make_naive(
            1, num_contexts=1, horizon=0.5, period=0.005
        )
        scheduler_b.start()
        engine_b.run()
        # same total demand (200 jobs/s), but alternation adds a
        # reconfiguration latency to (almost) every job
        mean_a = sum(metrics_a.response_times()) / len(metrics_a.response_times())
        mean_b = sum(metrics_b.response_times()) / len(metrics_b.response_times())
        assert mean_a > mean_b + 5e-5


class TestDeterminism:
    def test_identical_runs_identical_metrics(self):
        def run_once():
            pool = ContextPoolConfig.from_oversubscription(2, 1.5, RTX_2080_TI)
            tasks = identical_periodic_tasks(6, nominal_sms=pool.sms_per_context)
            result = run_simulation(
                tasks,
                RunConfig(pool=pool, duration=1.0, warmup=0.2,
                          work_jitter_cv=0.1, seed=123),
            )
            return result.total_fps, result.dmr, result.completed
        assert run_once() == run_once()

    def test_seed_changes_jittered_run(self):
        def run_once(seed):
            pool = ContextPoolConfig.from_oversubscription(2, 1.0, RTX_2080_TI)
            tasks = identical_periodic_tasks(26, nominal_sms=pool.sms_per_context)
            result = run_simulation(
                tasks,
                RunConfig(pool=pool, duration=1.0, warmup=0.2,
                          work_jitter_cv=0.2, seed=seed),
            )
            return result.metrics.response_times()
        assert run_once(1) != run_once(2)


class TestValidation:
    def test_invalid_jitter_rejected(self):
        tasks = small_tasks(1)
        with pytest.raises(ValueError):
            build_sgprs(tasks, jitter=1.5)
