"""Property/invariant tests for :class:`SchedulerBase`.

Three contracts the whole evaluation silently relies on:

* **Job conservation** — every released job is accounted for: it either
  completed, was skipped at the source (``job_skip``), was shed
  (``job_shed``), or is still in flight at the horizon (at most one per
  task under the default blocking-client admission).
* **Trace monotonicity** — a run's trace is ordered by engine time and
  stays within the simulated horizon.
* **Seed determinism** — for a fixed seed the jittered simulation is a
  pure function: two runs produce bit-identical metrics.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.context_pool import ContextPoolConfig
from repro.core.runner import RunConfig, run_simulation
from repro.gpu.spec import RTX_2080_TI
from repro.workloads.generator import identical_periodic_tasks


def run_traced(
    num_tasks,
    num_contexts=1,
    oversubscription=1.0,
    duration=1.0,
    work_jitter_cv=0.0,
    seed=0,
):
    pool = ContextPoolConfig.from_oversubscription(
        num_contexts, oversubscription, RTX_2080_TI
    )
    tasks = identical_periodic_tasks(
        num_tasks, nominal_sms=pool.sms_per_context
    )
    return run_simulation(
        tasks,
        RunConfig(
            pool=pool,
            duration=duration,
            warmup=0.2,
            record_trace=True,
            work_jitter_cv=work_jitter_cv,
            seed=seed,
        ),
    )


class TestJobConservation:
    @given(
        num_tasks=st.integers(min_value=1, max_value=32),
        seed=st.integers(min_value=0, max_value=2**31),
        jitter=st.sampled_from([0.0, 0.1, 0.3]),
    )
    @settings(max_examples=6, deadline=None)
    def test_released_jobs_are_all_accounted_for(
        self, num_tasks, seed, jitter
    ):
        result = run_traced(
            num_tasks, work_jitter_cv=jitter, seed=seed, duration=0.8
        )
        trace = result.trace
        kinds = trace.kinds()
        released = kinds.get("job_release", 0)
        completed = kinds.get("job_complete", 0)
        skipped = kinds.get("job_skip", 0)
        shed = kinds.get("job_shed", 0)
        in_flight = released - completed - skipped - shed
        # under blocking admission at most one job per task is in flight
        assert 0 <= in_flight <= num_tasks
        # the metrics collector agrees with the trace
        assert result.released == released
        assert result.completed == completed

    @given(
        num_tasks=st.integers(min_value=1, max_value=32),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=5, deadline=None)
    def test_per_task_conservation(self, num_tasks, seed):
        result = run_traced(num_tasks, seed=seed, duration=0.8)
        released, finished = Counter(), Counter()
        for record in result.trace:
            if record.kind == "job_release":
                released[record.get("task")] += 1
            elif record.kind in ("job_complete", "job_skip", "job_shed"):
                finished[record.get("task")] += 1
        for task_index in range(num_tasks):
            name = f"cam{task_index}"
            # at most one job of each task may still be in flight
            assert finished[name] <= released[name] <= finished[name] + 1, name

    def test_unfinished_released_jobs_count_as_misses(self):
        # deep overload: skipped jobs must surface as deadline misses
        result = run_traced(30, duration=1.0)
        skips = result.trace.kinds().get("job_skip", 0)
        assert skips > 0
        assert result.dmr > 0.0


class TestTraceMonotonicity:
    @given(
        num_tasks=st.integers(min_value=1, max_value=24),
        jitter=st.sampled_from([0.0, 0.2]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=6, deadline=None)
    def test_trace_times_nondecreasing(self, num_tasks, jitter, seed):
        duration = 0.8
        result = run_traced(
            num_tasks, work_jitter_cv=jitter, seed=seed, duration=duration
        )
        times = [record.time for record in result.trace]
        assert times, "a run must emit trace records"
        assert all(b >= a for a, b in zip(times, times[1:]))
        assert times[0] >= 0.0
        # kernels in flight at the horizon may finish (slightly) past it,
        # but releases never happen at or beyond the horizon
        release_times = [
            r.time for r in result.trace.of_kind("job_release")
        ]
        assert all(t < duration for t in release_times)


class TestSeedDeterminism:
    def metrics_tuple(self, result):
        return (
            result.total_fps,
            result.dmr,
            result.utilization,
            result.mean_pressure,
            result.released,
            result.completed,
            tuple(sorted(result.per_task_fps.items())),
        )

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=3, deadline=None)
    def test_fixed_seed_is_bit_identical(self, seed):
        first = run_traced(
            6, work_jitter_cv=0.25, seed=seed, duration=0.8
        )
        second = run_traced(
            6, work_jitter_cv=0.25, seed=seed, duration=0.8
        )
        assert self.metrics_tuple(first) == self.metrics_tuple(second)
        # the traces agree event for event, not just in aggregate
        assert [(r.time, r.kind) for r in first.trace] == [
            (r.time, r.kind) for r in second.trace
        ]

    def test_different_seeds_perturb_the_jittered_run(self):
        runs = {
            self.metrics_tuple(
                run_traced(6, work_jitter_cv=0.25, seed=seed, duration=0.8)
            )
            for seed in range(4)
        }
        assert len(runs) > 1, "jitter seeds should change the trajectory"

class TestSheddingWorkConservation:
    """``abort_job`` (the shedding path) and the device's work accounting.

    Shedding a job mid-flight must neither lose the work its kernels
    already performed nor conjure work they never did: ``total_work_done``
    stays within the total work submitted to the device, and busy time
    within the elapsed span.
    """

    def _run_shedding(self, num_tasks=32, duration=1.0):
        from repro.core.context_pool import build_contexts
        from repro.core.sgprs import SgprsScheduler
        from repro.gpu.device import GpuDevice
        from repro.sim.engine import SimulationEngine
        from repro.sim.metrics import MetricsCollector
        from repro.sim.trace import TraceRecorder

        class SheddingSgprs(SgprsScheduler):
            """Admit every release, shed jobs still alive at half-deadline
            (an aggressive policy that guarantees mid-flight aborts under
            overload)."""

            name = "sgprs_shedding"

            def admit_job(self, job, previous):
                return True

            def _release_job(self, task):
                super()._release_job(task)
                job = self._latest_job.get(task.name)
                if job is not None and not job.finished:
                    self.engine.schedule_at(
                        job.release_time + 0.5 * task.relative_deadline,
                        lambda j=job: self.abort_job(j),
                        tag=f"shed:{task.name}/j{job.index}",
                    )

        pool = ContextPoolConfig.from_oversubscription(2, 1.0, RTX_2080_TI)
        tasks = identical_periodic_tasks(
            num_tasks, nominal_sms=pool.sms_per_context
        )
        engine = SimulationEngine()
        contexts = build_contexts(pool, RTX_2080_TI)
        trace = TraceRecorder()
        device = GpuDevice(engine, RTX_2080_TI, contexts, trace=trace)
        submitted = []
        original_submit = device.submit

        def tracking_submit(kernel, context):
            submitted.append(kernel.work_total)
            original_submit(kernel, context)

        device.submit = tracking_submit
        scheduler = SheddingSgprs(
            engine,
            device,
            tasks,
            MetricsCollector(warmup=0.0),
            trace=trace,
            horizon=duration,
        )
        scheduler.start()
        engine.run_until(duration)
        return engine, device, trace, sum(submitted)

    def test_shed_jobs_never_overcount_work(self):
        engine, device, trace, submitted_work = self._run_shedding()
        assert trace.kinds().get("job_shed", 0) > 0, (
            "scenario must actually shed jobs to exercise the abort path"
        )
        assert 0.0 < device.total_work_done <= submitted_work + 1e-9
        assert device.busy_time <= engine.now + 1e-12
        assert 0.0 < device.utilization() <= 1.0

    def test_shed_work_is_not_lost_from_the_integral(self):
        # Sharp pin for the integrate-before-detach abort fix: a single
        # job, shed mid-first-stage with NO intervening change point.
        # Without the fix the abort detaches the kernel before its only
        # progress segment is integrated, so total_work_done is exactly 0.
        from repro.core.context_pool import build_contexts
        from repro.core.sgprs import SgprsScheduler
        from repro.gpu.device import GpuDevice
        from repro.sim.engine import SimulationEngine
        from repro.sim.metrics import MetricsCollector
        from repro.sim.trace import TraceRecorder

        # well inside the first stage (it completes at ~0.52 ms on the
        # full device), so the abort is the only change point after release
        shed_at = 0.0003
        pool = ContextPoolConfig.from_oversubscription(1, 1.0, RTX_2080_TI)
        tasks = identical_periodic_tasks(1, nominal_sms=pool.sms_per_context)
        engine = SimulationEngine()
        trace = TraceRecorder()
        device = GpuDevice(
            engine, RTX_2080_TI, build_contexts(pool, RTX_2080_TI),
            trace=trace,
        )
        scheduler = SgprsScheduler(
            engine, device, tasks, MetricsCollector(warmup=0.0),
            trace=trace, horizon=2 * shed_at,
        )
        scheduler.start()

        def shed_the_job():
            (job,) = scheduler._latest_job.values()
            scheduler.abort_job(job)

        engine.schedule_at(shed_at, shed_the_job, tag="shed")
        engine.run_until(2 * shed_at)
        kinds = trace.kinds()
        assert kinds.get("job_shed") == 1
        # precondition for sharpness: the first stage was still running,
        # so the abort was the only change point after the release
        assert kinds.get("kernel_done", 0) == 0
        assert device.busy_time == pytest.approx(shed_at)
        # the shed kernel's partial progress (rate * shed_at) is integrated;
        # without the fix this is exactly 0.0
        assert device.total_work_done > 0.0


class TestInflightAccounting:
    """The admit/depart ledger: non-negative always, loud when forged.

    ``_job_departed`` used to compute ``self._inflight.get(name, 1) - 1``,
    silently inventing a phantom admission for a missing key — drift in
    the ledger produced negative totals instead of an error.
    """

    def _build(self, num_tasks, duration, admission=None, shedding=False):
        from repro.core.context_pool import build_contexts
        from repro.core.sgprs import SgprsScheduler
        from repro.gpu.device import GpuDevice
        from repro.sim.engine import SimulationEngine
        from repro.sim.metrics import MetricsCollector
        from repro.sim.trace import TraceRecorder

        base = SgprsScheduler
        if shedding:

            class SheddingSgprs(SgprsScheduler):
                name = "sgprs_shedding"

                def _release_job(self, task):
                    super()._release_job(task)
                    job = self._latest_job.get(task.name)
                    # Shed every third job mid-flight; the rest run long
                    # enough that overload also produces source skips.
                    if (
                        job is not None
                        and not job.finished
                        and job.index % 3 == 0
                    ):
                        self.engine.schedule_at(
                            job.release_time + 0.5 * task.relative_deadline,
                            lambda j=job: self.abort_job(j),
                            tag=f"shed:{task.name}/j{job.index}",
                        )

            base = SheddingSgprs

        pool = ContextPoolConfig.from_oversubscription(2, 1.0, RTX_2080_TI)
        tasks = identical_periodic_tasks(
            num_tasks, nominal_sms=pool.sms_per_context
        )
        engine = SimulationEngine()
        trace = TraceRecorder()
        device = GpuDevice(
            engine, RTX_2080_TI, build_contexts(pool, RTX_2080_TI),
            trace=trace,
        )
        metrics = MetricsCollector(warmup=0.0)
        depths = []
        original = metrics.record_queue_depth

        def sampling_record(now, depth):
            depths.append(depth)
            original(now, depth)

        metrics.record_queue_depth = sampling_record
        scheduler = base(
            engine, device, tasks, metrics,
            trace=trace, horizon=duration, admission=admission,
        )
        return engine, scheduler, trace, depths

    def _check_ledger(self, scheduler, depths):
        assert depths, "the run must exercise the in-flight ledger"
        assert min(depths) >= 0
        assert all(count >= 0 for count in scheduler._inflight.values())
        assert scheduler._inflight_total == sum(
            scheduler._inflight.values()
        )

    def test_never_negative_under_overload_skips_and_sheds(self):
        engine, scheduler, trace, depths = self._build(
            num_tasks=72, duration=1.0, shedding=True
        )
        scheduler.start()
        engine.run_until(1.0)
        kinds = trace.kinds()
        assert kinds.get("job_skip", 0) > 0
        assert kinds.get("job_shed", 0) > 0
        self._check_ledger(scheduler, depths)

    def test_never_negative_under_admission_rejects(self):
        from repro.core.admission import resolve_admission

        engine, scheduler, trace, depths = self._build(
            num_tasks=72, duration=1.0,
            admission=resolve_admission("queue:depth=1"),
        )
        scheduler.start()
        engine.run_until(1.0)
        assert trace.kinds().get("job_reject", 0) > 0
        self._check_ledger(scheduler, depths)

    def test_forged_departure_fails_loudly(self):
        engine, scheduler, trace, depths = self._build(
            num_tasks=1, duration=0.1
        )
        scheduler.start()
        engine.run_until(0.1)
        job = next(iter(scheduler._latest_job.values()))
        assert job.admitted
        # Forge a second departure of the same job with the ledger empty:
        # the old code silently invented a count of 1 and drove the
        # per-task entry to 0 and the total negative.
        job._departed = False
        scheduler._inflight[job.task.name] = 0
        scheduler._inflight_total = 0
        with pytest.raises(RuntimeError, match="accounting drift"):
            scheduler._job_departed(job)
