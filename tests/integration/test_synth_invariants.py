"""Scheduler invariants on synthesized heterogeneous tasksets.

The SchedulerBase contracts (tests/core/test_scheduler_invariants.py) were
established on the paper's homogeneous workload; a synthesized taskset —
mixed models, ladder periods, constrained deadlines, per-task stage counts
— must uphold the same guarantees on both SGPRS and the naive baseline.
"""

from collections import Counter

import pytest

from repro.core.context_pool import ContextPoolConfig
from repro.core.naive import NaiveScheduler
from repro.core.runner import RunConfig, run_simulation
from repro.core.sgprs import SgprsScheduler
from repro.gpu.spec import RTX_2080_TI
from repro.workloads.synth import SynthSpec, synthesize_taskset

DURATION = 0.8

_RUN_CACHE = {}


def run_synth_traced(scheduler, spec, num_contexts=2, oversubscription=1.0):
    """One traced run per (scheduler, spec), shared by the test methods."""
    key = (scheduler, spec, num_contexts, oversubscription)
    if key in _RUN_CACHE:
        return _RUN_CACHE[key]
    pool = ContextPoolConfig.from_oversubscription(
        num_contexts, oversubscription, RTX_2080_TI
    )
    tasks = synthesize_taskset(
        spec,
        nominal_sms=pool.sms_per_context,
        monolithic=scheduler is NaiveScheduler,
    )
    result = run_simulation(
        tasks,
        RunConfig(
            pool=pool,
            scheduler=scheduler,
            duration=DURATION,
            warmup=0.2,
            record_trace=True,
        ),
    )
    _RUN_CACHE[key] = result
    return result


SPECS = [
    SynthSpec(num_tasks=4, total_utilization=1.2, zoo_mix="fleet", seed=0),
    SynthSpec(
        num_tasks=6,
        total_utilization=2.6,
        zoo_mix="surveillance",
        period_class="loguniform",
        deadline_mode="constrained",
        seed=5,
    ),
    SynthSpec(
        num_tasks=5,
        total_utilization=3.5,  # overload: skips/sheds must be accounted
        zoo_mix="fleet",
        period_class="camera",
        seed=9,
    ),
]


@pytest.mark.parametrize("scheduler", [SgprsScheduler, NaiveScheduler])
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"u{s.total_utilization}")
class TestSynthSchedulerInvariants:
    def test_job_conservation(self, scheduler, spec):
        result = run_synth_traced(scheduler, spec)
        kinds = result.trace.kinds()
        released = kinds.get("job_release", 0)
        completed = kinds.get("job_complete", 0)
        skipped = kinds.get("job_skip", 0)
        shed = kinds.get("job_shed", 0)
        in_flight = released - completed - skipped - shed
        assert 0 <= in_flight <= spec.num_tasks
        assert result.released == released
        assert result.completed == completed

    def test_trace_monotonic_within_horizon(self, scheduler, spec):
        result = run_synth_traced(scheduler, spec)
        times = [record.time for record in result.trace]
        assert times, "a run must emit trace records"
        assert all(b >= a for a, b in zip(times, times[1:]))
        release_times = [r.time for r in result.trace.of_kind("job_release")]
        assert all(t < DURATION for t in release_times)

    def test_per_task_conservation(self, scheduler, spec):
        result = run_synth_traced(scheduler, spec)
        released, finished = Counter(), Counter()
        for record in result.trace:
            if record.kind == "job_release":
                released[record.get("task")] += 1
            elif record.kind in ("job_complete", "job_skip", "job_shed"):
                finished[record.get("task")] += 1
        assert released, "trace must attribute records to tasks"
        for name in released.keys() | finished.keys():
            assert finished[name] <= released[name] <= finished[name] + 1, name
