"""Trace equivalence against recorded trace digests.

The device re-anchors a kernel's completion only when its rate revision
moved, keeps one engine event at the earliest anchor, and skips the
allocation pass entirely when the resident set is untouched (see
:mod:`repro.gpu.device`).  These tests pin
what that produces: for every named scenario, scheduler variant,
replication seed and jitter setting, the canonical trace (every record's
exact float timestamp, kind and payload) must hash to the sha256 recorded
in ``tests/golden/trace_digests.json``.  The fast tier runs a one-seed
slice on every push; the full matrix (all named scenarios x 3 seeds x
jitter on/off x both scheduler families) runs in the slow tier.

The digest hashes the canonical tuples (exact float reprs), not the
on-disk bytes, so a trace-format change does not churn it.  A change that
moves a trace on purpose names the bug it fixes and replaces the entries
its failing assertions print.

``TestCeilingBoundRearm`` additionally pins the settle's exact cost in the
ceiling-bound regime (aggregate cap saturated, every settle a uniform
rescale): the device re-anchors every resident kernel but pushes at most
one engine event, while the allocator evaluates speedup curves only for
kernels whose share moved.
"""

import functools
import hashlib
import json
import pathlib

import pytest

from repro.core.context_pool import ContextPoolConfig
from repro.core.runner import RunConfig, run_simulation
from repro.core.scheduler import JobInstance
from repro.core.sgprs import SgprsScheduler
from repro.exp.grid import GridPoint, resolve_variant
from repro.gpu.allocator import AllocationParams
from repro.gpu.context import SimContext
from repro.gpu.device import GpuDevice
from repro.gpu.kernel import StageKernel
from repro.gpu.spec import RTX_2080_TI, GpuDeviceSpec
from repro.sim.engine import SimulationEngine
from repro.speedup.model import SaturatingCurve
from repro.workloads.generator import identical_periodic_tasks
from repro.workloads.synth.scenarios import taskset_for_point

#: Every named scenario: (scenario name, context count, workload axis).
NAMED_SCENARIOS = [
    ("scenario1", 2, "identical"),
    ("scenario2", 3, "identical"),
    ("mixed_fleet", 2, "mixed_fleet"),
    ("surveillance_burst", 3, "surveillance_burst"),
    ("util_ramp", 2, "util_ramp"),
]

DIGESTS_PATH = (
    pathlib.Path(__file__).resolve().parents[1] / "golden" / "trace_digests.json"
)


def run_traced(point: GridPoint, scheduler_cls=None):
    """One fully-traced run of a grid point.

    Mirrors :func:`repro.exp.worker.run_point`'s taskset construction, but
    keeps the trace (the sweep path deliberately drops it).
    """
    scheduler, oversubscription, task_stages = resolve_variant(
        point.variant, point.num_stages
    )
    pool = ContextPoolConfig.from_oversubscription(
        point.num_contexts, oversubscription, RTX_2080_TI
    )
    if point.workload == "identical":
        tasks = identical_periodic_tasks(
            count=point.num_tasks,
            nominal_sms=pool.sms_per_context,
            period=point.period,
            num_stages=task_stages,
        )
    else:
        tasks = taskset_for_point(
            point,
            nominal_sms=pool.sms_per_context,
            monolithic=task_stages == 1,
        )
    return run_simulation(
        tasks,
        RunConfig(
            pool=pool,
            scheduler=scheduler_cls if scheduler_cls is not None else scheduler,
            duration=point.duration,
            warmup=point.warmup,
            record_trace=True,
            work_jitter_cv=point.work_jitter_cv,
            seed=point.seed,
            arrival=point.arrival,
            admission=point.admission,
        ),
    )


def canonical_trace(result):
    """The trace as comparable tuples; floats compare exactly (bitwise)."""
    return [
        (record.time, record.kind, tuple(sorted(record.fields.items())))
        for record in result.trace
    ]


def trace_digest(result) -> str:
    """sha256 over the reprs of the canonical trace tuples."""
    hasher = hashlib.sha256()
    for entry in canonical_trace(result):
        hasher.update(repr(entry).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def digest_key(point: GridPoint, scheduler_cls=None) -> str:
    """The digest file's key for a point run by an optional scheduler."""
    key = (
        f"{point.scenario}/{point.variant}/n{point.num_tasks}"
        f"/seed{point.seed}/cv{point.work_jitter_cv:g}/d{point.duration:g}"
    )
    if scheduler_cls is not None:
        key += f"/{scheduler_cls.name}"
    return key


@functools.lru_cache(maxsize=None)
def recorded_digests():
    with open(DIGESTS_PATH) as handle:
        return json.load(handle)["digests"]


def assert_recorded(result, key: str):
    expected = recorded_digests().get(key)
    actual = trace_digest(result)
    assert actual == expected, (
        f"trace digest of {key} moved: recorded {expected}, got {actual}"
    )


def assert_point_recorded(point: GridPoint, scheduler_cls=None):
    """Run ``point`` traced and check it against its recorded digest."""
    assert_recorded(
        run_traced(point, scheduler_cls), digest_key(point, scheduler_cls)
    )


def make_point(scenario, num_contexts, workload, variant, seed, jitter,
               num_tasks, duration):
    return GridPoint(
        scenario=scenario,
        num_contexts=num_contexts,
        variant=variant,
        num_tasks=num_tasks,
        seed=seed,
        duration=duration,
        warmup=duration / 4.0,
        work_jitter_cv=jitter,
        workload=workload,
    )


class TestFastSlice:
    """One-seed slice of the equivalence matrix; runs on every push."""

    @pytest.mark.parametrize(
        "scenario,num_contexts,workload", NAMED_SCENARIOS
    )
    @pytest.mark.parametrize("jitter", [0.0, 0.1])
    def test_sgprs_trace_equivalence(self, scenario, num_contexts, workload,
                                     jitter):
        assert_point_recorded(
            make_point(scenario, num_contexts, workload, "sgprs_1.5",
                       seed=0, jitter=jitter, num_tasks=5, duration=0.8)
        )

    @pytest.mark.parametrize(
        "scenario,num_contexts,workload", NAMED_SCENARIOS[:2]
    )
    def test_naive_trace_equivalence(self, scenario, num_contexts, workload):
        # The naive baseline pays partition-reconfiguration setup time, the
        # one path where completion times mix setup and rate-based work.
        assert_point_recorded(
            make_point(scenario, num_contexts, workload, "naive",
                       seed=0, jitter=0.1, num_tasks=5, duration=0.8)
        )


class _BacklogSgprs(SgprsScheduler):
    """Admit-everything ablation: queues snowball, change points are dense."""

    name = "sgprs_backlog"

    def admit_job(self, job, previous):
        return True


class SheddingSgprs(_BacklogSgprs):
    """Backlog admission plus deadline-triggered job shedding."""

    name = "sgprs_shedding"

    def _release_job(self, task):
        super()._release_job(task)
        job = self._latest_job.get(task.name)
        if job is not None and not job.finished:
            self.engine.schedule_at(
                job.absolute_deadline,
                lambda j=job: self.abort_job(j),
                tag=f"shed:{task.name}/j{job.index}",
            )


class TestSheddingEquivalence:
    """The abort path (``abort_job`` -> ``GpuDevice.abort_many``)."""

    @pytest.mark.parametrize("jitter", [0.0, 0.1])
    def test_shedding_run_is_equivalent(self, jitter):
        point = make_point("scenario1", 2, "identical", "sgprs_1.5",
                           seed=3, jitter=jitter, num_tasks=8, duration=0.8)
        assert_point_recorded(point, scheduler_cls=SheddingSgprs)


class _CountingCurve:
    """``SaturatingCurve(0.05)`` that counts its evaluations."""

    def __init__(self):
        self.inner = SaturatingCurve(0.05)
        self.calls = 0

    def speedup(self, sms):
        self.calls += 1
        return self.inner.speedup(sms)


class TestCeilingBoundRearm:
    """The settle's cost in the ceiling-bound regime, pinned exactly.

    Setup: four contexts sized so summed grants equal the device
    (``pressure == 1``, ``device_scale == 1``) under a low aggregate
    ceiling that stays saturated throughout.  Every completion then
    changes *every* surviving kernel's rate — the aggregate drops, the
    ceiling rescale factor moves, and the rescale is uniform — so the
    device must re-anchor each survivor (O(K) anchor writes per settle),
    yet it pushes only its one event, at the earliest anchor.  The shares,
    though, move only inside the context that lost a kernel, and the
    allocator evaluates a speedup curve only where the share moved.
    """

    @staticmethod
    def _completion_settles():
        """Anchor writes, heap pushes and curve evaluations per completion
        settle, plus the completion order and the device's fired events."""
        engine = SimulationEngine()
        spec = GpuDeviceSpec(total_sms=68, aggregate_speedup_cap=10.0)
        contexts = [SimContext(i, 17.0) for i in range(4)]
        device = GpuDevice(
            engine, spec, contexts, AllocationParams(alpha=0.0, beta=0.0)
        )
        completions = []
        device.on_kernel_complete = lambda kernel: completions.append(
            kernel.label
        )
        curves = []
        # 16 kernels with distinct work totals: completions are spread out,
        # so each settle sees one departure and a fresh uniform rescale.
        for ci, context in enumerate(contexts):
            for si in range(4):
                index = ci * 4 + si
                curves.append(_CountingCurve())
                device.submit(
                    StageKernel(
                        label=f"c{ci}s{si}",
                        curve=curves[-1],
                        work=0.5 + 0.25 * index,
                        width_demand=17.0,
                        deadline=1e9,
                    ),
                    context,
                )
        arms, pushes, evaluations = [], [], []
        while True:
            armed = device.arms
            pushed = engine.scheduled_count
            evaluated = sum(curve.calls for curve in curves)
            seen = len(completions)
            if engine.run(max_events=1) == 0:
                break
            assert len(completions) == seen + 1  # only completion events
            arms.append(device.arms - armed)
            pushes.append(engine.scheduled_count - pushed)
            evaluations.append(sum(curve.calls for curve in curves) - evaluated)
        return arms, pushes, evaluations, completions, device.completions

    def test_incremental_rearms_every_survivor(self):
        arms, pushes, _, completions, fired = self._completion_settles()
        assert len(completions) == 16
        assert fired == 16
        # After the k-th completion, all (16 - k) survivors changed rate
        # under the saturated ceiling and must each be re-anchored ...
        assert arms == [16 - k for k in range(1, 17)]
        # ... but only the device's one event is pushed, at the earliest
        # anchor, and none once the last kernel has completed.
        assert pushes == [1] * 15 + [0]

    def test_settle_evaluates_only_moved_shares(self):
        _, _, evaluations, _, _ = self._completion_settles()
        # The contexts drain one after another; each settle evaluates only
        # the survivors of the context that lost a kernel, not all 15, 14,
        # ..., 0 survivors whose rate moved.
        assert evaluations == [3, 2, 1, 0] * 4


class _LegacyReleaseLoop:
    """The pre-arrivals hardcoded release loop, verbatim, as a mixin.

    The periodic arrival adapter claims bit-identity with the scheduler's
    historical ``start``/``_release_job`` (first release at
    ``task.release_offset``, every next one at ``now + task.period``).
    Pinning that claim against the adapter itself would be circular, so
    this mixin re-implements the legacy loop exactly as it stood before
    the arrivals subsystem and the tests compare traces across the two.
    """

    def start(self):
        for task in self.task_set:
            if task.release_offset < self.horizon:
                self.engine.schedule_at(
                    task.release_offset,
                    lambda t=task: self._release_job(t),
                    tag=f"release:{task.name}",
                )

    def _release_job(self, task):
        index = self._job_counters.get(task.name, 0)
        self._job_counters[task.name] = index + 1
        now = self.engine.now
        job = JobInstance(task, index, now)
        self.metrics.job_released(task.name, index, now, job.absolute_deadline)
        if self.trace is not None:
            self.trace.record(
                now,
                "job_release",
                task=task.name,
                job=index,
                deadline=job.absolute_deadline,
            )
        previous = self._latest_job.get(task.name)
        if self.admit_job(job, previous):
            self._latest_job[task.name] = job
            self._release_stage(job, 0, predecessor_missed=False)
        else:
            job.aborted = True
            if self.trace is not None:
                self.trace.record(now, "job_skip", task=task.name, job=index)
        next_release = now + task.period
        if next_release < self.horizon:
            self.engine.schedule_at(
                next_release,
                lambda t=task: self._release_job(t),
                tag=f"release:{task.name}",
            )


class TestLegacyReleaseLoopEquivalence:
    """Periodic adapter vs. the legacy loop: bit-identical, no rejections."""

    @pytest.mark.parametrize("variant", ["sgprs_1.5", "naive"])
    @pytest.mark.parametrize("jitter", [0.0, 0.1])
    def test_periodic_adapter_matches_legacy_loop(self, variant, jitter):
        point = make_point("scenario1", 2, "identical", variant,
                           seed=0, jitter=jitter, num_tasks=5, duration=0.8)
        base_cls, _, _ = resolve_variant(variant)
        legacy_cls = type(
            f"Legacy{base_cls.__name__}", (_LegacyReleaseLoop, base_cls), {}
        )
        modern = run_traced(point)
        legacy = run_traced(point, scheduler_cls=legacy_cls)
        assert canonical_trace(modern) == canonical_trace(legacy)
        assert_recorded(modern, digest_key(point))
        # Default policy (legacy skip-if-in-flight hook) never rejects.
        assert all(r.kind != "job_reject" for r in modern.trace)
        modern_metrics = modern.metrics_summary()
        legacy_metrics = legacy.metrics_summary()
        # The legacy loop predates queue-depth accounting; everything
        # else must agree exactly.
        for key in ("mean_queue_depth", "max_queue_depth"):
            modern_metrics.pop(key)
            legacy_metrics.pop(key)
        assert modern_metrics == legacy_metrics

    def test_explicit_periodic_spec_matches_default(self):
        point = make_point("scenario1", 2, "identical", "sgprs_1.5",
                           seed=1, jitter=0.1, num_tasks=5, duration=0.8)
        import dataclasses

        explicit = dataclasses.replace(point, arrival="periodic")
        assert canonical_trace(run_traced(point)) == canonical_trace(
            run_traced(explicit)
        )


@pytest.mark.slow
class TestFullMatrix:
    """The full matrix: all named scenarios x 3 seeds x jitter on/off x
    both scheduler families, every trace pinned to its recorded digest."""

    @pytest.mark.parametrize(
        "scenario,num_contexts,workload", NAMED_SCENARIOS
    )
    @pytest.mark.parametrize("variant", ["sgprs_1.5", "naive"])
    @pytest.mark.parametrize("jitter", [0.0, 0.1])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_trace_equivalence(self, scenario, num_contexts, workload,
                               variant, jitter, seed):
        assert_point_recorded(
            make_point(scenario, num_contexts, workload, variant,
                       seed=seed, jitter=jitter, num_tasks=6, duration=1.2)
        )
