"""Admission policies: decisions, registry, and scheduler integration.

The integration tests drive full simulations under bursty MMPP overload
and check the three-way admission semantics end to end: ``job_skip``
stays a deadline miss, ``job_reject`` feeds the rejection rate and never
the DMR, and the queue-depth metrics see exactly the admitted backlog.
"""

import pickle

import pytest

from repro.core.admission import (
    AdmissionDecision,
    AdmissionPolicy,
    AdmitAll,
    BoundedQueue,
    RejectIfBusy,
    SkipIfBusy,
    list_admission_policies,
    parse_spec,
    register_admission,
    resolve_admission,
)
from repro.core.context_pool import ContextPoolConfig
from repro.core.runner import RunConfig, run_simulation
from repro.core.sgprs import SgprsScheduler
from repro.gpu.spec import RTX_2080_TI
from repro.workloads.generator import identical_periodic_tasks


#: Queue specs that once ran with a wrong admission rule: a NaN depth
#: rejected every job, and infinite or fractional depths were accepted.
BAD_ADMISSION_SPECS = [
    ("queue:depth=nan", "depth"),
    ("queue:depth=inf", "depth"),
    ("queue:depth=2.5", "depth"),
]


class _Job:
    """Minimal stand-in for JobInstance in pure-policy tests."""

    def __init__(self, finished=False):
        self.finished = finished


@pytest.fixture(scope="module")
def pool():
    return ContextPoolConfig.from_oversubscription(2, 1.0, RTX_2080_TI)


def overload_run(pool, admission, arrival="mmpp:burst=8,calm=0.5",
                 count=6, seed=0):
    """A short bursty-overload run under the given admission policy."""
    tasks = identical_periodic_tasks(count, nominal_sms=pool.sms_per_context)
    return run_simulation(
        tasks,
        RunConfig(
            pool=pool,
            scheduler=SgprsScheduler,
            duration=1.0,
            warmup=0.2,
            seed=seed,
            arrival=arrival,
            admission=admission,
            record_trace=True,
        ),
    )


# ---------------------------------------------------------------------------
# Pure policy decisions
# ---------------------------------------------------------------------------
class TestPolicies:
    def test_skip_if_busy(self):
        policy = SkipIfBusy()
        assert policy.decide(_Job(), None, 0) is AdmissionDecision.ADMIT
        assert (
            policy.decide(_Job(), _Job(finished=True), 0)
            is AdmissionDecision.ADMIT
        )
        assert (
            policy.decide(_Job(), _Job(finished=False), 1)
            is AdmissionDecision.SKIP
        )

    def test_reject_if_busy(self):
        policy = RejectIfBusy()
        assert policy.decide(_Job(), None, 0) is AdmissionDecision.ADMIT
        assert (
            policy.decide(_Job(), _Job(finished=False), 1)
            is AdmissionDecision.REJECT
        )

    def test_admit_all(self):
        policy = AdmitAll()
        assert (
            policy.decide(_Job(), _Job(finished=False), 99)
            is AdmissionDecision.ADMIT
        )

    def test_bounded_queue(self):
        policy = BoundedQueue(depth=2)
        assert policy.decide(_Job(), None, 0) is AdmissionDecision.ADMIT
        assert policy.decide(_Job(), None, 1) is AdmissionDecision.ADMIT
        assert policy.decide(_Job(), None, 2) is AdmissionDecision.REJECT

    def test_bounded_queue_validates_depth(self):
        with pytest.raises(ValueError, match="depth"):
            BoundedQueue(depth=0)

    @pytest.mark.parametrize("depth", [True, 2.0, "2"])
    def test_bounded_queue_accepts_only_an_int_depth(self, depth):
        with pytest.raises(ValueError, match="depth"):
            BoundedQueue(depth=depth)

    @pytest.mark.parametrize(
        "policy",
        [SkipIfBusy(), AdmitAll(), RejectIfBusy(), BoundedQueue(depth=3)],
        ids=lambda p: p.name,
    )
    def test_policies_are_picklable(self, policy):
        clone = pickle.loads(pickle.dumps(policy))
        assert clone.name == policy.name
        assert clone.describe() == policy.describe()


# ---------------------------------------------------------------------------
# Spec strings and the registry
# ---------------------------------------------------------------------------
class TestSpecs:
    def test_parse_spec_coercion(self):
        name, params = parse_spec("queue:depth=4,scale=1.5,mode=x")
        assert name == "queue"
        assert params == {"depth": 4, "scale": 1.5, "mode": "x"}
        assert isinstance(params["depth"], int)
        assert isinstance(params["scale"], float)

    def test_parse_spec_rejects_malformed(self):
        with pytest.raises(ValueError, match="empty name"):
            parse_spec(":depth=4")
        with pytest.raises(ValueError, match="malformed parameter"):
            parse_spec("queue:depth")

    def test_resolve_empty_means_legacy_default(self):
        assert resolve_admission("") is None
        assert resolve_admission(None) is None

    def test_resolve_instances_pass_through(self):
        policy = BoundedQueue(depth=2)
        assert resolve_admission(policy) is policy

    def test_resolve_spec(self):
        policy = resolve_admission("queue:depth=2")
        assert isinstance(policy, BoundedQueue)
        assert policy.depth == 2

    def test_resolve_rejects_unknown_and_bad_params(self):
        with pytest.raises(ValueError, match="unknown admission policy"):
            resolve_admission("bogus")
        with pytest.raises(ValueError, match="bad parameters"):
            resolve_admission("queue:nope=1")

    @pytest.mark.parametrize("spec,field", BAD_ADMISSION_SPECS)
    def test_resolve_names_the_bad_field(self, spec, field):
        with pytest.raises(ValueError, match=field):
            resolve_admission(spec)

    def test_builtins_registered_with_descriptions(self):
        names = [name for name, _ in list_admission_policies()]
        assert names == ["skip", "admit_all", "reject", "queue"]
        assert all(desc for _, desc in list_admission_policies())

    def test_custom_registration(self):
        class AlwaysReject(AdmissionPolicy):
            name = "always_reject_test"

            def decide(self, job, previous, inflight):
                return AdmissionDecision.REJECT

        register_admission("always_reject_test", AlwaysReject, "test-only")
        try:
            assert isinstance(
                resolve_admission("always_reject_test"), AlwaysReject
            )
        finally:
            from repro.core.admission import _ADMISSION_REGISTRY

            del _ADMISSION_REGISTRY["always_reject_test"]


# ---------------------------------------------------------------------------
# Scheduler integration
# ---------------------------------------------------------------------------
class TestSchedulerIntegration:
    def test_default_policy_skips_never_rejects(self, pool):
        result = overload_run(pool, admission="")
        kinds = {record.kind for record in result.trace}
        assert "job_skip" in kinds  # bursty overload forces drops
        assert "job_reject" not in kinds
        assert result.rejected == 0
        assert result.rejection_rate == 0.0

    def test_skip_policy_object_matches_legacy_hook_exactly(self, pool):
        legacy = overload_run(pool, admission="")
        policy = overload_run(pool, admission="skip")
        assert [
            (r.time, r.kind, tuple(sorted(r.fields.items())))
            for r in legacy.trace
        ] == [
            (r.time, r.kind, tuple(sorted(r.fields.items())))
            for r in policy.trace
        ]

    def test_reject_policy_emits_job_reject_and_rate(self, pool):
        result = overload_run(pool, admission="reject")
        rejects = [r for r in result.trace if r.kind == "job_reject"]
        assert rejects
        assert all(r.kind != "job_skip" for r in result.trace)
        assert result.rejected >= len(
            [r for r in rejects if r.time >= 0.2]
        ) > 0
        assert 0.0 < result.rejection_rate < 1.0
        # Rejected jobs are excluded from DMR: with every overload release
        # refused up front, the admitted jobs all finish (eventually) and
        # the miss rate stays far below the rejection rate's complement.
        assert result.dmr < 1.0

    def test_skip_counts_as_miss_reject_does_not(self, pool):
        skip = overload_run(pool, admission="skip")
        reject = overload_run(pool, admission="reject")
        # Same releases, same busy windows: the drop count matches, but
        # skips land in the DMR numerator while rejects leave it.
        assert reject.dmr < skip.dmr
        assert skip.rejection_rate == 0.0
        assert reject.rejection_rate > 0.0

    def test_bounded_queue_caps_per_task_backlog(self, pool):
        shallow = overload_run(pool, admission="queue:depth=1", count=4)
        deep = overload_run(pool, admission="queue:depth=4", count=4)
        assert shallow.max_queue_depth <= 1 * 4  # depth x tasks
        assert deep.max_queue_depth <= 4 * 4
        assert deep.max_queue_depth > shallow.max_queue_depth
        assert deep.rejection_rate < shallow.rejection_rate

    def test_admit_all_policy_matches_ablation_flag(self, pool):
        class BacklogSgprs(SgprsScheduler):
            def admit_job(self, job, previous):
                return True

        tasks = identical_periodic_tasks(
            6, nominal_sms=pool.sms_per_context
        )
        flag = run_simulation(
            tasks,
            RunConfig(pool=pool, scheduler=BacklogSgprs, duration=0.8,
                      warmup=0.2, arrival="mmpp", record_trace=True),
        )
        policy = run_simulation(
            tasks,
            RunConfig(pool=pool, scheduler=SgprsScheduler, duration=0.8,
                      warmup=0.2, arrival="mmpp", admission="admit_all",
                      record_trace=True),
        )
        assert [
            (r.time, r.kind) for r in flag.trace
        ] == [(r.time, r.kind) for r in policy.trace]

    def test_queue_depth_metrics_observe_admitted_backlog(self, pool):
        closed = overload_run(pool, admission="", arrival="periodic")
        open_ = overload_run(pool, admission="queue:depth=6")
        # Skip-if-busy keeps at most one job per task in flight.
        assert closed.max_queue_depth <= 6
        assert closed.mean_queue_depth > 0.0
        assert open_.mean_queue_depth > 0.0

    def test_goodput_never_exceeds_fps(self, pool):
        result = overload_run(pool, admission="queue:depth=3")
        assert 0.0 < result.goodput <= result.total_fps

    def test_tail_percentiles_present_under_load(self, pool):
        result = overload_run(pool, admission="queue:depth=3")
        assert result.p99_response is not None
        assert result.p999_response is not None
        assert result.p999_response >= result.p99_response > 0.0
