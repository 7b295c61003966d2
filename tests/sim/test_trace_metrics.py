"""Trace replay reproduces the live collector exactly.

:func:`metrics_from_trace` feeds a trace's ``job_*`` records into a fresh
:class:`MetricsCollector`, so there is one definition of every metric.
Each real scenario here runs a simulation once and demands the replay of
its trace equal the live result exactly, including under admission
control where releases can be rejected or queued.  The hand-built traces
pin the replay's calls against a collector fed the matching live calls,
and its refusal of impossible histories.

Every case replays two sources: plain ``TraceRecord`` lists, which the
replay columnarises first, and columnar traces built from them, whose
``job_*`` rows it reads straight from the columns.  Both must give the
same summary or raise the same error.
"""

import pytest

from repro.core.context_pool import ContextPoolConfig
from repro.core.runner import RunConfig, run_simulation
from repro.gpu.spec import RTX_2080_TI
from repro.sim.metrics import MetricsCollector, metrics_from_trace
from repro.sim.trace import TraceRecord
from repro.sim.trace_columnar import ColumnarTrace
from repro.workloads.generator import identical_periodic_tasks

DURATION = 0.6
WARMUP = 0.15

SCENARIOS = [
    # (id, num_tasks, extra RunConfig kwargs)
    ("closed_overload", 20, {}),
    ("reject_poisson", 8, {"admission": "reject", "arrival": "poisson"}),
    ("queue_mmpp", 8, {"admission": "queue:depth=2", "arrival": "mmpp"}),
]


def run_traced(num_tasks, **kwargs):
    pool = ContextPoolConfig.from_oversubscription(2, 1.0, RTX_2080_TI)
    tasks = identical_periodic_tasks(
        num_tasks, nominal_sms=pool.sms_per_context
    )
    return run_simulation(
        tasks,
        RunConfig(
            pool=pool,
            duration=DURATION,
            warmup=WARMUP,
            record_trace=True,
            **kwargs,
        ),
    )


def live_summary(result, replayed):
    summary = result.metrics_summary()
    return {key: summary[key] for key in replayed}


def rec(time, kind, **fields):
    return TraceRecord(time, kind, fields)


def replay_both(trace, warmup, now):
    """``metrics_from_trace`` of ``trace``'s records as a list and as a
    columnar trace: the same summary, or the same error (re-raised)."""
    records = list(trace)
    outcomes = []
    for source in (records, ColumnarTrace.from_records(records)):
        try:
            outcomes.append(metrics_from_trace(source, warmup, now))
        except (KeyError, ValueError) as error:
            outcomes.append(error)
    listed, columnar = outcomes
    if isinstance(listed, Exception):
        assert (type(columnar), str(columnar)) == (type(listed), str(listed))
        raise listed
    assert columnar == listed
    return listed


class TestAccumulatorEquivalence:
    """The replay accumulates into a collector exactly as the run did."""

    @pytest.mark.parametrize(
        "num_tasks,kwargs",
        [s[1:] for s in SCENARIOS],
        ids=[s[0] for s in SCENARIOS],
    )
    def test_matches_live_collector(self, num_tasks, kwargs):
        result = run_traced(num_tasks, **kwargs)
        replayed = metrics_from_trace(result.trace, WARMUP, DURATION)
        assert replayed["released"] > 0
        assert replayed == live_summary(result, replayed)
        assert replay_both(result.trace, WARMUP, DURATION) == replayed

    def test_survives_disk_round_trip(self):
        from repro.sim.trace_io import trace_from_bytes, trace_to_bytes

        result = run_traced(20)
        rebuilt = trace_from_bytes(trace_to_bytes(result.trace))
        replayed = metrics_from_trace(rebuilt, WARMUP, DURATION)
        assert replayed == live_summary(result, replayed)

    def test_open_job_with_deadline_at_now_is_undecided_not_missed(self):
        trace = [
            rec(0.5, "job_release", task="a", job=0, deadline=1.0),
            rec(0.5, "stage_release", stage="a#0.0"),
        ]
        live = MetricsCollector()
        live.job_released("a", 0, 0.5, 1.0)
        live.record_queue_depth(0.5, 1)
        replayed = replay_both(trace, 0.0, 1.0)
        assert replayed == live.summary(1.0)
        assert replayed["dmr"] == 0.0

    def test_shed_job_departs_and_stays_an_unfinished_miss(self):
        trace = [
            rec(0.1, "job_release", task="a", job=0, deadline=0.3),
            rec(0.1, "stage_release", stage="a#0.0"),
            rec(0.2, "job_shed", task="a", job=0),
        ]
        live = MetricsCollector()
        live.job_released("a", 0, 0.1, 0.3)
        live.record_queue_depth(0.1, 1)
        live.record_queue_depth(0.2, 0)
        replayed = replay_both(trace, 0.0, 1.0)
        assert replayed == live.summary(1.0)
        assert replayed["dmr"] == 1.0
        assert replayed["max_queue_depth"] == 1


class TestAccumulatorContract:
    """Impossible histories fail loudly instead of scoring."""

    def test_refusal_away_from_its_release_raises(self):
        trace = [
            rec(0.1, "job_release", task="a", job=0, deadline=0.2),
            rec(0.1, "stage_release", stage="a#0.0"),
            rec(0.1, "job_reject", task="a", job=0),
        ]
        with pytest.raises(ValueError, match="does not follow its release"):
            replay_both(trace, 0.0, 1.0)

    def test_skip_away_from_its_release_raises(self):
        trace = [
            rec(0.1, "job_release", task="a", job=0, deadline=0.2),
            rec(0.1, "allocation", pressure=1.0, resident=1),
            rec(0.1, "job_skip", task="a", job=0),
        ]
        with pytest.raises(ValueError, match="does not follow its release"):
            replay_both(trace, 0.0, 1.0)

    def test_refusal_of_another_job_raises(self):
        trace = [
            rec(0.1, "job_release", task="a", job=0, deadline=0.2),
            rec(0.1, "job_reject", task="a", job=1),
        ]
        with pytest.raises(ValueError, match="does not follow its release"):
            replay_both(trace, 0.0, 1.0)

    def test_refusal_right_after_its_release_is_accepted(self):
        trace = [
            rec(0.1, "job_release", task="a", job=0, deadline=0.2),
            rec(0.1, "job_reject", task="a", job=0),
            rec(0.2, "job_release", task="a", job=1, deadline=0.3),
            rec(0.2, "job_skip", task="a", job=1),
        ]
        replayed = replay_both(trace, 0.0, 1.0)
        assert replayed["rejected"] == 1
        assert replayed["dmr"] == 1.0
        assert replayed["max_queue_depth"] == 0

    def test_completion_without_release_raises(self):
        trace = [rec(0.5, "job_complete", task="a", job=0)]
        with pytest.raises(KeyError):
            replay_both(trace, 0.0, 1.0)

    def test_out_of_order_times_raise(self):
        """Both sources are columnarised, and the recorder refuses a time
        that runs backwards before the collector sees the completion (its
        own "before its release" check is pinned in ``test_metrics``)."""
        trace = [
            rec(1.0, "job_release", task="a", job=0, deadline=2.0),
            rec(1.0, "stage_release", stage="a#0.0"),
            rec(0.7, "job_complete", task="a", job=0),
        ]
        with pytest.raises(
            ValueError,
            match="'job_complete' field 'time': 0.7 is before the time "
            "recorded before it, 1.0",
        ):
            replay_both(trace, 0.0, 2.0)

    def test_release_without_deadline_rejected(self):
        stale = rec(0.0, "job_release", task="t0", job=0)
        with pytest.raises(ValueError, match="deadline"):
            replay_both([stale], 0.0, 1.0)

    def test_one_release_without_deadline_among_others_rejected(self):
        trace = [
            rec(0.0, "job_release", task="t0", job=0, deadline=0.5),
            rec(0.0, "stage_release", stage="t0#0.0"),
            rec(0.1, "job_release", task="t0", job=1),
        ]
        with pytest.raises(ValueError, match="deadline"):
            replay_both(trace, 0.0, 1.0)

    def test_completion_after_shed_raises(self):
        trace = [
            rec(0.1, "job_release", task="a", job=0, deadline=0.3),
            rec(0.1, "stage_release", stage="a#0.0"),
            rec(0.2, "job_shed", task="a", job=0),
            rec(0.3, "job_complete", task="a", job=0),
        ]
        with pytest.raises(ValueError, match="queue depth must be >= 0"):
            replay_both(trace, 0.0, 1.0)

    def test_empty_trace_finalizes_to_zeros(self):
        metrics = replay_both([], 0.5, 1.0)
        assert metrics["total_fps"] == 0.0
        assert metrics["dmr"] == 0.0
        assert metrics["released"] == 0
        assert metrics["p99_response"] is None
        assert metrics["max_queue_depth"] == 0
