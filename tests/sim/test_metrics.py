"""Unit tests for FPS / DMR metrics."""

import pytest

from repro.sim.metrics import JobRecord, MetricsCollector, StageRecord


class TestJobRecord:
    def test_completed_on_time_not_missed(self):
        job = JobRecord("t", 0, release_time=0.0, absolute_deadline=1.0,
                        finish_time=0.8)
        assert not job.missed(now=10.0)

    def test_completed_late_is_missed(self):
        job = JobRecord("t", 0, 0.0, 1.0, finish_time=1.2)
        assert job.missed(now=10.0)

    def test_unfinished_past_deadline_is_missed(self):
        job = JobRecord("t", 0, 0.0, 1.0)
        assert job.missed(now=2.0)

    def test_unfinished_before_deadline_not_missed_yet(self):
        job = JobRecord("t", 0, 0.0, 1.0)
        assert not job.missed(now=0.5)

    def test_response_time(self):
        job = JobRecord("t", 0, 1.0, 2.0, finish_time=1.7)
        assert job.response_time == pytest.approx(0.7)

    def test_response_time_none_when_unfinished(self):
        assert JobRecord("t", 0, 0.0, 1.0).response_time is None


class TestStageRecord:
    def test_missed_when_late(self):
        stage = StageRecord("t", 0, 2, 0.0, 0.5, finish_time=0.6)
        assert stage.missed(now=10.0)

    def test_not_missed_when_on_time(self):
        stage = StageRecord("t", 0, 2, 0.0, 0.5, finish_time=0.4)
        assert not stage.missed(now=10.0)


class TestCollectorLifecycle:
    def test_release_then_complete(self):
        metrics = MetricsCollector()
        metrics.job_released("a", 0, 0.0, 1.0)
        metrics.job_completed("a", 0, 0.5)
        assert metrics.completed_count() == 1

    def test_unknown_completion_raises(self):
        metrics = MetricsCollector()
        with pytest.raises(KeyError):
            metrics.job_completed("ghost", 0, 1.0)

    def test_double_completion_raises(self):
        metrics = MetricsCollector()
        metrics.job_released("a", 0, 0.0, 1.0)
        metrics.job_completed("a", 0, 0.5)
        with pytest.raises(ValueError):
            metrics.job_completed("a", 0, 0.6)

    def test_double_release_raises(self):
        metrics = MetricsCollector()
        metrics.job_released("a", 0, 0.0, 1.0)
        with pytest.raises(ValueError, match=r"\('a', 0\) released twice"):
            metrics.job_released("a", 0, 0.0, 1.0)
        assert metrics.released_count() == 1

    def test_completion_before_release_raises(self):
        metrics = MetricsCollector()
        metrics.job_released("a", 0, 1.0, 2.0)
        with pytest.raises(ValueError, match=r"\('a', 0\) completed at 0.4"):
            metrics.job_completed("a", 0, 0.4)
        assert metrics.completed_count() == 0

    def test_released_count(self):
        metrics = MetricsCollector()
        for index in range(3):
            metrics.job_released("a", index, float(index), float(index) + 1)
        assert metrics.released_count() == 3


class TestFps:
    def test_fps_counts_completions_per_second(self):
        metrics = MetricsCollector()
        for index in range(10):
            metrics.job_released("a", index, index * 0.1, index * 0.1 + 1)
            metrics.job_completed("a", index, index * 0.1 + 0.05)
        assert metrics.total_fps(now=2.0) == pytest.approx(5.0)

    def test_fps_excludes_warmup_completions(self):
        metrics = MetricsCollector(warmup=1.0)
        metrics.job_released("a", 0, 0.0, 10.0)
        metrics.job_completed("a", 0, 0.5)  # inside warmup
        metrics.job_released("a", 1, 1.0, 10.0)
        metrics.job_completed("a", 1, 1.5)
        assert metrics.total_fps(now=2.0) == pytest.approx(1.0)

    def test_fps_zero_window(self):
        metrics = MetricsCollector(warmup=1.0)
        assert metrics.total_fps(now=1.0) == 0.0

    def test_per_task_fps(self):
        metrics = MetricsCollector()
        metrics.job_released("a", 0, 0.0, 5.0)
        metrics.job_completed("a", 0, 0.5)
        metrics.job_released("b", 0, 0.0, 5.0)
        metrics.job_completed("b", 0, 0.6)
        metrics.job_released("b", 1, 1.0, 5.0)
        metrics.job_completed("b", 1, 1.1)
        per_task = metrics.per_task_fps(now=2.0)
        assert per_task["a"] == pytest.approx(0.5)
        assert per_task["b"] == pytest.approx(1.0)


class TestDmr:
    def test_no_jobs_zero_dmr(self):
        assert MetricsCollector().deadline_miss_rate(now=10.0) == 0.0

    def test_all_on_time(self):
        metrics = MetricsCollector()
        metrics.job_released("a", 0, 0.0, 1.0)
        metrics.job_completed("a", 0, 0.9)
        assert metrics.deadline_miss_rate(now=2.0) == 0.0

    def test_half_missed(self):
        metrics = MetricsCollector()
        metrics.job_released("a", 0, 0.0, 1.0)
        metrics.job_completed("a", 0, 0.9)
        metrics.job_released("a", 1, 0.0, 1.0)
        metrics.job_completed("a", 1, 1.5)
        assert metrics.deadline_miss_rate(now=2.0) == pytest.approx(0.5)

    def test_undecided_jobs_excluded(self):
        metrics = MetricsCollector()
        metrics.job_released("a", 0, 0.0, 5.0)  # deadline not reached yet
        assert metrics.deadline_miss_rate(now=1.0) == 0.0

    def test_unfinished_expired_job_counts_missed(self):
        metrics = MetricsCollector()
        metrics.job_released("a", 0, 0.0, 1.0)
        assert metrics.deadline_miss_rate(now=2.0) == 1.0

    def test_warmup_jobs_excluded(self):
        metrics = MetricsCollector(warmup=1.0)
        metrics.job_released("a", 0, 0.5, 0.9)  # inside warmup, missed
        metrics.job_released("a", 1, 1.5, 2.0)
        metrics.job_completed("a", 1, 1.8)
        assert metrics.deadline_miss_rate(now=3.0) == 0.0

    def test_per_task_dmr(self):
        metrics = MetricsCollector()
        metrics.job_released("good", 0, 0.0, 1.0)
        metrics.job_completed("good", 0, 0.5)
        metrics.job_released("bad", 0, 0.0, 1.0)
        per_task = metrics.per_task_dmr(now=2.0)
        assert per_task["good"] == 0.0
        assert per_task["bad"] == 1.0


class TestStageMetrics:
    def test_stage_miss_rate(self):
        metrics = MetricsCollector()
        record = metrics.stage_released("a", 0, 0, 0.0, 0.5)
        record.finish_time = 0.6
        record2 = metrics.stage_released("a", 0, 1, 0.5, 1.0)
        record2.finish_time = 0.9
        assert metrics.stage_miss_rate(now=2.0) == pytest.approx(0.5)

    def test_stage_miss_rate_empty(self):
        assert MetricsCollector().stage_miss_rate(now=1.0) == 0.0


class TestResponseTimes:
    def make_metrics(self):
        metrics = MetricsCollector()
        for index, response in enumerate([0.1, 0.3, 0.2, 0.5, 0.4]):
            metrics.job_released("a", index, 1.0, 2.0)
            metrics.job_completed("a", index, 1.0 + response)
        return metrics

    def test_sorted_response_times(self):
        metrics = self.make_metrics()
        assert metrics.response_times() == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5])

    def test_median(self):
        metrics = self.make_metrics()
        assert metrics.response_time_percentile(0.5) == pytest.approx(0.3)

    def test_max_percentile(self):
        metrics = self.make_metrics()
        assert metrics.response_time_percentile(1.0) == pytest.approx(0.5)

    def test_percentile_empty(self):
        assert MetricsCollector().response_time_percentile(0.5) is None

    def test_percentile_out_of_range(self):
        with pytest.raises(ValueError):
            self.make_metrics().response_time_percentile(1.5)


class TestPercentileNearestRank:
    """The ceil-based nearest-rank definition, pinned explicitly.

    A previous implementation used round-half-even, so half-way ranks
    (``fraction * n == k + 0.5``) flapped between adjacent order
    statistics as the sample count changed parity.  These pins make the
    ceil definition (and its stability) load-bearing.
    """

    def make_metrics(self, responses):
        metrics = MetricsCollector()
        for index, response in enumerate(responses):
            metrics.job_released("a", index, 1.0, 2.0)
            metrics.job_completed("a", index, 1.0 + response)
        return metrics

    def test_half_way_rank_rounds_up_not_half_even(self):
        # n=5, p50: rank ceil(2.5) = 3 -> third order statistic.  The old
        # round-half-even picked rank 2 here (round(2.5) == 2).
        metrics = self.make_metrics([0.1, 0.2, 0.3, 0.4, 0.5])
        assert metrics.response_time_percentile(0.5) == pytest.approx(0.3)
        # n=5, p30: ceil(1.5) = 2; round-half-even also gave 2 -- agreement
        # on one side of the flap, disagreement on the other, was the bug.
        assert metrics.response_time_percentile(0.3) == pytest.approx(0.2)

    def test_rank_table_across_sample_parities(self):
        for n, fraction, expected_rank in [
            (4, 0.5, 2),
            (5, 0.5, 3),
            (6, 0.5, 3),
            (100, 0.99, 99),
            (101, 0.99, 100),
            (10, 0.999, 10),
        ]:
            values = [float(i + 1) for i in range(n)]
            metrics = self.make_metrics(values)
            assert metrics.response_time_percentile(fraction) == pytest.approx(
                float(expected_rank)
            ), (n, fraction)

    def test_fraction_zero_is_minimum(self):
        metrics = self.make_metrics([0.3, 0.1, 0.2])
        assert metrics.response_time_percentile(0.0) == pytest.approx(0.1)

    def test_monotone_in_fraction(self):
        metrics = self.make_metrics([0.5, 0.1, 0.4, 0.2, 0.3, 0.6, 0.7])
        values = [
            metrics.response_time_percentile(f / 100.0) for f in range(101)
        ]
        assert values == sorted(values)


class TestWarmupBoundaries:
    """Exact boundary semantics: release == warmup and finish == now."""

    def test_release_exactly_at_warmup_counts_for_dmr(self):
        metrics = MetricsCollector(warmup=1.0)
        metrics.job_released("a", 0, 1.0, 1.5)  # release == warmup
        assert metrics.deadline_miss_rate(2.0) == 1.0
        assert metrics.per_task_dmr(2.0) == {"a": 1.0}

    def test_release_just_before_warmup_excluded_from_dmr(self):
        metrics = MetricsCollector(warmup=1.0)
        metrics.job_released("a", 0, 1.0 - 1e-12, 1.5)
        assert metrics.deadline_miss_rate(2.0) == 0.0
        assert metrics.per_task_dmr(2.0) == {}

    def test_release_exactly_at_warmup_counts_for_fps(self):
        # One population for every per-job metric: FPS counts the same
        # release >= warmup jobs DMR measures (boundary included).
        metrics = MetricsCollector(warmup=1.0)
        metrics.job_released("a", 0, 1.0, 3.0)  # release == warmup
        metrics.job_completed("a", 0, 1.5)
        assert metrics.total_fps(2.0) == pytest.approx(1.0)
        assert metrics.per_task_fps(2.0) == {"a": pytest.approx(1.0)}

    def test_warmup_released_job_excluded_from_fps(self):
        # A warmup-released job used to count for FPS while being
        # excluded from DMR; both now measure the same population, so
        # its completion after warmup contributes to neither.
        metrics = MetricsCollector(warmup=1.0)
        metrics.job_released("a", 0, 1.0 - 1e-12, 3.0)
        metrics.job_completed("a", 0, 1.5)  # finishes inside the window
        assert metrics.total_fps(2.0) == 0.0
        assert metrics.per_task_fps(2.0) == {}
        assert metrics.goodput(2.0) == 0.0
        assert metrics.deadline_miss_rate(2.0) == 0.0

    def test_finish_exactly_at_warmup_still_needs_post_warmup_release(self):
        # finish == warmup is not enough under the unified rule: the
        # release decides the population, and this one pre-dates warmup
        metrics = MetricsCollector(warmup=1.0)
        metrics.job_released("a", 0, 0.5, 3.0)
        metrics.job_completed("a", 0, 1.0)  # finish == warmup
        assert metrics.total_fps(2.0) == 0.0
        assert metrics.deadline_miss_rate(2.0) == 0.0

    def test_finish_exactly_at_now_counts_for_fps(self):
        metrics = MetricsCollector(warmup=1.0)
        metrics.job_released("a", 0, 1.5, 3.0)
        metrics.job_completed("a", 0, 2.0)  # finish == now
        assert metrics.total_fps(2.0) == pytest.approx(1.0)
        assert metrics.per_task_fps(2.0) == {"a": pytest.approx(1.0)}

    def test_finish_just_after_now_excluded_from_fps(self):
        metrics = MetricsCollector(warmup=1.0)
        metrics.job_released("a", 0, 1.5, 3.0)
        metrics.job_completed("a", 0, 2.0 + 1e-12)
        assert metrics.total_fps(2.0) == 0.0
        assert metrics.per_task_fps(2.0) == {}

    def test_goodput_boundaries_match_fps_and_deadline(self):
        metrics = MetricsCollector(warmup=1.0)
        metrics.job_released("a", 0, 1.0, 2.0)
        metrics.job_completed("a", 0, 2.0)  # finish == deadline == now
        assert metrics.goodput(2.0) == pytest.approx(1.0)
        metrics.job_released("a", 1, 1.0, 1.2)
        metrics.job_completed("a", 1, 1.5)  # late: fps yes, goodput no
        assert metrics.total_fps(2.0) == pytest.approx(2.0)
        assert metrics.goodput(2.0) == pytest.approx(1.0)


class TestRejectionAccounting:
    def test_rejected_jobs_leave_dmr_and_feed_rate(self):
        metrics = MetricsCollector(warmup=0.0)
        metrics.job_released("a", 0, 0.1, 0.2)
        metrics.job_rejected("a", 0)
        metrics.job_released("a", 1, 0.3, 0.4)
        assert metrics.deadline_miss_rate(1.0) == 1.0  # only job 1 counts
        assert metrics.rejection_rate(1.0) == 0.5
        assert metrics.rejected_count() == 1

    def test_rejection_rate_window_is_release_based(self):
        metrics = MetricsCollector(warmup=1.0)
        metrics.job_released("a", 0, 0.5, 0.6)  # pre-warmup
        metrics.job_rejected("a", 0)
        metrics.job_released("a", 1, 1.0, 1.1)  # release == warmup
        metrics.job_rejected("a", 1)
        assert metrics.rejection_rate(2.0) == 1.0
        assert metrics.rejected_count() == 2  # warmup included in the raw count

    def test_rejection_rate_boundary_matches_other_metrics(self):
        """The population is ``release_time >= warmup``, same as DMR/FPS.

        Edge pins: a release at exactly ``warmup`` is post-warmup and
        counted; a release at exactly ``now`` is counted too (``now`` does
        not bound the population — an earlier implementation filtered
        ``release_time <= now``, which both dropped a release at exactly
        ``now`` under float noise and disagreed with the trace-engine
        accumulator's release-based population).
        """
        metrics = MetricsCollector(warmup=1.0)
        metrics.job_released("a", 0, 1.0, 2.0)  # release == warmup: counted
        metrics.job_rejected("a", 0)
        assert metrics.rejection_rate(1.0) == 1.0  # release == now: counted
        metrics.job_released("a", 1, 3.0, 4.0)  # admitted, not rejected
        assert metrics.rejection_rate(3.0) == 0.5
        # now below every release: population is still release-based, not
        # clock-based (rejections are decided at release).
        assert metrics.rejection_rate(0.9) == 0.5

    def test_reject_unknown_job_raises(self):
        with pytest.raises(KeyError):
            MetricsCollector().job_rejected("ghost", 0)

    def test_reject_after_completion_raises(self):
        metrics = MetricsCollector()
        metrics.job_released("a", 0, 0.0, 1.0)
        metrics.job_completed("a", 0, 0.5)
        with pytest.raises(ValueError):
            metrics.job_rejected("a", 0)

    def test_completion_after_rejection_raises(self):
        metrics = MetricsCollector()
        metrics.job_released("a", 0, 0.0, 1.0)
        metrics.job_rejected("a", 0)
        with pytest.raises(ValueError):
            metrics.job_completed("a", 0, 0.5)


class TestQueueDepth:
    def test_validates_inputs(self):
        metrics = MetricsCollector()
        with pytest.raises(ValueError):
            metrics.record_queue_depth(0.0, -1)
        metrics.record_queue_depth(1.0, 2)
        with pytest.raises(ValueError):
            metrics.record_queue_depth(0.5, 1)  # time rewound

    def test_time_weighted_mean(self):
        metrics = MetricsCollector(warmup=0.0)
        metrics.record_queue_depth(0.0, 1)
        metrics.record_queue_depth(1.0, 3)
        metrics.record_queue_depth(3.0, 0)
        # 1 for 1s, 3 for 2s, 0 for 1s over [0, 4] -> 7/4.
        assert metrics.mean_queue_depth(4.0) == pytest.approx(1.75)
        assert metrics.max_queue_depth(4.0) == 3

    def test_carries_depth_into_the_warmup_window(self):
        metrics = MetricsCollector(warmup=2.0)
        metrics.record_queue_depth(0.0, 5)  # in effect when warmup starts
        metrics.record_queue_depth(3.0, 1)
        # 5 for [2, 3], 1 for [3, 4] -> 6/2.
        assert metrics.mean_queue_depth(4.0) == pytest.approx(3.0)
        assert metrics.max_queue_depth(4.0) == 5  # the carried-in peak

    def test_empty_is_zero(self):
        metrics = MetricsCollector()
        assert metrics.mean_queue_depth(1.0) == 0.0
        assert metrics.max_queue_depth(1.0) == 0
