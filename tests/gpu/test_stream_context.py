"""Unit tests for streams and contexts."""

import pytest

from repro.gpu.context import SimContext
from repro.gpu.kernel import PriorityLevel, StageKernel
from repro.gpu.stream import CudaStream, StreamClass
from repro.speedup.model import SaturatingCurve


def make_kernel(label="k", deadline=1.0, priority=PriorityLevel.LOW, work=1.0):
    return StageKernel(
        label=label,
        curve=SaturatingCurve(0.05),
        work=work,
        width_demand=16.0,
        deadline=deadline,
        priority=priority,
    )


class TestStream:
    def test_attach_detach(self):
        stream = CudaStream(0, StreamClass.HIGH)
        kernel = make_kernel()
        stream.attach(kernel)
        assert stream.busy
        assert kernel.stream_id == 0
        detached = stream.detach()
        assert detached is kernel
        assert not stream.busy
        assert kernel.stream_id is None

    def test_attach_busy_stream_raises(self):
        stream = CudaStream(0, StreamClass.LOW)
        stream.attach(make_kernel("a"))
        with pytest.raises(RuntimeError):
            stream.attach(make_kernel("b"))

    def test_detach_idle_stream_raises(self):
        with pytest.raises(RuntimeError):
            CudaStream(0, StreamClass.LOW).detach()


class TestContextConstruction:
    def test_default_stream_layout(self):
        context = SimContext(0, nominal_sms=34.0)
        classes = [s.stream_class for s in context.streams]
        assert classes.count(StreamClass.HIGH) == 2
        assert classes.count(StreamClass.LOW) == 2

    def test_invalid_sms_rejected(self):
        with pytest.raises(ValueError):
            SimContext(0, nominal_sms=0.0)
        with pytest.raises(ValueError, match="nominal_sms"):
            SimContext(0, float("nan"))

    def test_starts_idle(self):
        context = SimContext(0, 34.0)
        assert context.is_idle()
        assert context.queue_empty()


class TestDispatch:
    def test_dispatch_fills_free_streams(self):
        context = SimContext(0, 34.0)
        kernels = [make_kernel(f"k{i}") for i in range(3)]
        for kernel in kernels:
            context.enqueue(kernel)
        dispatched = context.dispatch_ready()
        assert len(dispatched) == 3
        assert len(context.resident_kernels()) == 3

    def test_at_most_four_resident(self):
        context = SimContext(0, 34.0)
        for index in range(6):
            context.enqueue(make_kernel(f"k{index}"))
        context.dispatch_ready()
        assert len(context.resident_kernels()) == 4
        assert context.queued_count() == 2

    def test_high_priority_prefers_high_stream(self):
        context = SimContext(0, 34.0)
        kernel = make_kernel(priority=PriorityLevel.HIGH)
        context.enqueue(kernel)
        context.dispatch_ready()
        stream = context.streams[kernel.stream_id]
        assert stream.stream_class is StreamClass.HIGH

    def test_low_priority_prefers_low_stream(self):
        context = SimContext(0, 34.0)
        kernel = make_kernel(priority=PriorityLevel.LOW)
        context.enqueue(kernel)
        context.dispatch_ready()
        assert context.streams[kernel.stream_id].stream_class is StreamClass.LOW

    def test_edf_order_within_level(self):
        context = SimContext(0, 34.0, high_streams=0, low_streams=1)
        late = make_kernel("late", deadline=2.0)
        early = make_kernel("early", deadline=1.0)
        context.enqueue(late)
        context.enqueue(early)
        dispatched = context.dispatch_ready()
        assert dispatched[0] is early

    def test_priority_order_across_levels(self):
        context = SimContext(0, 34.0, high_streams=1, low_streams=0)
        low = make_kernel("low", deadline=0.5, priority=PriorityLevel.LOW)
        high = make_kernel("high", deadline=2.0, priority=PriorityLevel.HIGH)
        context.enqueue(low)
        context.enqueue(high)
        dispatched = context.dispatch_ready()
        # HIGH dispatches first despite its later deadline.
        assert dispatched[0] is high

    def test_borrowing_lets_low_use_high_stream(self):
        context = SimContext(0, 34.0, high_streams=2, low_streams=0,
                             allow_stream_borrowing=True)
        kernel = make_kernel(priority=PriorityLevel.LOW)
        context.enqueue(kernel)
        assert context.dispatch_ready() == [kernel]

    def test_strict_mode_blocks_borrowing(self):
        context = SimContext(0, 34.0, high_streams=2, low_streams=0,
                             allow_stream_borrowing=False)
        kernel = make_kernel(priority=PriorityLevel.LOW)
        context.enqueue(kernel)
        assert context.dispatch_ready() == []
        assert context.queued_count() == 1

    def test_medium_targets_low_streams(self):
        context = SimContext(0, 34.0, high_streams=1, low_streams=1,
                             allow_stream_borrowing=False)
        medium = make_kernel("m", priority=PriorityLevel.MEDIUM)
        context.enqueue(medium)
        context.dispatch_ready()
        assert context.streams[medium.stream_id].stream_class is StreamClass.LOW


class TestRemove:
    def test_remove_resident(self):
        context = SimContext(0, 34.0)
        kernel = make_kernel()
        context.enqueue(kernel)
        context.dispatch_ready()
        context.remove(kernel)
        assert context.resident_kernels() == []

    def test_remove_queued_tombstones(self):
        context = SimContext(0, 34.0, high_streams=0, low_streams=1)
        first = make_kernel("a", deadline=1.0)
        second = make_kernel("b", deadline=2.0)
        context.enqueue(first)
        context.enqueue(second)
        context.dispatch_ready()  # first becomes resident
        context.remove(second)
        assert context.queued_count() == 0
        assert context.dispatch_ready() == []


class TestEstimates:
    def test_backlog_work_counts_resident_and_queued(self):
        context = SimContext(0, 34.0, high_streams=0, low_streams=1)
        context.enqueue(make_kernel("a", work=1.0))
        context.enqueue(make_kernel("b", work=2.0))
        context.dispatch_ready()
        assert context.backlog_work() == pytest.approx(3.0)

    def test_estimated_finish_time_grows_with_backlog(self):
        context = SimContext(0, 34.0)
        empty_eta = context.estimated_finish_time(now=0.0)
        context.enqueue(make_kernel("a"))
        context.dispatch_ready()
        assert context.estimated_finish_time(0.0) > empty_eta

    def test_estimate_completion_idle_context(self):
        context = SimContext(0, 34.0)
        kernel = make_kernel(work=1.0)
        eta = context.estimate_completion(kernel, now=0.0)
        expected = 1.0 / SaturatingCurve(0.05).speedup(34.0)
        assert eta == pytest.approx(expected)

    def test_estimate_completion_busy_context_larger(self):
        context = SimContext(0, 34.0, high_streams=0, low_streams=1)
        context.enqueue(make_kernel("a"))
        context.dispatch_ready()
        context.enqueue(make_kernel("b"))
        busy_eta = context.estimate_completion(make_kernel("c"), now=0.0)
        idle = SimContext(1, 34.0)
        idle_eta = idle.estimate_completion(make_kernel("d"), now=0.0)
        assert busy_eta > idle_eta


class TestEdfFifoTieBreak:
    """A blocked stage must keep its FIFO rank among equal deadlines.

    Regression for a dispatch bug: re-enqueueing a blocked stage under a
    *fresh* queue sequence number let an equal-deadline peer that arrived
    later leapfrog it after any settle that ran while the level was
    blocked.
    """

    def test_blocked_settle_preserves_fifo_among_equal_deadlines(self):
        context = SimContext(
            0,
            34.0,
            high_streams=1,
            low_streams=1,
            allow_stream_borrowing=False,
        )
        blocker = make_kernel("blocker", priority=PriorityLevel.HIGH)
        context.enqueue(blocker)
        assert context.dispatch_ready() == [blocker]
        first = make_kernel("first", deadline=5.0, priority=PriorityLevel.HIGH)
        second = make_kernel("second", deadline=5.0, priority=PriorityLevel.HIGH)
        context.enqueue(first)
        context.enqueue(second)
        # A settle while the HIGH stream is busy: nothing can dispatch, and
        # the blocked stages' queue positions must be left untouched.
        assert context.dispatch_ready() == []
        context.remove(blocker)
        # The earlier arrival must win the freed stream.
        assert context.dispatch_ready() == [first]
        context.remove(first)
        assert context.dispatch_ready() == [second]


class TestStrictBlockageDispatch:
    """borrowing=False with every level queued and no preferred slot free."""

    def test_full_blockage_no_livelock_no_inversion(self):
        context = SimContext(
            0,
            34.0,
            high_streams=1,
            low_streams=1,
            allow_stream_borrowing=False,
        )
        high_blocker = make_kernel("hb", priority=PriorityLevel.HIGH)
        low_blocker = make_kernel("lb", priority=PriorityLevel.LOW)
        context.enqueue(high_blocker)
        context.enqueue(low_blocker)
        assert len(context.dispatch_ready()) == 2

        doomed = make_kernel("doomed", deadline=0.1, priority=PriorityLevel.HIGH)
        h1 = make_kernel("h1", deadline=1.0, priority=PriorityLevel.HIGH)
        h2 = make_kernel("h2", deadline=2.0, priority=PriorityLevel.HIGH)
        m1 = make_kernel("m1", deadline=3.0, priority=PriorityLevel.MEDIUM)
        l1 = make_kernel("l1", deadline=0.5, priority=PriorityLevel.LOW)
        for kernel in (doomed, h1, h2, m1, l1):
            context.enqueue(kernel)
        context.remove(doomed)  # tombstoned while queued

        # Fully blocked: dispatch must return (no livelock) with nothing
        # moved and the queue accounting intact.
        assert context.dispatch_ready() == []
        assert context.queued_count() == 4
        assert context.queued_count(PriorityLevel.HIGH) == 2

        # Free the low-class stream: MEDIUM outranks LOW for it, despite
        # l1's earlier deadline, and the tombstone never dispatches.
        context.remove(low_blocker)
        assert context.dispatch_ready() == [m1]
        context.remove(m1)
        assert context.dispatch_ready() == [l1]

        # Free the high-class stream: EDF order within the HIGH level.
        context.remove(high_blocker)
        assert context.dispatch_ready() == [h1]
        context.remove(h1)
        assert context.dispatch_ready() == [h2]
        assert context.queue_empty()


class TestQueueCompaction:
    def test_heavy_shedding_compacts_tombstones(self):
        context = SimContext(0, 34.0, high_streams=0, low_streams=1)
        blocker = make_kernel("blocker")
        context.enqueue(blocker)
        context.dispatch_ready()
        kernels = [
            make_kernel(f"k{i}", deadline=float(i + 1)) for i in range(40)
        ]
        for kernel in kernels:
            context.enqueue(kernel)
        for kernel in kernels[:21]:
            context.remove(kernel)
        # 21 tombstones in a 40-entry heap crosses the majority threshold:
        # the rebuilt heap holds exactly the 19 survivors.
        assert context.stat_compactions == 1
        assert len(context._queues[PriorityLevel.LOW]) == 19
        assert context.queued_count() == 19
        # Survivors still drain in EDF order.
        context.remove(blocker)
        order = []
        while not context.queue_empty():
            dispatched = context.dispatch_ready()
            order.extend(dispatched)
            for kernel in dispatched:
                context.remove(kernel)
        assert order == kernels[21:]

    def test_small_queues_never_compact(self):
        context = SimContext(0, 34.0, high_streams=0, low_streams=1)
        context.enqueue(make_kernel("blocker"))
        context.dispatch_ready()
        kernels = [make_kernel(f"k{i}") for i in range(8)]
        for kernel in kernels:
            context.enqueue(kernel)
        for kernel in kernels:
            context.remove(kernel)
        assert context.stat_compactions == 0
        assert context.queued_count() == 0


class TestAccountingModes:
    """The incremental counters, accumulators and residency views."""

    def test_queries_match_expected_values(self):
        """Every query on a mixed history matches the value computed from
        the test's own kernels."""
        context = SimContext(0, 34.0)
        kernels = [
            make_kernel("a", deadline=2.0, work=1.0),
            make_kernel("b", deadline=1.0, work=2.0,
                        priority=PriorityLevel.HIGH),
            make_kernel("c", deadline=3.0, work=0.5),
            make_kernel("d", deadline=1.5, work=1.5),
            make_kernel("e", deadline=2.5, work=3.0),
            make_kernel("f", deadline=0.5, work=0.25,
                        priority=PriorityLevel.MEDIUM),
        ]
        for kernel in kernels:
            context.enqueue(kernel)
        dispatched = context.dispatch_ready()
        context.remove(kernels[4])  # tombstone one queued stage
        # HIGH first, then MEDIUM, then LOW in EDF order; the fourth stage
        # borrows the idle HIGH stream and the rest wait.
        assert [k.label for k in dispatched] == ["b", "f", "d", "a"]
        queued = [kernels[2]]
        for level in PriorityLevel:
            assert context.queued_count(level) == sum(
                1 for k in queued if k.priority is level
            )
        assert context.queued_count() == len(queued)
        assert not context.queue_empty()
        assert context.free_streams() == []
        assert context.free_stream_count() == 0
        live = dispatched + queued
        assert context.backlog_work() == pytest.approx(
            sum(k.work_remaining for k in live), abs=1e-12
        )
        # ETA: now plus every live stage run alone at the context's
        # nominal speedup (floored at 1e-9).
        speedup = max(SaturatingCurve(0.05).speedup(34.0), 1e-9)
        assert context.estimated_finish_time(1.0) == pytest.approx(
            1.0 + sum(k.setup_remaining + k.work_remaining / speedup
                      for k in live),
            abs=1e-9,
        )

    def test_fast_accumulators_reset_on_drain(self):
        context = SimContext(0, 34.0, high_streams=0, low_streams=1)
        context.enqueue(make_kernel("blocker"))
        context.dispatch_ready()
        queued = [make_kernel(f"k{i}", work=0.1 * (i + 1)) for i in range(5)]
        for kernel in queued:
            context.enqueue(kernel)
        for kernel in queued:
            context.remove(kernel)
        # Exact zeros, not accumulated float residue.
        assert context.backlog_work() == pytest.approx(
            context.resident_kernels()[0].work_remaining
        )
        assert context._queued_work == 0.0
        assert context._queued_eta == 0.0

    def test_free_streams_rebuild_once_per_change(self):
        """Every attach and every detach rebuilds the residency views
        exactly once; queries rebuild nothing."""
        context = SimContext(0, 34.0)
        for i in range(10):
            context.enqueue(make_kernel(f"k{i}", deadline=float(i)))
        builds = context.stat_free_builds
        assert len(context.dispatch_ready()) == 4  # four attaches
        assert context.stat_free_builds - builds == 4
        builds = context.stat_free_builds
        for _ in range(25):
            context.queued_count()
            context.backlog_work()
            context.estimated_finish_time(0.0)
            context.free_streams()
        assert context.stat_free_builds == builds

        context = SimContext(1, 34.0)
        context.enqueue(make_kernel("a"))
        builds = context.stat_free_builds
        (kernel,) = context.dispatch_ready()  # one attach
        for _ in range(25):
            context.free_streams()
        assert context.stat_free_builds - builds == 1
        context.remove(kernel)  # one detach
        assert context.stat_free_builds - builds == 2

    def test_views_held_across_a_change_stay_snapshots(self):
        context = SimContext(0, 34.0)
        residents, free, low = context.residents, context.free_all, context.free_low
        context.enqueue(make_kernel("a"))
        (kernel,) = context.dispatch_ready()
        assert (residents, len(free), len(low)) == ([], 4, 2)
        assert context.residents == [kernel]
        # The LOW kernel took stream 2; views keep stream-index order.
        assert context.free_all == [context.streams[i] for i in (0, 1, 3)]
        assert context.free_high == context.streams[:2]
        assert context.free_low == [context.streams[3]]

    def test_estimate_over_a_kernel_that_skipped_the_queue_fails(self):
        """A resident's nominal speedup is stored when it is enqueued; a
        kernel attached without one fails loudly, not with a stale value."""
        context = SimContext(0, 34.0)
        context.streams[0].attach(make_kernel("a"))
        with pytest.raises(AttributeError, match="nominal_speedup"):
            context.estimated_finish_time(0.0)
