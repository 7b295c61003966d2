"""Unit tests for the GPU device's rate-based execution."""

import pytest

from repro.gpu.allocator import AllocationParams
from repro.gpu.context import SimContext
from repro.gpu.device import GpuDevice
from repro.gpu.kernel import PriorityLevel, StageKernel
from repro.gpu.spec import GpuDeviceSpec
from repro.sim.engine import SimulationEngine
from repro.sim.trace import TraceRecorder
from repro.speedup.model import SaturatingCurve

IDEAL = AllocationParams(alpha=0.0, beta=0.0)


def make_kernel(label="k", work=1.0, setup=0.0, deadline=1e9,
                priority=PriorityLevel.LOW, width=68.0, sigma=0.0):
    return StageKernel(
        label=label,
        curve=SaturatingCurve(sigma),
        work=work,
        width_demand=width,
        deadline=deadline,
        priority=priority,
        setup_time=setup,
    )


def make_device(num_contexts=1, sms=68.0, cap=1e9, params=IDEAL, trace=None,
                start_time=0.0):
    engine = SimulationEngine(start_time=start_time)
    spec = GpuDeviceSpec(total_sms=68, aggregate_speedup_cap=cap)
    contexts = [SimContext(i, sms) for i in range(num_contexts)]
    device = GpuDevice(engine, spec, contexts, params, trace=trace)
    done = []
    device.on_kernel_complete = lambda kernel: done.append(
        (engine.now, kernel.label)
    )
    return engine, device, contexts, done


class TestSingleKernel:
    def test_completion_time_matches_curve(self):
        engine, device, contexts, done = make_device()
        # sigma=0: speedup(68) = 68, so 1.0 work finishes in 1/68 s
        device.submit(make_kernel(work=1.0), contexts[0])
        engine.run()
        assert done == [(pytest.approx(1.0 / 68.0), "k")]

    def test_setup_time_adds_wall_time(self):
        engine, device, contexts, done = make_device()
        device.submit(make_kernel(work=1.0, setup=0.5), contexts[0])
        engine.run()
        assert done[0][0] == pytest.approx(0.5 + 1.0 / 68.0)

    def test_width_limited_curve_bounds_rate(self):
        from repro.speedup.model import WidthLimitedCurve
        engine, device, contexts, done = make_device()
        kernel = StageKernel(
            label="narrow",
            curve=WidthLimitedCurve(SaturatingCurve(0.0), width=10.0),
            work=1.0,
            width_demand=10.0,
            deadline=1e9,
        )
        device.submit(kernel, contexts[0])
        engine.run()
        # the lone kernel receives the whole context but its grid-limited
        # curve caps useful width at 10 SMs
        assert done[0][0] == pytest.approx(1.0 / 10.0)

    def test_nan_speedup_rejected_at_submit(self):
        # Every completion anchor is validated when it is written, not only
        # the earliest one the device pushes to the engine.
        class NanCurve:
            def speedup(self, sms):
                return float("nan")

        engine, device, contexts, done = make_device()
        kernel = StageKernel(
            label="nan", curve=NanCurve(), work=1.0, width_demand=68.0,
            deadline=1e9,
        )
        with pytest.raises(ValueError, match="NaN"):
            device.submit(kernel, contexts[0])


class TestConcurrency:
    def test_two_kernels_share_context(self):
        engine, device, contexts, done = make_device(sms=68.0)
        device.submit(make_kernel("a", work=1.0), contexts[0])
        device.submit(make_kernel("b", work=1.0), contexts[0])
        engine.run()
        # equal shares of 34 SMs at sigma=0: both finish at 1/34 s
        assert done[0][0] == pytest.approx(1.0 / 34.0)
        assert done[1][0] == pytest.approx(1.0 / 34.0)

    def test_rates_rescale_when_kernel_finishes(self):
        engine, device, contexts, done = make_device(sms=68.0)
        device.submit(make_kernel("short", work=0.5), contexts[0])
        device.submit(make_kernel("long", work=1.0), contexts[0])
        engine.run()
        # short finishes at 0.5/34; long then accelerates to 68 SMs:
        # remaining (1.0 - 0.5) work at rate 68
        t_short = 0.5 / 34.0
        t_long = t_short + 0.5 / 68.0
        assert dict(((l, pytest.approx(t)) for t, l in done))  # sanity
        assert done[0] == (pytest.approx(t_short), "short")
        assert done[1] == (pytest.approx(t_long), "long")

    def test_queued_kernel_starts_after_stream_frees(self):
        engine, device, contexts, done = make_device()
        # 5 kernels, 4 streams: the fifth must wait
        for index in range(5):
            device.submit(make_kernel(f"k{index}", work=0.4), contexts[0])
        engine.run()
        assert len(done) == 5
        assert done[-1][1] == "k4"
        assert done[-1][0] > done[0][0]

    def test_priority_weighted_shares(self):
        engine, device, contexts, done = make_device(sms=30.0)
        device.submit(
            make_kernel("high", work=1.0, priority=PriorityLevel.HIGH),
            contexts[0],
        )
        device.submit(
            make_kernel("low", work=1.0, priority=PriorityLevel.LOW),
            contexts[0],
        )
        engine.run()
        labels = [label for _, label in done]
        assert labels[0] == "high"  # 20 SMs vs 10 SMs


class TestAbort:
    def test_aborted_kernel_never_completes(self):
        engine, device, contexts, done = make_device()
        kernel = make_kernel(work=1.0)
        device.submit(kernel, contexts[0])
        device.abort(kernel)
        engine.run()
        assert done == []

    def test_abort_releases_stream(self):
        engine, device, contexts, done = make_device()
        kernel = make_kernel("a", work=1.0)
        device.submit(kernel, contexts[0])
        device.abort(kernel)
        device.submit(make_kernel("b", work=1.0), contexts[0])
        engine.run()
        assert [label for _, label in done] == ["b"]

    def test_abort_queued_kernel(self):
        engine, device, contexts, done = make_device()
        resident = [make_kernel(f"r{i}", work=1.0) for i in range(4)]
        for kernel in resident:
            device.submit(kernel, contexts[0])
        queued = make_kernel("queued", work=1.0)
        device.submit(queued, contexts[0])
        device.abort(queued)
        engine.run()
        assert len(done) == 4

    def test_abort_event_owner_moves_event_to_survivor(self):
        # "a" and "b" complete at the same instant in two contexts; "a"
        # has the older stamp, so it owns the device event.  Aborting it
        # leaves "b"'s rate untouched, and the event moves to b's anchor:
        # one push, and b completes exactly when it always would have.
        engine, device, contexts, done = make_device(num_contexts=2, sms=34.0)
        a = make_kernel("a", work=1.0)
        device.submit(a, contexts[0])
        device.submit(make_kernel("b", work=1.0), contexts[1])
        arms_before = device.arms
        scheduled_before = engine.scheduled_count
        device.abort(a)
        assert device.arms == arms_before
        assert engine.scheduled_count == scheduled_before + 1
        assert engine.pending_count == 1
        engine.run()
        assert done == [(1 / 34, "b")]
        assert device.completions == 1

    def test_abort_many_is_one_change_point(self):
        engine, device, contexts, done = make_device()
        kernels = [make_kernel(f"k{i}", work=1.0) for i in range(3)]
        for kernel in kernels:
            device.submit(kernel, contexts[0])
        passes_before = device.alloc_passes
        device.abort_many(kernels[:2])
        assert device.alloc_passes == passes_before + 1
        engine.run()
        assert [label for _, label in done] == ["k2"]

    def test_mid_flight_abort_statistics_invariants(self):
        # Abort one of two kernels halfway through: work done never exceeds
        # submitted work, and every accumulator respects its bound.
        engine, device, contexts, done = make_device()
        survivor = make_kernel("survivor", work=1.0)
        victim = make_kernel("victim", work=1.0)
        device.submit(survivor, contexts[0])
        device.submit(victim, contexts[0])
        engine.run_until(0.5 / 34.0)  # both at rate 34, half of victim's life
        device.abort(victim)
        engine.run()
        submitted = 2.0
        assert [label for _, label in done] == ["survivor"]
        assert device.total_work_done < submitted
        # survivor's full work plus the victim's partial progress
        assert device.total_work_done > 1.0
        assert device.busy_time <= engine.now + 1e-12
        assert 0.0 < device.utilization() <= 1.0

    def test_abort_all_work_never_exceeds_progress_made(self):
        engine, device, contexts, done = make_device()
        kernels = [make_kernel(f"k{i}", work=1.0) for i in range(4)]
        for kernel in kernels:
            device.submit(kernel, contexts[0])
        engine.run_until(0.25 / 17.0)  # quarter of each kernel's work
        device.abort_many(kernels)
        engine.run()
        assert done == []
        assert device.total_work_done == pytest.approx(4 * 0.25, rel=1e-9)
        assert device.busy_time == pytest.approx(0.25 / 17.0)


class TestCallbacks:
    def test_callback_can_submit_followup(self):
        engine, device, contexts, done = make_device()
        def chain(kernel):
            done.append((engine.now, kernel.label))
            if kernel.label == "first":
                device.submit(make_kernel("second", work=1.0), contexts[0])
        device.on_kernel_complete = chain
        device.submit(make_kernel("first", work=1.0), contexts[0])
        engine.run()
        assert [label for _, label in done] == ["first", "second"]
        assert done[1][0] == pytest.approx(2.0 / 68.0)


class TestStatistics:
    def test_work_conservation(self):
        engine, device, contexts, done = make_device()
        total = 0.0
        for index in range(3):
            work = 0.3 * (index + 1)
            total += work
            device.submit(make_kernel(f"k{index}", work=work), contexts[0])
        engine.run()
        assert device.total_work_done == pytest.approx(total, rel=1e-6)

    def test_setup_time_does_not_count_as_work(self):
        # setup burns wall time at rate 1 while the published work rate is
        # 68: integrating rate * elapsed over the setup span would claim
        # 0.5 * 68 = 34 single-SM seconds of phantom work for a 1.0 kernel
        engine, device, contexts, done = make_device()
        device.submit(make_kernel(work=1.0, setup=0.5), contexts[0])
        engine.run()
        assert done[0][0] == pytest.approx(0.5 + 1.0 / 68.0)
        assert device.total_work_done == pytest.approx(1.0, rel=1e-9)
        # the device was busy for the whole span, setup included
        assert device.busy_time == pytest.approx(0.5 + 1.0 / 68.0)

    def test_utilization_bounds(self):
        engine, device, contexts, done = make_device()
        device.submit(make_kernel(work=1.0), contexts[0])
        engine.run()
        assert 0.0 < device.utilization() <= 1.0

    def test_utilization_measured_since_construction(self):
        # A device created at start_time=10 that is busy from 10.0 until its
        # only kernel completes is 100% utilized over that span — dividing
        # by absolute `now` would dilute it by the 10 s that predate it.
        engine, device, contexts, done = make_device(start_time=10.0)
        device.submit(make_kernel(work=1.0), contexts[0])
        engine.run()
        assert engine.now == pytest.approx(10.0 + 1.0 / 68.0)
        assert device.utilization() == pytest.approx(1.0)

    def test_mean_pressure_measured_since_construction(self):
        engine, device, contexts, done = make_device(
            num_contexts=2, sms=68.0, start_time=10.0
        )
        device.submit(make_kernel("a", work=1.0), contexts[0])
        device.submit(make_kernel("b", work=1.0), contexts[1])
        engine.run()
        # both contexts demand the full device the whole (busy) time:
        # pressure 2.0 over the elapsed span, not diluted by t < 10
        assert device.mean_pressure() == pytest.approx(2.0)

    def test_statistics_zero_before_any_elapsed_time(self):
        engine, device, contexts, done = make_device(start_time=10.0)
        assert device.utilization() == 0.0
        assert device.mean_pressure() == 0.0

    def test_trace_records_lifecycle(self):
        trace = TraceRecorder()
        engine, device, contexts, done = make_device(trace=trace)
        device.submit(make_kernel(work=1.0), contexts[0])
        engine.run()
        kinds = trace.kinds()
        assert kinds.get("kernel_start") == 1
        assert kinds.get("kernel_done") == 1
        assert kinds.get("allocation", 0) >= 1

    def test_context_lookup(self):
        engine, device, contexts, done = make_device(num_contexts=2)
        assert device.context(1) is contexts[1]
        with pytest.raises(KeyError):
            device.context(99)

    def test_needs_at_least_one_context(self):
        engine = SimulationEngine()
        with pytest.raises(ValueError):
            GpuDevice(engine, GpuDeviceSpec(), [])

    def test_duplicate_context_ids_rejected(self):
        engine = SimulationEngine()
        contexts = [SimContext(0, 34.0), SimContext(0, 34.0)]
        with pytest.raises(ValueError, match="duplicate context id"):
            GpuDevice(engine, GpuDeviceSpec(), contexts)


class TestIncrementalRearm:
    def test_unchanged_cross_context_rate_keeps_event(self):
        # Two under-subscribed contexts: submitting into context 1 cannot
        # change context 0's rates, so only "b" is anchored.  Both finish
        # at the same instant and "a" has the older stamp, so a keeps the
        # device event and nothing is pushed.
        engine, device, contexts, done = make_device(num_contexts=2, sms=34.0)
        device.submit(make_kernel("a", work=1.0), contexts[0])
        arms_before = device.arms
        scheduled_before = engine.scheduled_count
        device.submit(make_kernel("b", work=1.0), contexts[1])
        assert device.arms == arms_before + 1
        assert engine.scheduled_count == scheduled_before
        engine.run()
        assert [label for _, label in done] == ["a", "b"]

    def test_undershot_completion_reanchors_at_residual(self):
        # "a"'s anchored time undershoots (work added behind the device's
        # back stands in for accumulated rounding): when its event fires,
        # a is re-anchored at its residual time, and the device event
        # moves to "b", now the earliest.
        engine, device, contexts, done = make_device(num_contexts=2, sms=34.0)
        a = make_kernel("a", work=1.0)
        device.submit(a, contexts[0])
        device.submit(make_kernel("b", work=1.5), contexts[1])
        a.work_remaining += 1.0
        arms_before = device.arms
        engine.run()
        assert done == [
            (pytest.approx(1.5 / 34), "b"),
            (pytest.approx(2.0 / 34), "a"),
        ]
        assert device.arms == arms_before + 1
        assert device.completions == 3

    def test_queue_only_submit_skips_allocation_pass(self):
        engine, device, contexts, done = make_device()
        for index in range(4):  # fill all four streams
            device.submit(make_kernel(f"r{index}", work=1.0), contexts[0])
        passes = device.alloc_passes
        skips = device.alloc_skips
        scheduled_before = engine.scheduled_count
        device.submit(make_kernel("queued", work=1.0), contexts[0])
        # the resident set is untouched: no allocation pass, no heap churn
        assert device.alloc_passes == passes
        assert device.alloc_skips == skips + 1
        assert engine.scheduled_count == scheduled_before
        engine.run()
        assert len(done) == 5

    def test_skipped_pass_still_traces_allocation(self):
        trace = TraceRecorder()
        engine, device, contexts, done = make_device(trace=trace)
        for index in range(4):
            device.submit(make_kernel(f"r{index}", work=1.0), contexts[0])
        allocations = len(trace.of_kind("allocation"))
        device.submit(make_kernel("queued", work=1.0), contexts[0])
        assert len(trace.of_kind("allocation")) == allocations + 1

    def test_completion_rearms_only_affected_context(self):
        # Kernel finishing in context 0 re-anchors its context-mates; the
        # untouched context 1 keeps its anchor.
        engine, device, contexts, done = make_device(num_contexts=2, sms=34.0)
        device.submit(make_kernel("short", work=0.25), contexts[0])
        device.submit(make_kernel("long", work=1.0), contexts[0])
        device.submit(make_kernel("other", work=1.0), contexts[1])
        arms_before = device.arms
        scheduled_before = engine.scheduled_count
        # run past short's completion only
        engine.run(max_events=1)
        assert [label for _, label in done] == ["short"]
        # exactly one re-anchor: "long" accelerated; "other" was untouched
        assert device.arms == arms_before + 1
        # one push: the device event moves to "other", now the earliest
        assert engine.scheduled_count == scheduled_before + 1
        engine.run()
        assert len(done) == 3


class TestMultiContext:
    def test_contexts_independent_below_capacity(self):
        engine, device, contexts, done = make_device(num_contexts=2, sms=34.0)
        device.submit(make_kernel("a", work=1.0), contexts[0])
        device.submit(make_kernel("b", work=1.0), contexts[1])
        engine.run()
        for t, _ in done:
            assert t == pytest.approx(1.0 / 34.0)

    def test_oversubscription_slows_everyone(self):
        engine, device, contexts, done = make_device(num_contexts=2, sms=68.0)
        device.submit(make_kernel("a", work=1.0), contexts[0])
        device.submit(make_kernel("b", work=1.0), contexts[1])
        engine.run()
        # both contexts demand 68 -> scaled to 34 each
        for t, _ in done:
            assert t == pytest.approx(1.0 / 34.0)
