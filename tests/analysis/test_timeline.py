"""Unit tests for timeline analysis, fed by a real traced run."""

import pytest

from repro.analysis.timeline import (
    KernelSpan,
    context_occupancy,
    extract_spans,
    first_divergence,
    render_gantt,
    stage_latency_breakdown,
)
from repro.core import runner
from repro.core.context_pool import ContextPoolConfig
from repro.core.runner import RunConfig, run_simulation
from repro.gpu.spec import RTX_2080_TI
from repro.sim.clock import TIME_EPS
from repro.sim.trace import TraceRecorder
from repro.sim.trace_columnar import ColumnarTrace
from repro.workloads.generator import identical_periodic_tasks


@pytest.fixture(
    scope="module", params=[TraceRecorder, ColumnarTrace], ids=["list", "columnar"]
)
def traced_run(request):
    """The run, recorded into each recorder (the list recorder is patched
    in as the reference)."""
    pool = ContextPoolConfig.from_oversubscription(2, 1.5, RTX_2080_TI)
    tasks = identical_periodic_tasks(6, nominal_sms=pool.sms_per_context)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "ColumnarTrace", request.param)
        return run_simulation(
            tasks,
            RunConfig(pool=pool, duration=1.0, warmup=0.0, record_trace=True),
        )


class TestExtractSpans:
    def test_spans_found(self, traced_run):
        spans = extract_spans(traced_run.trace)
        assert spans

    def test_spans_well_formed(self, traced_run):
        for span in extract_spans(traced_run.trace):
            assert span.end >= span.start
            assert span.context_id in (0, 1)
            assert span.duration >= 0

    def test_one_span_per_completed_stage(self, traced_run):
        spans = extract_spans(traced_run.trace)
        done = traced_run.trace.of_kind("kernel_done")
        assert len(spans) == len(done)

    def test_unfinished_kernels_dropped(self):
        trace = TraceRecorder()
        trace.record(0.0, "kernel_start", kernel="a", context=0)
        assert extract_spans(trace) == []


class TestOccupancy:
    def test_occupancy_positive_and_bounded(self, traced_run):
        spans = extract_spans(traced_run.trace)
        occupancy = context_occupancy(spans, horizon=1.0)
        for value in occupancy.values():
            assert 0.0 < value <= 4.0

    def test_manual_occupancy(self):
        spans = [
            KernelSpan("a", 0, 0.0, 0.5),
            KernelSpan("b", 0, 0.0, 1.0),
        ]
        occupancy = context_occupancy(spans, horizon=1.0)
        assert occupancy[0] == pytest.approx(1.5)

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError):
            context_occupancy([], horizon=0.0)


class TestLatencyBreakdown:
    def test_breakdown_covers_all_stage_indices(self, traced_run):
        breakdown = stage_latency_breakdown(traced_run.trace)
        assert set(breakdown) == set(range(6))

    def test_components_positive(self, traced_run):
        for queueing, execution in stage_latency_breakdown(
            traced_run.trace
        ).values():
            assert queueing >= 0.0
            assert execution > 0.0

    def test_execution_dominates_under_light_load(self, traced_run):
        # 6 tasks on a 2x51-SM pool are nowhere near saturation: most time
        # is execution, not queueing
        breakdown = stage_latency_breakdown(traced_run.trace)
        total_queue = sum(q for q, _ in breakdown.values())
        total_exec = sum(e for _, e in breakdown.values())
        assert total_exec > total_queue


class TestGantt:
    def test_renders_a_row_per_active_context(self, traced_run):
        spans = extract_spans(traced_run.trace)
        chart = render_gantt(spans, 0.0, 0.5, width=40)
        # under light load the empty-queue-first policy may keep all work
        # on context 0; every context that did run gets a row
        active = {span.context_id for span in spans}
        for context_id in active:
            assert f"ctx{context_id} |" in chart

    def test_busy_region_marked(self):
        spans = [KernelSpan("a", 0, 0.0, 1.0)]
        chart = render_gantt(spans, 0.0, 1.0, width=10)
        assert "1111111111" in chart

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            render_gantt([], 1.0, 1.0)


class TestZeroDurationSpans:
    """Zero-work stages produce point spans; they must stay visible."""

    def zero_span(self, start=0.5):
        return KernelSpan("a", 0, start, start)

    def test_point_span_lands_in_its_bucket(self):
        chart = render_gantt([self.zero_span(0.5)], 0.0, 1.0, width=10)
        row = chart.splitlines()[-1]
        cells = row.split("|")[1]
        assert cells.count("1") == 1
        assert cells[5] == "1"

    def test_point_span_at_window_end_lands_in_last_bucket(self):
        chart = render_gantt([self.zero_span(1.0)], 0.0, 1.0, width=10)
        cells = chart.splitlines()[-1].split("|")[1]
        assert cells[9] == "1"

    def test_point_span_outside_window_invisible(self):
        chart = render_gantt([self.zero_span(2.0)], 0.0, 1.0, width=10)
        assert "1" not in chart.split("|")[1]

    def test_occupancy_floors_point_span_at_time_eps(self):
        occupancy = context_occupancy([self.zero_span(0.5)], horizon=1.0)
        assert occupancy[0] == pytest.approx(TIME_EPS / 1.0)

    def test_zero_work_stage_trace_keeps_spans_visible(self):
        # a stage whose kernels start and finish on the same timestamp
        # (zero effective work at the trace's time resolution) must still
        # surface through the whole analysis chain
        trace = TraceRecorder()
        trace.record(0.2, "kernel_start", kernel="z/0", context=0)
        trace.record(0.2, "kernel_done", kernel="z/0", context=0)
        trace.record(0.4, "kernel_start", kernel="n/0", context=0)
        trace.record(0.6, "kernel_done", kernel="n/0", context=0)
        spans = extract_spans(trace)
        points = [s for s in spans if s.duration == 0.0]
        assert len(points) == 1
        occupancy = context_occupancy(spans, horizon=1.0)
        assert occupancy[0] == pytest.approx((0.2 + TIME_EPS) / 1.0)
        chart = render_gantt(points, 0.0, 1.0, width=10)
        assert "1" in chart.split("|")[1]


class TestFirstDivergence:
    def make_trace(self, times):
        trace = TraceRecorder()
        for index, time in enumerate(times):
            trace.record(time, "tick", i=index)
        return trace

    def test_identical_traces_diverge_nowhere(self):
        a = self.make_trace([0.0, 1.0])
        b = self.make_trace([0.0, 1.0])
        assert first_divergence(a, b) is None

    def test_differing_record_reported_with_index(self):
        a = self.make_trace([0.0, 1.0, 2.0])
        b = self.make_trace([0.0, 1.5, 2.0])
        index, left, right = first_divergence(a, b)
        assert index == 1
        assert left.time == 1.0
        assert right.time == 1.5

    def test_length_mismatch_reports_missing_side(self):
        a = self.make_trace([0.0, 1.0])
        b = self.make_trace([0.0])
        index, left, right = first_divergence(a, b)
        assert index == 1
        assert left.time == 1.0
        assert right is None

    def test_same_run_same_seed_traces_identical(self, traced_run):
        pool = ContextPoolConfig.from_oversubscription(
            2, 1.5, RTX_2080_TI
        )
        tasks = identical_periodic_tasks(
            6, nominal_sms=pool.sms_per_context
        )
        again = run_simulation(
            tasks,
            RunConfig(pool=pool, duration=1.0, warmup=0.0, record_trace=True),
        )
        assert first_divergence(traced_run.trace, again.trace) is None
