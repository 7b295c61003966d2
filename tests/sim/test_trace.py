"""Unit tests for the trace recorders (list-backed and columnar)."""

from array import array

import pytest

from repro.sim.trace import (
    TRACE_BACKENDS,
    TraceRecord,
    TraceRecorder,
    make_trace_recorder,
)
from repro.sim.trace_columnar import ColumnarTrace

#: Every trace kind the simulation stack may emit: the scheduler's five
#: (documented on :class:`repro.core.scheduler.SchedulerBase`) plus the
#: device layer's three.
DOCUMENTED_KINDS = {
    "job_release",
    "job_skip",
    "job_complete",
    "job_shed",
    "stage_release",
    "kernel_start",
    "kernel_done",
    "allocation",
}


@pytest.fixture(params=TRACE_BACKENDS)
def backend(request):
    return request.param


class TestRecording:
    def test_record_and_len(self, backend):
        trace = make_trace_recorder(backend)
        trace.record(1.0, "alpha", x=1)
        trace.record(2.0, "beta")
        assert len(trace) == 2

    def test_iteration_preserves_order(self, backend):
        trace = make_trace_recorder(backend)
        for index in range(5):
            trace.record(float(index), "tick", i=index)
        assert [r.get("i") for r in trace] == [0, 1, 2, 3, 4]

    def test_iteration_yields_trace_records(self, backend):
        trace = make_trace_recorder(backend)
        trace.record(1.5, "alpha", task="t0", job=3)
        (record,) = list(trace)
        assert isinstance(record, TraceRecord)
        assert record.time == 1.5
        assert record.kind == "alpha"
        assert record.get("task") == "t0"
        assert record.get("job") == 3


class TestQueries:
    def make_trace(self, backend):
        trace = make_trace_recorder(backend)
        trace.record(1.0, "start", job=1)
        trace.record(2.0, "finish", job=1)
        trace.record(3.0, "start", job=2)
        return trace

    def test_of_kind(self, backend):
        trace = self.make_trace(backend)
        starts = trace.of_kind("start")
        assert [r.get("job") for r in starts] == [1, 2]

    def test_where(self, backend):
        trace = self.make_trace(backend)
        late = trace.where(lambda r: r.time >= 2.0)
        assert len(late) == 2

    def test_kinds_histogram(self, backend):
        trace = self.make_trace(backend)
        assert trace.kinds() == {"start": 2, "finish": 1}

    def test_last(self, backend):
        trace = self.make_trace(backend)
        assert trace.last().time == 3.0

    def test_last_of_kind(self, backend):
        trace = self.make_trace(backend)
        assert trace.last("finish").time == 2.0

    def test_last_missing_kind(self, backend):
        trace = self.make_trace(backend)
        assert trace.last("nonexistent") is None

    def test_last_empty(self, backend):
        assert make_trace_recorder(backend).last() is None


class TestBackendFactory:
    def test_default_is_list_backed(self):
        assert isinstance(make_trace_recorder("list"), TraceRecorder)

    def test_columnar(self):
        assert isinstance(make_trace_recorder("columnar"), ColumnarTrace)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="trace_backend"):
            make_trace_recorder("parquet")


class TestColumnarInternals:
    """Behaviour specific to the struct-of-arrays backend."""

    def test_equivalent_records_to_list_backend(self):
        listed = TraceRecorder()
        columnar = ColumnarTrace()
        for trace in (listed, columnar):
            trace.record(0.5, "kernel_start", task="t0", job=0, stage=1)
            trace.record(0.75, "kernel_done", task="t0", job=0, stage=1)
            trace.record(1.0, "job_complete", task="t0", job=0, missed=False)
        assert list(columnar) == list(listed)

    def test_heterogeneous_field_sets_per_kind(self):
        trace = ColumnarTrace()
        trace.record(1.0, "tick", a=1)
        trace.record(2.0, "tick", b=2.5)
        records = list(trace)
        assert records[0].fields == {"a": 1}
        assert records[1].fields == {"b": 2.5}

    def test_type_clash_demotes_to_object_column(self):
        trace = ColumnarTrace()
        trace.record(1.0, "tick", value=7)
        trace.record(2.0, "tick", value="seven")
        trace.record(3.0, "tick", value=7.5)
        assert [r.get("value") for r in trace] == [7, "seven", 7.5]

    def test_bool_round_trip_preserves_type(self):
        trace = ColumnarTrace()
        trace.record(1.0, "job_complete", missed=True)
        trace.record(2.0, "job_complete", missed=False)
        values = [r.get("missed") for r in trace]
        assert values == [True, False]
        assert all(type(v) is bool for v in values)

    def test_times_and_column(self):
        trace = ColumnarTrace()
        trace.record(1.0, "start", job=1)
        trace.record(2.0, "finish", job=1)
        trace.record(3.0, "start", job=2)
        times = trace.times()
        jobs = trace.column("start", "job")
        assert times == array("d", [1.0, 2.0, 3.0])
        assert jobs == array("q", [1, 2])
        # copies: recording more leaves earlier snapshots untouched
        trace.record(4.0, "start", job=3)
        assert len(times) == 3 and len(jobs) == 2

    def test_rows_read_chosen_kinds_in_record_order(self):
        trace = ColumnarTrace()
        trace.record(1.0, "start", job=1, name="a")
        trace.record(2.0, "finish", job=1)
        trace.record(3.0, "start", job=2)
        trace.record(4.0, "other", job=9)
        rows = list(trace.rows(["start", "finish", "absent"], ["job", "name"]))
        assert rows == [
            (0, "start", 1.0, 1, "a"),
            (1, "finish", 2.0, 1, None),
            (2, "start", 3.0, 2, None),
        ]
        # the same values TraceRecord.get reads off the materialised records
        assert rows == [
            (index, r.kind, r.time, r.get("job"), r.get("name"))
            for index, r in enumerate(trace)
            if r.kind in ("start", "finish")
        ]

    def test_nbytes_grows_with_events(self):
        trace = ColumnarTrace()
        empty = trace.nbytes()
        for index in range(100):
            trace.record(float(index), "tick", i=index)
        assert trace.nbytes() > empty

    def test_from_records(self):
        listed = TraceRecorder()
        listed.record(1.0, "start", job=1, name="a")
        listed.record(2.0, "finish", job=1, ok=True)
        rebuilt = ColumnarTrace.from_records(listed)
        assert list(rebuilt) == list(listed)


class TestTraceRecord:
    def test_get_with_default(self):
        record = TraceRecord(1.0, "kind", {"a": 1})
        assert record.get("a") == 1
        assert record.get("b", "fallback") == "fallback"


class TestEmittedKinds:
    """The kinds a real run emits match the documented contract.

    Guards the :class:`SchedulerBase` docstring against silently growing
    or renaming trace kinds (it once omitted ``job_skip``).
    """

    _trace_cache = {}

    def run_traced(self, num_tasks, num_contexts=1, trace_backend="list"):
        # one simulation per parameter set, shared across the test class
        key = (num_tasks, num_contexts, trace_backend)
        if key in self._trace_cache:
            return self._trace_cache[key]
        from repro.core.context_pool import ContextPoolConfig
        from repro.core.runner import RunConfig, run_simulation
        from repro.gpu.spec import RTX_2080_TI
        from repro.workloads.generator import identical_periodic_tasks

        pool = ContextPoolConfig.from_oversubscription(
            num_contexts, 1.0, RTX_2080_TI
        )
        tasks = identical_periodic_tasks(
            num_tasks, nominal_sms=pool.sms_per_context
        )
        result = run_simulation(
            tasks,
            RunConfig(
                pool=pool,
                duration=1.0,
                warmup=0.2,
                record_trace=True,
                trace_backend=trace_backend,
            ),
        )
        self._trace_cache[key] = result.trace
        return result.trace

    def test_all_emitted_kinds_are_documented(self, backend):
        # one heavily overloaded single context: releases, stages,
        # completions and source-dropped (skipped) jobs all occur
        trace = self.run_traced(num_tasks=30, trace_backend=backend)
        emitted = set(trace.kinds())
        assert emitted <= DOCUMENTED_KINDS, emitted - DOCUMENTED_KINDS

    def test_overload_emits_job_skip(self, backend):
        trace = self.run_traced(num_tasks=30, trace_backend=backend)
        assert trace.of_kind("job_skip"), "overload should drop releases"

    def test_backends_record_identical_runs(self):
        listed = self.run_traced(num_tasks=30, trace_backend="list")
        columnar = self.run_traced(num_tasks=30, trace_backend="columnar")
        assert list(columnar) == list(listed)
        assert columnar.kinds() == listed.kinds()

    def test_docstring_documents_every_scheduler_kind(self):
        from repro.core.scheduler import SchedulerBase

        doc = SchedulerBase.__doc__
        for kind in (
            "job_release",
            "job_skip",
            "job_complete",
            "job_shed",
            "stage_release",
        ):
            assert kind in doc, f"SchedulerBase docstring omits {kind!r}"
