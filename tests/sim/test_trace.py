"""Unit tests for the trace recorders: the columnar recorder every traced
run records into, and the list recorder it is checked against."""

from array import array

import pytest

from repro.core import runner
from repro.sim.trace import TraceRecord, TraceRecorder
from repro.sim.trace_columnar import ColumnarTrace
from repro.sim.trace_kinds import TRACE_KINDS


@pytest.fixture(params=[TraceRecorder, ColumnarTrace], ids=["list", "columnar"])
def backend(request):
    return request.param


class TestRecording:
    def test_record_and_len(self, backend):
        trace = backend()
        trace.record(1.0, "alpha", x=1)
        trace.record(2.0, "beta")
        assert len(trace) == 2

    def test_iteration_preserves_order(self, backend):
        trace = backend()
        for index in range(5):
            trace.record(float(index), "tick", i=index)
        assert [r.get("i") for r in trace] == [0, 1, 2, 3, 4]

    def test_iteration_yields_trace_records(self, backend):
        trace = backend()
        trace.record(1.5, "alpha", task="t0", job=3)
        (record,) = list(trace)
        assert isinstance(record, TraceRecord)
        assert record.time == 1.5
        assert record.kind == "alpha"
        assert record.get("task") == "t0"
        assert record.get("job") == 3


class TestQueries:
    def make_trace(self, backend):
        trace = backend()
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
        assert backend().last() is None


class TestColumnarInternals:
    """Behaviour specific to the struct-of-arrays backend."""

    def test_equivalent_records_to_list_backend(self):
        listed = TraceRecorder()
        columnar = ColumnarTrace()
        for trace in (listed, columnar):
            trace.record(0.5, "kernel_start", task="t0", job=0, stage=1)
            trace.record(0.75, "kernel_done", task="t0", job=0, stage=1)
            trace.record(1.0, "job_complete", task="t0", job=0, missed=0)
        assert list(columnar) == list(listed)

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
        trace.record(3.0, "start", job=2, name="b")
        trace.record(4.0, "other", job=9)
        rows = list(trace.rows(["start", "finish", "absent"], ["job", "name"]))
        assert rows == [
            (0, "start", 1.0, 1, "a"),
            (1, "finish", 2.0, 1, None),
            (2, "start", 3.0, 2, "b"),
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
        listed.record(2.0, "finish", job=1, ok=1)
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

    def run_traced(self, num_tasks, recorder, num_contexts=1):
        """One simulation per parameter set, shared across the test class,
        recorded into ``recorder`` (the list recorder is patched in as the
        reference)."""
        key = (num_tasks, num_contexts, recorder)
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
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(runner, "ColumnarTrace", recorder)
            result = run_simulation(
                tasks,
                RunConfig(pool=pool, duration=1.0, warmup=0.2, record_trace=True),
            )
        assert type(result.trace) is recorder
        self._trace_cache[key] = result.trace
        return result.trace

    def test_all_emitted_kinds_are_documented(self, backend):
        # one heavily overloaded single context: releases, stages,
        # completions and source-dropped (skipped) jobs all occur
        trace = self.run_traced(30, backend)
        emitted = set(trace.kinds())
        assert emitted <= TRACE_KINDS, emitted - TRACE_KINDS

    def test_overload_emits_job_skip(self, backend):
        trace = self.run_traced(30, backend)
        assert trace.of_kind("job_skip"), "overload should drop releases"

    def test_backends_record_identical_runs(self):
        listed = self.run_traced(30, TraceRecorder)
        columnar = self.run_traced(30, ColumnarTrace)
        assert list(columnar) == list(listed)
        assert columnar.kinds() == listed.kinds()
        # values come back with the types the emit sites recorded
        assert [
            tuple(map(type, record.fields.values())) for record in columnar
        ] == [tuple(map(type, record.fields.values())) for record in listed]

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
