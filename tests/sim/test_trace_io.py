"""Round-trip and error-path tests for the on-disk trace format."""

import hashlib
import struct

import pytest

from repro.core.context_pool import ContextPoolConfig
from repro.core.runner import RunConfig, run_simulation
from repro.gpu.spec import RTX_2080_TI
from repro.sim.trace import TraceRecord, TraceRecorder
from repro.sim.trace_columnar import CHUNK_RECORDS, ColumnarTrace
from repro.sim.trace_io import (
    MAGIC,
    TRACE_FORMAT_VERSION,
    read_trace,
    trace_from_bytes,
    trace_to_bytes,
    write_trace,
)


def traced_run(seed=0, trace_backend="columnar"):
    """A short overloaded run that exercises every trace kind."""
    pool = ContextPoolConfig.from_oversubscription(2, 1.0, RTX_2080_TI)
    from repro.workloads.generator import identical_periodic_tasks

    tasks = identical_periodic_tasks(12, nominal_sms=pool.sms_per_context)
    result = run_simulation(
        tasks,
        RunConfig(
            pool=pool,
            duration=0.5,
            warmup=0.1,
            record_trace=True,
            trace_backend=trace_backend,
            work_jitter_cv=0.1,
            seed=seed,
        ),
    )
    return result.trace


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_simulation_trace_round_trips(self, seed):
        trace = traced_run(seed=seed)
        listed = traced_run(seed=seed, trace_backend="list")
        # both recorders observe the same run identically: records,
        # kind histogram and of_kind query results all agree
        assert list(trace) == list(listed)
        assert trace.kinds() == listed.kinds()
        for kind in trace.kinds():
            assert trace.of_kind(kind) == listed.of_kind(kind)
        data = trace_to_bytes(trace)
        rebuilt = trace_from_bytes(data)
        assert len(rebuilt) == len(trace)
        assert list(rebuilt) == list(trace)
        # serialisation is deterministic and stable under a round trip
        assert trace_to_bytes(rebuilt) == data

    def test_list_backend_serialises_identically(self):
        listed = traced_run(trace_backend="list")
        columnar = traced_run(trace_backend="columnar")
        assert trace_to_bytes(listed) == trace_to_bytes(columnar)

    def test_empty_trace_round_trips(self):
        data = trace_to_bytes(ColumnarTrace())
        rebuilt = trace_from_bytes(data)
        assert len(rebuilt) == 0
        assert trace_to_bytes(rebuilt) == data

    def test_object_column_round_trips(self):
        trace = ColumnarTrace()
        trace.record(1.0, "tick", value=1)
        trace.record(2.0, "tick", value="mixed")
        trace.record(3.0, "tick", flag=True)
        rebuilt = trace_from_bytes(trace_to_bytes(trace))
        assert list(rebuilt) == list(trace)

    def test_file_round_trip(self, tmp_path):
        trace = TraceRecorder()
        trace.record(0.25, "job_release", task="t0", job=0, deadline=0.5)
        trace.record(0.5, "job_complete", task="t0", job=0, missed=False)
        path = write_trace(trace, tmp_path / "point.trace")
        rebuilt = read_trace(path)
        assert list(rebuilt) == list(trace)

    def test_magic_and_version_lead_the_file(self):
        data = trace_to_bytes(ColumnarTrace())
        assert data[:4] == MAGIC
        (version,) = struct.unpack_from("<H", data, 4)
        assert version == TRACE_FORMAT_VERSION


class TestErrorPaths:
    def payload(self):
        trace = ColumnarTrace()
        trace.record(1.0, "tick", i=1)
        return trace_to_bytes(trace)

    def test_bad_magic_rejected(self):
        data = b"XXXX" + self.payload()[4:]
        with pytest.raises(ValueError, match="magic"):
            trace_from_bytes(data)

    def test_unknown_version_rejected(self):
        data = self.payload()
        bumped = data[:4] + struct.pack("<H", 99) + data[6:]
        with pytest.raises(ValueError, match="version"):
            trace_from_bytes(bumped)

    def test_truncated_payload_rejected(self):
        data = self.payload()
        with pytest.raises(ValueError, match="truncated"):
            trace_from_bytes(data[:-4])

    def test_corrupt_header_rejected(self):
        data = self.payload()
        (hlen,) = struct.unpack_from("<I", data, 6)
        corrupted = data[:10] + b"\xff" * hlen + data[10 + hlen :]
        with pytest.raises(ValueError, match="header"):
            trace_from_bytes(corrupted)


#: sha256 of the format v1 bytes the traced point below ships.  It must
#: never move: a trace's bytes depend on its records only, not on how the
#: recorder buffers them.
PINNED_POINT_SHA256 = (
    "799e18e0a935042fe68c5e0baea1b789d2b9b3a32a68c5ec6ec381a7680ee7a9"
)


def shipped_point_trace():
    """The v1 bytes ``run_point`` ships for a short MMPP + ``reject`` point
    (11,165 records: two full chunks and a partial one)."""
    from repro.exp.backend import InMemoryBackend
    from repro.exp.dist import trace_key
    from repro.exp.grid import GridPoint
    from repro.exp.worker import run_point

    point = GridPoint(
        scenario="scenario1",
        num_contexts=2,
        variant="sgprs_1.5",
        num_tasks=8,
        seed=0,
        duration=1.0,
        warmup=0.2,
        arrival="mmpp:burst=6",
        admission="reject",
    )
    store = InMemoryBackend()
    run_point(point, trace_store=store)
    return store.read(trace_key(point)).data


def one_at_a_time(records):
    """A columnar trace fed ``records`` with a read after each, so that no
    two records are ever columnarised together."""
    trace = ColumnarTrace()
    for record in records:
        trace.record(record.time, record.kind, **record.fields)
        len(trace)
    return trace


def mixed_records():
    """One chunk of regular rows holding a missing field, an int/float
    clash and a bool, each in a different kind."""
    records = []
    for index in range(60):
        now = index * 0.01
        task = f"cam{index % 3}"
        release = {"task": task, "job": index, "deadline": now + 0.1}
        stage = {"stage": f"{task}/j{index}/s0", "context": index % 2}
        records.append(TraceRecord(now, "job_release", release))
        records.append(TraceRecord(now, "stage_release", stage))
        records.append(
            TraceRecord(now, "allocation", {"pressure": 1.0, "resident": index})
        )
    # job 10's stage lacks its context, allocation 20 carries an int
    # pressure, job 30's release a bool field no other release has
    records[31] = TraceRecord(0.1, "stage_release", {"stage": "cam1/j10/s0"})
    records[62] = TraceRecord(0.2, "allocation", {"pressure": 2, "resident": 20})
    records[90] = TraceRecord(
        0.3, "job_release", {"task": "cam0", "job": 30, "deadline": 0.4, "late": True}
    )
    return records


class TestChunkedRecording:
    """Chunked, column-at-a-time recording stores exactly what recording
    one record at a time stores."""

    def test_shipped_point_bytes_are_pinned(self):
        data = shipped_point_trace()
        assert len(trace_from_bytes(data)) > 2 * CHUNK_RECORDS
        assert hashlib.sha256(data).hexdigest() == PINNED_POINT_SHA256

    def test_shipped_point_matches_one_at_a_time(self):
        data = shipped_point_trace()
        records = list(trace_from_bytes(data))
        assert trace_to_bytes(one_at_a_time(records)) == data
        assert trace_to_bytes(ColumnarTrace.from_records(records)) == data

    def test_mixed_chunk_matches_one_at_a_time(self):
        records = mixed_records()
        assert len(records) < CHUNK_RECORDS
        chunked = ColumnarTrace.from_records(records)
        single = one_at_a_time(records)
        assert trace_to_bytes(chunked) == trace_to_bytes(single)
        assert list(chunked) == list(single) == records
        assert chunked.of_kind("job_release")[30].get("late") is True
        assert chunked.of_kind("stage_release")[10].fields == {
            "stage": "cam1/j10/s0"
        }
        clash = chunked.of_kind("allocation")[20].get("pressure")
        assert clash == 2 and type(clash) is int

    def test_records_wait_for_a_read(self):
        trace = ColumnarTrace()
        for index in range(CHUNK_RECORDS + 3):
            trace.record(float(index), "tick", i=index)
        assert trace._pending  # the last partial chunk is not columnarised
        assert len(trace) == CHUNK_RECORDS + 3
        assert not trace._pending
        assert trace.last().get("i") == CHUNK_RECORDS + 2
