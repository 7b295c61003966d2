"""Round-trip and error-path tests for the on-disk trace format, and for
the chunked recording that feeds it."""

import hashlib
import json
import math
import struct
from array import array

import pytest

from repro.core import runner
from repro.core.context_pool import ContextPoolConfig
from repro.core.runner import RunConfig, run_simulation
from repro.gpu.spec import RTX_2080_TI
from repro.sim.metrics import metrics_from_trace
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


def traced_run(seed=0, recorder=ColumnarTrace):
    """A short overloaded run that exercises every trace kind, recorded
    into ``recorder`` (the list recorder is patched in as the reference)."""
    pool = ContextPoolConfig.from_oversubscription(2, 1.0, RTX_2080_TI)
    from repro.workloads.generator import identical_periodic_tasks

    tasks = identical_periodic_tasks(12, nominal_sms=pool.sms_per_context)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "ColumnarTrace", recorder)
        result = run_simulation(
            tasks,
            RunConfig(
                pool=pool,
                duration=0.5,
                warmup=0.1,
                record_trace=True,
                work_jitter_cv=0.1,
                seed=seed,
            ),
        )
    assert type(result.trace) is recorder
    return result.trace


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_simulation_trace_round_trips(self, seed):
        trace = traced_run(seed=seed)
        listed = traced_run(seed=seed, recorder=TraceRecorder)
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
        listed = traced_run(recorder=TraceRecorder)
        columnar = traced_run()
        assert trace_to_bytes(listed) == trace_to_bytes(columnar)

    def test_empty_trace_round_trips(self):
        data = trace_to_bytes(ColumnarTrace())
        rebuilt = trace_from_bytes(data)
        assert len(rebuilt) == 0
        assert trace_to_bytes(rebuilt) == data

    def test_file_round_trip(self, tmp_path):
        trace = TraceRecorder()
        trace.record(0.25, "job_release", task="t0", job=0, deadline=0.5)
        trace.record(0.5, "job_complete", task="t0", job=0, missed=0)
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


def split(data):
    """The JSON header and the payload blobs of format v1 ``data``."""
    (hlen,) = struct.unpack_from("<I", data, 6)
    header = json.loads(data[10 : 10 + hlen])
    blobs, cursor = [], 10 + hlen
    while cursor < len(data):
        (length,) = struct.unpack_from("<Q", data, cursor)
        blobs.append(data[cursor + 8 : cursor + 8 + length])
        cursor += 8 + length
    return header, blobs


def join(header, blobs):
    """Format v1 bytes of a header and payload blobs (the inverse of
    :func:`split`)."""
    encoded = json.dumps(header, separators=(",", ":")).encode()
    parts = [MAGIC, struct.pack("<HI", TRACE_FORMAT_VERSION, len(encoded)), encoded]
    for blob in blobs:
        parts += [struct.pack("<Q", len(blob)), blob]
    return b"".join(parts)


def job_trace_bytes():
    """Two jobs of one task, each released and completed: 4 records.

    Blobs: 0 times, 1 kind ids, 2 row offsets; ``job_release``: 3 indices,
    then presence and values of 4/5 ``task``, 6/7 ``job``, 8/9
    ``deadline``; ``job_complete``: 10 indices, 11/12 ``task``, 13/14
    ``job``.
    """
    trace = ColumnarTrace()
    trace.record(0.0, "job_release", task="t0", job=0, deadline=0.5)
    trace.record(0.1, "job_release", task="t0", job=1, deadline=0.6)
    trace.record(0.2, "job_complete", task="t0", job=0)
    trace.record(0.3, "job_complete", task="t0", job=1)
    return trace_to_bytes(trace)


def with_blob(index, values):
    """:func:`job_trace_bytes` with blob ``index`` replaced by ``values``."""
    header, blobs = split(job_trace_bytes())
    blobs[index] = values if isinstance(values, bytes) else values.tobytes()
    return join(header, blobs)


class TestCorruptPayloads:
    """A payload that contradicts its own header, or the recorder's
    invariants, is refused at load: replay of it would return wrong
    numbers without raising."""

    def test_parts_rejoin_to_a_payload_that_replays(self):
        data = job_trace_bytes()
        assert join(*split(data)) == data
        summary = metrics_from_trace(trace_from_bytes(data), 0.0, 1.0)
        assert (summary["completed"], summary["dmr"]) == (2, 0.0)

    def test_kind_id_out_of_range(self):
        data = with_blob(1, array("i", [0, 0, 1, 7]))
        with pytest.raises(ValueError, match="kind id out of range"):
            trace_from_bytes(data)

    def test_indices_of_another_kind(self):
        data = with_blob(3, array("q", [2, 3]))
        with pytest.raises(ValueError, match="'job_release''s indices"):
            trace_from_bytes(data)

    def test_indices_out_of_order(self):
        data = with_blob(3, array("q", [1, 0]))
        with pytest.raises(ValueError, match="strictly increasing"):
            trace_from_bytes(data)

    def test_indices_out_of_range(self):
        data = with_blob(10, array("q", [2, 4]))
        with pytest.raises(ValueError, match="'job_complete''s indices"):
            trace_from_bytes(data)

    def test_row_offsets_that_do_not_match(self):
        data = with_blob(2, array("q", [1, 0, 0, 1]))
        with pytest.raises(ValueError, match="row offsets"):
            trace_from_bytes(data)

    @pytest.mark.parametrize("string_id", [1, -1])
    def test_string_id_outside_the_table(self, string_id):
        data = with_blob(5, array("i", [0, string_id]))
        with pytest.raises(ValueError, match="string id outside the table"):
            trace_from_bytes(data)

    @pytest.mark.parametrize(
        "times",
        [
            [math.nan, 0.1, 0.2, 0.3],
            [0.0, 0.1, math.nan, 0.3],
            [0.0, 0.1, 0.2, math.inf],
            [0.0, 0.2, 0.1, 0.3],
        ],
        ids=["nan-first", "nan-inside", "inf-last", "backwards"],
    )
    def test_times_not_finite_and_non_decreasing(self, times):
        data = with_blob(0, array("d", times))
        with pytest.raises(ValueError, match="finite and non-decreasing"):
            trace_from_bytes(data)

    def test_absent_field_byte(self):
        data = with_blob(13, b"\x01\x00")
        with pytest.raises(ValueError, match="field 'job': its presence bytes mark a row absent"):
            trace_from_bytes(data)

    def test_object_column(self):
        header, blobs = split(job_trace_bytes())
        header["groups"][1]["columns"][1]["code"] = "o"
        blobs[14] = b"[0,1]"
        with pytest.raises(ValueError, match="code 'o'"):
            trace_from_bytes(join(header, blobs))

    def test_bytes_after_the_last_blob(self):
        with pytest.raises(ValueError, match="bytes after the last blob"):
            trace_from_bytes(job_trace_bytes() + b"\x00")

    @pytest.mark.parametrize(
        "header", [{}, [], {"records": 4}], ids=["empty", "list", "one-key"]
    )
    def test_header_without_its_four_keys(self, header):
        _, blobs = split(job_trace_bytes())
        with pytest.raises(ValueError, match="corrupt trace header"):
            trace_from_bytes(join(header, blobs))

    def test_header_with_a_malformed_table(self):
        header, blobs = split(job_trace_bytes())
        header["strings"] = {"t0": 0}
        with pytest.raises(ValueError, match="corrupt trace header"):
            trace_from_bytes(join(header, blobs))

    def test_input_shorter_than_the_fixed_header(self):
        with pytest.raises(ValueError, match="truncated trace header"):
            trace_from_bytes(job_trace_bytes()[:5])


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


def mixed_records(steps=60):
    """Records of three kinds interleaved, each kind keeping one layout: a
    job release, its stage and an allocation per step."""
    records = []
    for index in range(steps):
        now = index * 0.01
        task = f"cam{index % 3}"
        release = {"task": task, "job": index, "deadline": now + 0.1}
        stage = {"stage": f"{task}/j{index}/s0", "context": index % 2}
        records.append(TraceRecord(now, "job_release", release))
        records.append(TraceRecord(now, "stage_release", stage))
        records.append(
            TraceRecord(now, "allocation", {"pressure": 1.0, "resident": index})
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
        # a layout break refuses both ways alike (TestLayoutRefusals)
        records[31] = TraceRecord(0.1, "stage_release", {"stage": "cam1/j10/s0"})
        assert "lacks field 'context'" in refusal(records)

    def test_records_wait_for_a_read(self):
        trace = ColumnarTrace()
        for index in range(CHUNK_RECORDS + 3):
            trace.record(float(index), "tick", i=index)
        assert trace._pending  # the last partial chunk is not columnarised
        assert len(trace) == CHUNK_RECORDS + 3
        assert not trace._pending
        assert trace.last().get("i") == CHUNK_RECORDS + 2


def refusal(records):
    """The ``ValueError`` message recording ``records`` raises, which must be
    the same whether they are columnarised as one chunk or one at a time."""
    messages = []
    for record_one_at_a_time in (False, True):
        with pytest.raises(ValueError) as raised:
            if record_one_at_a_time:
                one_at_a_time(records)
            else:
                len(ColumnarTrace.from_records(records))
        messages.append(str(raised.value))
    chunked, single = messages
    assert chunked == single
    return chunked


def with_record(index, time, kind, **fields):
    """:func:`mixed_records` with record ``index`` replaced."""
    records = mixed_records()
    records[index] = TraceRecord(time, kind, fields)
    return records


class TestLayoutRefusals:
    """A kind's first record fixes its fields and their types; a record
    that departs from that layout fails the flush, naming kind and field,
    however the records are chunked."""

    def test_missing_field_refused(self):
        message = refusal(with_record(31, 0.1, "stage_release", stage="cam1/j10/s0"))
        assert message == (
            "trace kind 'stage_release': a record lacks field 'context'"
        )

    def test_extra_field_refused(self):
        message = refusal(
            with_record(
                90, 0.3, "job_release", task="cam0", job=30, deadline=0.4, late=1
            )
        )
        assert message == (
            "trace kind 'job_release': a record has field 'late', which the "
            "kind's first record lacks"
        )

    def test_type_change_refused(self):
        message = refusal(with_record(62, 0.2, "allocation", pressure=2, resident=20))
        assert message == (
            "trace kind 'allocation' field 'pressure': int value in its float "
            "column"
        )

    def test_bool_refused(self):
        # a bool is an int subclass, but it would read back as 0/1
        message = refusal(
            with_record(60, 0.2, "job_release", task="cam2", job=True, deadline=0.3)
        )
        assert message == (
            "trace kind 'job_release' field 'job': bool value in its int column"
        )
        first = refusal([TraceRecord(1.0, "job_complete", {"missed": True})])
        assert first.startswith(
            "trace kind 'job_complete' field 'missed': bool value;"
        )

    def test_object_refused(self):
        message = refusal(
            with_record(3, 0.01, "job_release", task=None, job=1, deadline=0.11)
        )
        assert message == (
            "trace kind 'job_release' field 'task': NoneType value in its str "
            "column"
        )
        first = refusal([TraceRecord(1.0, "tick", {"value": [1, 2]})])
        assert first.startswith("trace kind 'tick' field 'value': list value;")

    def test_int_beyond_64_bits_refused(self):
        message = refusal(
            with_record(5, 0.01, "allocation", pressure=1.0, resident=2**63)
        )
        assert message == (
            "trace kind 'allocation' field 'resident': int beyond 64 bits"
        )

    def test_time_not_a_number_refused(self):
        message = refusal(
            with_record(4, "soon", "stage_release", stage="cam1/j1/s0", context=1)
        )
        assert message == (
            "trace kind 'stage_release' field 'time': 'soon' is not a number"
        )

    def test_time_not_finite_refused(self):
        message = refusal(
            with_record(
                4, math.nan, "stage_release", stage="cam1/j1/s0", context=1
            )
        )
        assert message == (
            "trace kind 'stage_release' field 'time': nan is not finite"
        )
        last = refusal(
            with_record(179, math.inf, "allocation", pressure=1.0, resident=59)
        )
        assert last == "trace kind 'allocation' field 'time': inf is not finite"

    def test_time_running_backwards_refused(self):
        # record 90 is step 30's release at 0.3; the record before it is
        # step 29's allocation at 0.29
        message = refusal(
            with_record(90, 0.2, "job_release", task="cam0", job=30, deadline=0.3)
        )
        assert message == (
            "trace kind 'job_release' field 'time': 0.2 is before the time "
            "recorded before it, 0.29"
        )

    def test_refused_times_leave_the_trace_as_it_was(self):
        records = mixed_records()
        trace = ColumnarTrace.from_records(records)
        len(trace)  # columnarise the regular records, the last at 0.59
        for time in (math.nan, 0.5):
            trace.record(0.6, "allocation", pressure=1.0, resident=60)
            trace.record(time, "fresh_kind", value=1)
            with pytest.raises(ValueError, match="'fresh_kind' field 'time'"):
                len(trace)
            assert list(trace) == records
            assert "fresh_kind" not in trace.kinds()
        # a chunk that starts before the stored trace ends is refused too
        trace.record(0.5, "allocation", pressure=1.0, resident=60)
        with pytest.raises(ValueError, match="0.5 is before .* 0.59"):
            len(trace)
        assert list(trace) == records

    def test_refused_chunk_leaves_the_trace_as_it_was(self):
        records = mixed_records()
        trace = ColumnarTrace.from_records(records)
        len(trace)  # columnarise the regular records
        trace.record(1.0, "allocation", pressure=1.0)
        trace.record(1.0, "fresh_kind", value=1)
        with pytest.raises(ValueError, match="lacks field 'resident'"):
            len(trace)
        assert list(trace) == records
        assert "fresh_kind" not in trace.kinds()

    def test_refusal_in_a_later_chunk(self):
        records = mixed_records(CHUNK_RECORDS // 3 + 10)
        records[-2] = TraceRecord(9.0, "stage_release", {"stage": "late"})
        assert "lacks field 'context'" in refusal(records)
