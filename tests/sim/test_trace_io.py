"""Round-trip and error-path tests for the on-disk trace format."""

import struct

import pytest

from repro.core.context_pool import ContextPoolConfig
from repro.core.runner import RunConfig, run_simulation
from repro.gpu.spec import RTX_2080_TI
from repro.sim.trace import TraceRecorder
from repro.sim.trace_columnar import ColumnarTrace
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
