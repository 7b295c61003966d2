"""Compact on-disk trace format + StorageBackend shipping.

Traces never used to leave the worker process (``exp/worker.py`` drops
them from IPC because a list-backed trace is megabytes); this module
gives them a wire shape, so run directories can carry per-point traces
and analysis can compare runs event by event.

On-disk format (version 1)
--------------------------
A trace file is::

    magic   b"RPTC"                       (RePro Trace, Columnar)
    version u16 little-endian             (this writer: 1)
    hlen    u32 little-endian
    header  hlen bytes of UTF-8 JSON
    payload concatenated column blobs, each u64-LE length-prefixed

The JSON header carries everything needed to interpret the payload:
record count, the interned kind-name table, the shared string-intern
table, and per kind group the row count plus each column's
``{"name", "code"}`` (codes as in :mod:`repro.sim.trace_columnar`:
``f`` float64, ``i`` int64, ``s`` string-id int32, ``o`` JSON-encoded
object list).  Payload blobs follow in a fixed, fully deterministic
order — times, kind ids, row offsets, then per group (in kind-id
order): global row indices, then per column (in first-seen field
order): the presence bytes and the value blob.  All integers and
floats are little-endian regardless of host byte order.

Compatibility rules
-------------------
* The version is bumped whenever the header schema, the blob order or
  any blob encoding changes; readers reject versions they do not know
  (no silent best-effort parsing of newer files).
* Writers must be deterministic: serialising the same trace twice
  yields identical bytes (the round-trip tests pin
  ``serialise(deserialise(b)) == b``), so traces can be content-hashed
  and deduplicated by the storage layer.
* ``o`` columns hold arbitrary payload objects and are JSON-encoded;
  anything a scheduler records in a trace field must therefore be
  JSON-serialisable (every current trace kind records only floats,
  ints and strings, which never hit the ``o`` path).
* How a recorder buffers records does not reach the format: the
  columnar recorder columnarises records a chunk at a time, and
  :func:`trace_to_bytes` flushes its pending chunk first, so the bytes
  are those of recording every record one at a time (a test pins the
  sha256 of a shipped multi-chunk trace).

Shipping
--------
:func:`write_trace` / :func:`read_trace` work on filesystem paths;
:func:`put_trace` / :func:`get_trace` move the same bytes through any
:class:`~repro.exp.backend.StorageBackend`, which is how the
distributed-sweep layer (:mod:`repro.exp.dist`) attaches traces to run
directories.
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from pathlib import Path
from typing import List, Optional, Union

from repro.sim.trace_columnar import (
    FLOAT,
    INT,
    OBJECT,
    STR,
    ColumnarTrace,
    _Column,
    _KindGroup,
    _TYPECODES,
)

MAGIC = b"RPTC"
TRACE_FORMAT_VERSION = 1

_SWAP = sys.byteorder == "big"


def _blob(values) -> bytes:
    """Little-endian bytes of a stdlib array (or JSON for object lists)."""
    if isinstance(values, array):
        if _SWAP:  # pragma: no cover - big-endian hosts only
            values = array(values.typecode, values)
            values.byteswap()
        return values.tobytes()
    return json.dumps(list(values), sort_keys=True).encode()


def _unblob(code_or_typecode: str, data: bytes):
    """Inverse of :func:`_blob` for one typed column."""
    values = array(code_or_typecode)
    values.frombytes(data)
    if _SWAP:  # pragma: no cover - big-endian hosts only
        values.byteswap()
    return values


def trace_to_bytes(trace) -> bytes:
    """Serialise a trace (either recorder backend) to format v1 bytes."""
    if not isinstance(trace, ColumnarTrace):
        trace = ColumnarTrace.from_records(trace)
    trace._flush()
    header = {
        "records": len(trace),
        "kinds": trace._kind_names,
        "strings": trace._strings,
        "groups": [
            {
                "rows": group.rows,
                "columns": [
                    {"name": name, "code": column.code}
                    for name, column in group.columns.items()
                ],
            }
            for group in trace._groups
        ],
    }
    blobs: List[bytes] = [
        _blob(trace._times),
        _blob(trace._kind_ids),
        _blob(trace._rows),
    ]
    for group in trace._groups:
        blobs.append(_blob(group.indices))
        for column in group.columns.values():
            blobs.append(_blob(column.present))
            blobs.append(_blob(column.values))
    encoded_header = json.dumps(
        header, separators=(",", ":"), ensure_ascii=False
    ).encode()
    out = [
        MAGIC,
        struct.pack("<H", TRACE_FORMAT_VERSION),
        struct.pack("<I", len(encoded_header)),
        encoded_header,
    ]
    for blob in blobs:
        out.append(struct.pack("<Q", len(blob)))
        out.append(blob)
    return b"".join(out)


def trace_from_bytes(data: bytes) -> ColumnarTrace:
    """Deserialise format v1 bytes into a :class:`ColumnarTrace`.

    Raises
    ------
    ValueError
        On a wrong magic, an unsupported version, or a truncated or
        inconsistent payload.
    """
    if data[:4] != MAGIC:
        raise ValueError("not a trace file (bad magic)")
    (version,) = struct.unpack_from("<H", data, 4)
    if version != TRACE_FORMAT_VERSION:
        raise ValueError(f"unsupported trace format version: {version}")
    (hlen,) = struct.unpack_from("<I", data, 6)
    try:
        header = json.loads(data[10 : 10 + hlen].decode())
    except ValueError as error:
        raise ValueError(f"corrupt trace header: {error}") from None
    cursor = 10 + hlen

    def next_blob() -> bytes:
        nonlocal cursor
        if cursor + 8 > len(data):
            raise ValueError("truncated trace payload")
        (length,) = struct.unpack_from("<Q", data, cursor)
        cursor += 8
        if cursor + length > len(data):
            raise ValueError("truncated trace payload")
        blob = data[cursor : cursor + length]
        cursor += length
        return blob

    trace = ColumnarTrace()
    trace._kind_names = list(header["kinds"])
    trace._kind_lookup = {
        name: index for index, name in enumerate(trace._kind_names)
    }
    trace._strings = list(header["strings"])
    trace._string_ids = {
        value: index for index, value in enumerate(trace._strings)
    }
    trace._times = _unblob("d", next_blob())
    trace._kind_ids = _unblob("i", next_blob())
    trace._rows = _unblob("q", next_blob())
    records = header["records"]
    if not (
        len(trace._times) == len(trace._kind_ids) == len(trace._rows) == records
    ):
        raise ValueError("inconsistent trace payload (record counts differ)")
    for kind_id, group_header in enumerate(header["groups"]):
        group = _KindGroup(kind_id)
        group.rows = group_header["rows"]
        group.indices = _unblob("q", next_blob())
        if len(group.indices) != group.rows:
            raise ValueError("inconsistent trace payload (group rows differ)")
        for column_header in group_header["columns"]:
            code = column_header["code"]
            if code not in (FLOAT, INT, STR, OBJECT):
                raise ValueError(f"unknown column code: {code!r}")
            column = _Column(code)
            column.present = _unblob("b", next_blob())
            blob = next_blob()
            if code == OBJECT:
                column.values = json.loads(blob.decode())
            else:
                column.values = _unblob(_TYPECODES[code], blob)
            if len(column.present) != group.rows or len(
                column.values
            ) != group.rows:
                raise ValueError(
                    "inconsistent trace payload (column rows differ)"
                )
            group.columns[column_header["name"]] = column
        trace._groups.append(group)
    if len(trace._groups) != len(trace._kind_names):
        raise ValueError("inconsistent trace payload (kind groups differ)")
    return trace


def write_trace(trace, path: Union[str, Path]) -> Path:
    """Serialise a trace (either backend) to ``path``; returns the path."""
    path = Path(path)
    path.write_bytes(trace_to_bytes(trace))
    return path


def read_trace(path: Union[str, Path]) -> ColumnarTrace:
    """Load a trace file written by :func:`write_trace`."""
    return trace_from_bytes(Path(path).read_bytes())


def put_trace(backend, key: str, trace) -> None:
    """Publish a trace under ``key`` through a StorageBackend.

    Uses ``atomic_replace`` — readers see a complete trace or none; a
    re-computed point simply overwrites its trace with identical bytes
    (serialisation is deterministic).
    """
    if "/" in key:
        backend.ensure_prefix(key.rsplit("/", 1)[0])
    backend.atomic_replace(key, trace_to_bytes(trace))


def get_trace(backend, key: str) -> Optional[ColumnarTrace]:
    """Load a trace from a StorageBackend, or ``None`` when absent."""
    record = backend.read(key)
    if record is None:
        return None
    return trace_from_bytes(record.data)
