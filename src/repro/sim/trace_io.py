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
``f`` float64, ``i`` int64, ``s`` string-id int32).  Payload blobs
follow in a fixed, fully deterministic order — times, kind ids, row
offsets, then per group (in kind-id order): global row indices, then per
column (in field order): a presence blob of one byte per row and the
value blob.  All integers and floats are little-endian regardless of
host byte order.

Compatibility rules
-------------------
* The version is bumped whenever the header schema, the blob order or
  any blob encoding changes; readers reject versions they do not know
  (no silent best-effort parsing of newer files).
* Writers must be deterministic: serialising the same trace twice
  yields identical bytes (the round-trip tests pin
  ``serialise(deserialise(b)) == b``), so traces can be content-hashed
  and deduplicated by the storage layer.
* The recorder keeps one layout per kind, so every field is present in
  every row: the writer emits an all-ones presence blob per column.
  Version 1 also defined a ``0`` (absent field) presence byte and an
  ``o`` column of JSON-encoded objects; the reader refuses both with a
  ``ValueError``.  No shipped trace holds either: every emit site records
  exactly its kind's fields as floats, ints and strings, and only
  free-form test records ever took the recorder path that wrote them.
* The reader refuses, with a ``ValueError``, any payload that
  contradicts its own header or the recorder's invariants: a header
  that is not the four-key object, bytes after the last blob, kind ids
  out of range, group indices that are not strictly increasing, in range
  and all of their own kind, row offsets that do not match them, string
  ids outside the table, and times that are not finite or run backwards.
  Replay would otherwise return wrong numbers without raising.
* How a recorder buffers records does not reach the format: the
  columnar recorder columnarises records a chunk at a time, and
  :func:`trace_to_bytes` flushes its pending chunk first, so the bytes
  do not depend on where chunks end (a test pins the sha256 of a
  shipped multi-chunk trace).

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
from itertools import count, repeat
from operator import itemgetter, lt
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.sim.trace_columnar import (
    _TYPECODES,
    STR,
    ColumnarTrace,
    _KindGroup,
    times_in_order,
)

MAGIC = b"RPTC"
TRACE_FORMAT_VERSION = 1

_SWAP = sys.byteorder == "big"
_HEADER_KEYS = {"records", "kinds", "strings", "groups"}


def _blob(values: array) -> bytes:
    """Little-endian bytes of a stdlib array."""
    if _SWAP:  # pragma: no cover - big-endian hosts only
        values = array(values.typecode, values)
        values.byteswap()
    return values.tobytes()


def _unblob(typecode: str, data: bytes) -> array:
    """Inverse of :func:`_blob`."""
    values = array(typecode)
    values.frombytes(data)  # ValueError on a length that is not whole items
    if _SWAP:  # pragma: no cover - big-endian hosts only
        values.byteswap()
    return values


def trace_to_bytes(trace) -> bytes:
    """Serialise a trace (a :class:`ColumnarTrace` or any iterable of
    trace records) to format v1 bytes."""
    if not isinstance(trace, ColumnarTrace):
        trace = ColumnarTrace.from_records(trace)
    trace._flush()
    header = {
        "records": len(trace),
        "kinds": trace._kind_names,
        "strings": trace._strings,
        "groups": [
            {
                "rows": len(group.indices),
                "columns": [
                    {"name": name, "code": code}
                    for name, code in group.codes.items()
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
        present = b"\x01" * len(group.indices)
        for column in group.columns.values():
            blobs.append(present)
            blobs.append(_blob(column))
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


def _gather(values: array, indices: array) -> tuple:
    """``values`` at each of the (non-empty) ``indices``, in one C-level
    call."""
    if len(indices) == 1:
        return (values[indices[0]],)
    return itemgetter(*indices)(values)


def _is_list_of(value, value_type) -> bool:
    return isinstance(value, list) and all(
        map(isinstance, value, repeat(value_type))
    )


def _read_header(data: bytes) -> Tuple[dict, int]:
    """The JSON header of format v1 ``data``, its shape checked, and the
    offset of the first payload blob."""
    if data[:4] != MAGIC:
        raise ValueError("not a trace file (bad magic)")
    if len(data) < 10:
        raise ValueError("truncated trace header")
    (version,) = struct.unpack_from("<H", data, 4)
    if version != TRACE_FORMAT_VERSION:
        raise ValueError(f"unsupported trace format version: {version}")
    (hlen,) = struct.unpack_from("<I", data, 6)
    if 10 + hlen > len(data):
        raise ValueError("truncated trace header")
    try:
        header = json.loads(data[10 : 10 + hlen].decode())
    except ValueError as error:
        raise ValueError(f"corrupt trace header: {error}") from None
    if not isinstance(header, dict) or header.keys() != _HEADER_KEYS:
        raise ValueError(
            "corrupt trace header: expected an object with the keys "
            f"{sorted(_HEADER_KEYS)}"
        )
    kinds, groups = header["kinds"], header["groups"]
    if not (
        type(header["records"]) is int
        and _is_list_of(kinds, str)
        and len(set(kinds)) == len(kinds)
        and _is_list_of(header["strings"], str)
        and _is_list_of(groups, dict)
        and len(groups) == len(kinds)
    ):
        raise ValueError(
            "corrupt trace header: expects an int record count, distinct "
            "kind names, a table of strings and one group object per kind"
        )
    for kind, group in zip(kinds, groups):
        columns = group.get("columns")
        if not (
            group.keys() == {"rows", "columns"}
            and type(group["rows"]) is int
            and _is_list_of(columns, dict)
            and all(column.keys() == {"name", "code"} for column in columns)
            and _is_list_of([column["name"] for column in columns], str)
            and len({column["name"] for column in columns}) == len(columns)
        ):
            raise ValueError(f"corrupt trace header: kind {kind!r}'s group")
        for column in columns:
            if column["code"] not in _TYPECODES:
                raise ValueError(
                    f"trace kind {kind!r} field {column['name']!r}: column "
                    f"code {column['code']!r} is not f, i or s (this reader "
                    "takes no o columns)"
                )
    return header, 10 + hlen


def trace_from_bytes(data: bytes) -> ColumnarTrace:
    """Deserialise format v1 bytes into a :class:`ColumnarTrace`.

    Raises
    ------
    ValueError
        On a wrong magic, an unsupported version, a truncated or corrupt
        header, or a payload that contradicts its header or the
        recorder's invariants (see the module docstring).
    """
    header, cursor = _read_header(data)

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
    trace._kind_lookup = dict(zip(trace._kind_names, count()))
    strings = trace._strings = list(header["strings"])
    trace._string_ids = dict(zip(strings, count()))
    times = trace._times = _unblob("d", next_blob())
    kind_ids = trace._kind_ids = _unblob("i", next_blob())
    rows = trace._rows = _unblob("q", next_blob())
    records = header["records"]
    if not len(times) == len(kind_ids) == len(rows) == records:
        raise ValueError("inconsistent trace payload (record counts differ)")
    if not times_in_order(times):
        raise ValueError(
            "inconsistent trace payload (times not finite and non-decreasing)"
        )
    if kind_ids and not 0 <= min(kind_ids) <= max(kind_ids) < len(
        trace._kind_names
    ):
        raise ValueError("inconsistent trace payload (kind id out of range)")
    for kind_id, group_header in enumerate(header["groups"]):
        kind = trace._kind_names[kind_id]
        group = _KindGroup(
            {column["name"]: column["code"] for column in group_header["columns"]}
        )
        indices = group.indices = _unblob("q", next_blob())
        if len(indices) != group_header["rows"]:
            raise ValueError("inconsistent trace payload (group rows differ)")
        if indices and not (
            0 <= indices[0]
            and indices[-1] < records
            and all(map(lt, indices, indices[1:]))
            and _gather(kind_ids, indices) == (kind_id,) * len(indices)
        ):
            raise ValueError(
                f"inconsistent trace payload (kind {kind!r}'s indices are not "
                "strictly increasing record indices of that kind)"
            )
        if indices and _gather(rows, indices) != tuple(range(len(indices))):
            raise ValueError(
                f"inconsistent trace payload (kind {kind!r}'s row offsets)"
            )
        present = b"\x01" * len(indices)
        for name, code in group.codes.items():
            if next_blob() != present:
                raise ValueError(
                    f"trace kind {kind!r} field {name!r}: its presence bytes "
                    "mark a row absent (this reader takes one layout per "
                    "kind, every field present)"
                )
            column = group.columns[name] = _unblob(_TYPECODES[code], next_blob())
            if len(column) != len(indices):
                raise ValueError(
                    "inconsistent trace payload (column rows differ)"
                )
            if code == STR and column and not (
                0 <= min(column) and max(column) < len(strings)
            ):
                raise ValueError(
                    f"inconsistent trace payload (kind {kind!r} field "
                    f"{name!r} holds a string id outside the table)"
                )
        trace._groups.append(group)
    if sum(map(len, (group.indices for group in trace._groups))) != records:
        raise ValueError("inconsistent trace payload (group rows differ)")
    if cursor != len(data):
        raise ValueError("inconsistent trace payload (bytes after the last blob)")
    return trace


def write_trace(trace, path: Union[str, Path]) -> Path:
    """Serialise a trace (see :func:`trace_to_bytes`) to ``path``; returns
    the path."""
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
