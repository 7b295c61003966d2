"""Array-backed columnar trace recorder: what every traced run records.

:class:`~repro.sim.trace.TraceRecorder` keeps one named tuple plus
one dict per event — convenient, but a million-event run (which
overloaded pools and open-system arrivals readily produce) costs
hundreds of bytes per event.  :class:`ColumnarTrace` stores the same
stream as flat per-column arrays instead:

* event **kinds are interned** to small integer ids;
* ``time`` / kind id / per-kind row bookkeeping live in stdlib
  :mod:`array` buffers (8 + 4 + 8 + 8 bytes per event);
* **one layout per kind**: a kind's first record fixes its field names
  and each field's type, exactly ``float``, ``int`` or ``str``.  Each
  ``(kind, field)`` pair is one packed column (``float64``, ``int64``,
  or ids into one shared string table), dense over the kind's rows;
* records returned by the query API are built from the columns on
  demand: iteration and :meth:`ColumnarTrace.of_kind` walk each kind's
  columns, and :meth:`ColumnarTrace.rows` reads chosen fields of chosen
  kinds straight from them, materialising nothing.

**Recording is chunked.**  :meth:`ColumnarTrace.record` only appends to a
pending chunk of :data:`CHUNK_RECORDS` records, which is columnarised in
bulk, one column at a time, when it fills or when anything reads the
trace (every query, ``len``, :meth:`~ColumnarTrace.nbytes` and
:func:`repro.sim.trace_io.trace_to_bytes` flush it first).  A record that
departs from its kind's layout — a missing or extra field, a value of
another type (a ``bool`` is not an ``int``), any other object, an int
beyond 64 bits — or whose time is not a number makes that flush raise a
``ValueError`` naming the kind and the field, and the chunk is dropped.
So does a time the reader of :mod:`repro.sim.trace_io` would refuse:
one that is not finite, or earlier than the time recorded before it
(checked after the layout), so the recorder never holds a trace that
cannot be read back.
Strings are interned in record order, then field order within a record,
so the stored columns, the string table and the serialised bytes do not
depend on where the chunk boundaries fall.

``run_simulation`` records into this class whenever
``RunConfig.record_trace`` is set.  It keeps the
:class:`~repro.sim.trace.TraceRecorder` query API (``record`` /
``__iter__`` / ``__len__`` / ``of_kind`` / ``where`` / ``kinds`` /
``last``), and the payload round-trips to disk through
:mod:`repro.sim.trace_io`.
"""

from __future__ import annotations

import math
from array import array
from itertools import compress, count, repeat
from operator import itemgetter, le, not_
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.sim.trace import TraceRecord

#: Column type codes, as a trace file's header spells them: packed
#: float64, packed int64, interned string ids.
FLOAT, INT, STR = "f", "i", "s"

#: The one value type of each column code (a bool is an int subclass, so
#: it never passes as an ``INT`` value), and the reverse lookup.
_TYPES = {FLOAT: float, INT: int, STR: str}
_CODES = {value_type: code for code, value_type in _TYPES.items()}
#: The stdlib ``array`` typecode each column code packs into.
_TYPECODES = {FLOAT: "d", INT: "q", STR: "i"}

#: Records :meth:`ColumnarTrace.record` buffers before it columnarises
#: them together.
CHUNK_RECORDS = 4096
#: The pending chunk is one flat list, three slots per record: a tuple
#: per record would be one more object the cycle collector counts.
_CHUNK_SLOTS = 3 * CHUNK_RECORDS


def _layout_of(kind: str, fields: Dict[str, Any]) -> Dict[str, str]:
    """The field names and column codes a kind's first record fixes."""
    layout = {}
    for name, value in fields.items():
        code = _CODES.get(type(value))
        if code is None:
            raise ValueError(
                f"trace kind {kind!r} field {name!r}: "
                f"{type(value).__name__} value; a field holds float, int or "
                "str values"
            )
        layout[name] = code
    return layout


def _columns_of(
    kind: str, layout: Dict[str, str], records: List[Dict[str, Any]]
) -> List[Any]:
    """Each field's values over ``records``, in layout order: typed values
    packed, strings as they are (interned later, in record order).

    Raises ``ValueError`` naming the kind and field when a record departs
    from the layout.
    """
    width = len(layout)
    if set(map(len, records)) != {width}:
        # some record holds a field the layout lacks, or lacks one
        for record in records:
            extra = [name for name in record if name not in layout]
            if extra:
                raise ValueError(
                    f"trace kind {kind!r}: a record has field {extra[0]!r}, "
                    "which the kind's first record lacks"
                )
    columns = []
    for name, code in layout.items():
        try:
            values = list(map(itemgetter(name), records))
        except KeyError:
            raise ValueError(
                f"trace kind {kind!r}: a record lacks field {name!r}"
            ) from None
        value_type = _TYPES[code]
        if set(map(type, values)) != {value_type}:
            other = next(v for v in values if type(v) is not value_type)
            raise ValueError(
                f"trace kind {kind!r} field {name!r}: "
                f"{type(other).__name__} value in its {value_type.__name__} "
                "column"
            )
        if code != STR:
            try:
                values = array(_TYPECODES[code], values)
            except OverflowError:
                raise ValueError(
                    f"trace kind {kind!r} field {name!r}: int beyond 64 bits"
                ) from None
        columns.append(values)
    return columns


def times_in_order(times: Sequence[float], last: Optional[float] = None) -> bool:
    """Whether the trace reader accepts ``times``: the first and last are
    finite and none runs backwards, within ``times`` or against ``last``,
    the time stored before them (``None`` if there is none).

    Finite ends and no step back leave no room for a NaN or an infinity
    in between, so the middle needs only the ``<=`` walk.
    """
    return not times or (
        (last is None or last <= times[0])
        and math.isfinite(times[0])
        and math.isfinite(times[-1])
        and all(map(le, times, times[1:]))
    )


def _refuse_times(kinds: List[str], times: array, last: Optional[float]) -> None:
    """Raise the ``ValueError`` for times :func:`times_in_order` refused,
    naming the kind of the first offending record and the field ``time``."""
    for time, kind in zip(times, kinds):
        if not math.isfinite(time):
            raise ValueError(
                f"trace kind {kind!r} field 'time': {time!r} is not finite"
            )
        if last is not None and time < last:
            raise ValueError(
                f"trace kind {kind!r} field 'time': {time!r} is before the "
                f"time recorded before it, {last!r}"
            )
        last = time


class _KindGroup:
    """All rows of one kind: their record indices and one column per
    field of the kind's layout."""

    __slots__ = ("indices", "codes", "columns")

    def __init__(self, codes: Dict[str, str]) -> None:
        #: Global record index of each row (for ``of_kind`` ordering).
        self.indices = array("q")
        #: Field name -> column code, in the kind's field order.
        self.codes = codes
        #: Field name -> packed values, one per row.
        self.columns = {
            name: array(_TYPECODES[code]) for name, code in codes.items()
        }


class ColumnarTrace:
    """The trace recorder: columnar storage, the
    :class:`~repro.sim.trace.TraceRecorder` query API.

    Its query results equal the list recorder's record for record (pinned
    by the recorder-equivalence tests).  See the module docstring for the
    storage layout.
    """

    def __init__(self) -> None:
        self._times = array("d")
        self._kind_ids = array("i")  # kind id per record
        self._rows = array("q")  # record's row within its kind group
        self._kind_names: List[str] = []
        self._kind_lookup: Dict[str, int] = {}
        self._groups: List[_KindGroup] = []
        self._strings: List[str] = []
        self._string_ids: Dict[str, int] = {}
        #: ``time, kind, fields`` of each record not yet columnarised.
        self._pending: List[Any] = []

    # ------------------------------------------------------------------
    # Recording (TraceRecorder API)
    # ------------------------------------------------------------------
    def record(self, time: float, kind: str, **fields: Any) -> None:
        """Append a record (columnarised with its chunk)."""
        pending = self._pending
        pending += (time, kind, fields)
        if len(pending) >= _CHUNK_SLOTS:
            self._flush()

    def _flush(self) -> None:
        """Columnarise the pending chunk; every reader calls this first.

        Everything is checked before anything is stored, so a refused
        chunk leaves the trace as it was before the chunk.
        """
        chunk = self._pending
        if not chunk:
            return
        self._pending = []
        times, kinds, fields = chunk[0::3], chunk[1::3], chunk[2::3]
        try:
            times = array("d", times)
        except (TypeError, OverflowError):
            for time, kind in zip(times, kinds):
                try:
                    array("d", [time])
                except (TypeError, OverflowError):
                    raise ValueError(
                        f"trace kind {kind!r} field 'time': {time!r} is not "
                        "a number"
                    ) from None
        # Kinds new to the trace take the next ids, in chunk order.
        lookup = self._kind_lookup
        new_kinds = [kind for kind in dict.fromkeys(kinds) if kind not in lookup]
        if new_kinds:
            lookup = dict(lookup)
            lookup.update(zip(new_kinds, count(len(self._kind_names))))
        kind_ids = list(map(lookup.__getitem__, kinds))
        next_rows = [len(group.indices) for group in self._groups]
        next_rows += [0] * len(new_kinds)
        members: List[List[int]] = [[] for _ in next_rows]
        rows = []
        for offset, kind_id in enumerate(kind_ids):
            rows.append(next_rows[kind_id])
            next_rows[kind_id] += 1
            members[kind_id].append(offset)
        known = len(self._groups)
        new_groups = []
        plans = []
        for kind_id, offsets in enumerate(members):
            if not offsets:
                continue
            records = list(map(fields.__getitem__, offsets))
            if kind_id < known:
                kind, group = self._kind_names[kind_id], self._groups[kind_id]
            else:
                kind = new_kinds[kind_id - known]
                group = _KindGroup(_layout_of(kind, records[0]))
                new_groups.append(group)
            plans.append(
                (group, offsets, _columns_of(kind, group.codes, records))
            )
        last = self._times[-1] if self._times else None
        if not times_in_order(times, last):
            _refuse_times(kinds, times, last)
        # Checked: store.  New strings are interned by record, then by
        # field within the record.
        string_ids = self._string_ids
        unseen = []
        for group, offsets, columns in plans:
            for position, (code, values) in enumerate(
                zip(group.codes.values(), columns)
            ):
                if code == STR:
                    unseen.extend(
                        compress(
                            zip(offsets, repeat(position), values),
                            map(not_, map(string_ids.__contains__, values)),
                        )
                    )
        unseen.sort()
        new = dict.fromkeys(map(itemgetter(2), unseen))
        string_ids.update(zip(new, count(len(self._strings))))
        self._strings.extend(new)
        self._kind_lookup = lookup
        self._kind_names.extend(new_kinds)
        self._groups.extend(new_groups)
        start = len(self._times)
        for group, offsets, columns in plans:
            group.indices.fromlist([start + offset for offset in offsets])
            for (name, code), values in zip(group.codes.items(), columns):
                column = group.columns[name]
                if code == STR:
                    column.fromlist(list(map(string_ids.__getitem__, values)))
                else:
                    column.extend(values)
        self._times.extend(times)
        self._kind_ids.fromlist(kind_ids)
        self._rows.fromlist(rows)

    def __len__(self) -> int:
        self._flush()
        return len(self._times)

    def __iter__(self) -> Iterator[TraceRecord]:
        self._flush()
        streams = [self._records(kind_id) for kind_id in range(len(self._groups))]
        return map(next, map(streams.__getitem__, self._kind_ids))

    def _values(self, group: _KindGroup, name: str):
        """``group``'s ``name`` values decoded, ``None`` for every row when
        the kind has no such field (as ``TraceRecord.get`` reads it)."""
        column = group.columns.get(name)
        if column is None:
            return repeat(None, len(group.indices))
        if group.codes[name] == STR:
            return map(self._strings.__getitem__, column)
        return column

    def _records(self, kind_id: int) -> Iterator[TraceRecord]:
        """One kind's records, in record order, walked off its columns."""
        group = self._groups[kind_id]
        names = list(group.columns)
        values = [self._values(group, name) for name in names]
        rows = zip(*values) if values else repeat((), len(group.indices))
        return map(
            TraceRecord,
            map(self._times.__getitem__, group.indices),
            repeat(self._kind_names[kind_id]),
            map(dict, map(zip, repeat(names), rows)),
        )

    def _materialise(self, index: int) -> TraceRecord:
        kind_id = self._kind_ids[index]
        group = self._groups[kind_id]
        row = self._rows[index]
        return TraceRecord(
            time=self._times[index],
            kind=self._kind_names[kind_id],
            fields={
                name: self._strings[column[row]]
                if group.codes[name] == STR
                else column[row]
                for name, column in group.columns.items()
            },
        )

    # ------------------------------------------------------------------
    # Queries (TraceRecorder API)
    # ------------------------------------------------------------------
    def of_kind(self, kind: str) -> List[TraceRecord]:
        """All records of one kind, in insertion (= time) order."""
        self._flush()
        kind_id = self._kind_lookup.get(kind)
        if kind_id is None:
            return []
        return list(self._records(kind_id))

    def where(self, predicate: Callable[[TraceRecord], bool]) -> List[TraceRecord]:
        """All records matching an arbitrary predicate."""
        return list(filter(predicate, self))

    def kinds(self) -> Dict[str, int]:
        """Histogram of record kinds (insertion order, like the list
        recorder's)."""
        self._flush()
        return {
            self._kind_names[kind_id]: len(self._groups[kind_id].indices)
            for kind_id in dict.fromkeys(self._kind_ids)
        }

    def last(self, kind: Optional[str] = None) -> Optional[TraceRecord]:
        """Most recent record (optionally of one kind), or ``None``."""
        self._flush()
        if kind is None:
            if not self._times:
                return None
            return self._materialise(len(self._times) - 1)
        kind_id = self._kind_lookup.get(kind)
        if kind_id is None or not self._groups[kind_id].indices:
            return None
        return self._materialise(self._groups[kind_id].indices[-1])

    # ------------------------------------------------------------------
    # Columnar extras (beyond the TraceRecorder API)
    # ------------------------------------------------------------------
    def times(self) -> array:
        """All record timestamps, as a copy of the packed ``array('d')``."""
        self._flush()
        return self._times[:]

    def column(self, kind: str, field: str):
        """One ``(kind, field)`` column as a flat copy: float and int
        columns as packed stdlib ``array`` copies, string columns as a
        list of decoded strings."""
        self._flush()
        kind_id = self._kind_lookup.get(kind)
        if kind_id is None:
            raise KeyError(f"no records of kind {kind!r}")
        group = self._groups[kind_id]
        if field not in group.columns:
            raise KeyError(f"kind {kind!r} has no field {field!r}")
        if group.codes[field] == STR:
            return list(self._values(group, field))
        return group.columns[field][:]

    def rows(self, kinds: Sequence[str], fields: Sequence[str]) -> Iterator[tuple]:
        """``(index, kind, time, *values)`` of every record of ``kinds``,
        in record order, read straight from the columns.

        ``values`` holds one decoded value per name in ``fields``, ``None``
        where the record's kind has no such field (as ``TraceRecord.get``
        reads it).  No record is materialised: a walk of the kind ids
        takes the next row of each wanted kind's columns, so the query
        holds no more than one row at a time.
        """
        self._flush()
        times = self._times
        streams = {}
        for kind in kinds:
            kind_id = self._kind_lookup.get(kind)
            if kind_id is None:
                continue
            group = self._groups[kind_id]
            streams[kind_id] = zip(
                group.indices,
                repeat(kind),
                map(times.__getitem__, group.indices),
                *(self._values(group, name) for name in fields),
            )
        wanted = filter(streams.__contains__, self._kind_ids)
        return map(next, map(streams.__getitem__, wanted))

    def nbytes(self) -> int:
        """Approximate resident payload bytes (buffers + string table).

        Python object overhead of the recorder itself and the intern
        dicts is excluded; this is the figure the trace benchmark's
        bytes/event guardrail tracks alongside the allocator-measured
        total.
        """
        self._flush()
        buffers = [self._times, self._kind_ids, self._rows]
        for group in self._groups:
            buffers.append(group.indices)
            buffers.extend(group.columns.values())
        total = sum(values.itemsize * len(values) for values in buffers)
        return total + sum(len(s.encode()) for s in self._strings)

    @classmethod
    def from_records(cls, records) -> "ColumnarTrace":
        """Build a columnar trace from any iterable of trace records
        (e.g. a list-backed :class:`TraceRecorder`)."""
        trace = cls()
        for record in records:
            trace.record(record.time, record.kind, **record.fields)
        return trace
