"""Array-backed columnar trace recorder.

:class:`~repro.sim.trace.TraceRecorder` keeps one frozen dataclass plus
one dict per event — convenient, but a million-event run (which
overloaded pools and open-system arrivals readily produce) costs
hundreds of bytes per event and pushes large sweeps into
``record_trace=False`` blindness.  :class:`ColumnarTrace` stores the
same stream as flat per-column arrays instead:

* event **kinds are interned** to small integer ids;
* ``time`` / kind id / per-kind row bookkeeping live in stdlib
  :mod:`array` buffers (8 + 4 + 8 + 8 bytes per event);
* each ``(kind, field)`` pair gets its own typed column — ``float`` and
  ``int`` values in packed arrays, strings interned through one shared
  string table, anything else in a per-column object list fallback;
* records returned by the query API are **lazy views**: a real
  :class:`~repro.sim.trace.TraceRecord` is materialised only when a
  record is actually iterated or filtered, so holding a trace is cheap
  and reading one is unchanged; :meth:`ColumnarTrace.rows` reads chosen
  fields of chosen kinds straight from the columns, materialising
  nothing.

**Recording is chunked.**  :meth:`ColumnarTrace.record` only appends to a
pending chunk of :data:`CHUNK_RECORDS` records, which is columnarised
when it fills or when anything reads the trace (every query, ``len``,
:meth:`~ColumnarTrace.nbytes` and :func:`repro.sim.trace_io.trace_to_bytes`
flush it first).  A chunk whose records all carry exactly their kind's
columns, with values of exactly the column's type, is appended in bulk,
one column at a time; any other chunk (a missing or new field, a type
clash, a bool in a typed column, an int beyond 64 bits) goes through the
per-record path.  Strings are interned in record order either way, so
the stored columns, the string table and the serialised bytes are those
of feeding the records one at a time.  A record the per-record path
refuses (a time that is not a number) raises at that flush, not at its
``record`` call.

The class is drop-in API-compatible with :class:`TraceRecorder`
(``record`` / ``__iter__`` / ``__len__`` / ``of_kind`` / ``where`` /
``kinds`` / ``last``), selectable per run via
``RunConfig(trace_backend="columnar")``, and the payload round-trips to
disk through :mod:`repro.sim.trace_io`.
"""

from __future__ import annotations

from array import array
from itertools import compress, count, repeat
from operator import itemgetter, not_
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.sim.trace import TraceRecord

#: Column type codes: packed float64, packed int64, interned string ids,
#: or an arbitrary-object list fallback (also used after a type clash).
FLOAT, INT, STR, OBJECT = "f", "i", "s", "o"

_TYPECODES = {FLOAT: "d", INT: "q", STR: "i"}
_FILLERS = {FLOAT: 0.0, INT: 0, STR: -1}
#: The one value type a typed column takes in a bulk append (a bool is
#: an int subclass, so it never passes as an ``INT`` value).
_EXACT_TYPES = {FLOAT: float, INT: int, STR: str}

#: Records :meth:`ColumnarTrace.record` buffers before it columnarises
#: them together.
CHUNK_RECORDS = 4096
#: The pending chunk is one flat list, three slots per record: a tuple
#: per record would be one more object the cycle collector counts.
_CHUNK_SLOTS = 3 * CHUNK_RECORDS


class _Column:
    """One ``(kind, field)`` value column, dense over its kind's rows.

    ``present`` is a parallel 0/1 byte per row: kinds whose field sets
    vary between records stay representable (a missing field simply
    reads back as absent from the materialised ``fields`` dict).
    """

    __slots__ = ("code", "values", "present")

    def __init__(self, code: str, rows_before: int = 0) -> None:
        self.code = code
        self.values = (
            array(_TYPECODES[code]) if code in _TYPECODES else []
        )
        self.present = array("b")
        for _ in range(rows_before):
            self.append_missing()

    def append_missing(self) -> None:
        self.present.append(0)
        if self.code == OBJECT:
            self.values.append(None)
        else:
            self.values.append(_FILLERS[self.code])

    def to_object(self, trace: "ColumnarTrace") -> None:
        """Demote to the object fallback (on a value/type clash)."""
        decoded = [
            trace._decode(self.code, value) if flag else None
            for value, flag in zip(self.values, self.present)
        ]
        self.code = OBJECT
        self.values = decoded


def _code_for(value: Any) -> str:
    # bool subclasses int: route it to the object column so it reads
    # back as a bool, not 0/1
    if isinstance(value, bool):
        return OBJECT
    if isinstance(value, int):
        return INT
    if isinstance(value, float):
        return FLOAT
    if isinstance(value, str):
        return STR
    return OBJECT


class _KindGroup:
    """All rows of one interned kind: global indices + field columns."""

    __slots__ = ("kind_id", "rows", "indices", "columns")

    def __init__(self, kind_id: int) -> None:
        self.kind_id = kind_id
        self.rows = 0
        #: Global record index of each row (for ``of_kind`` ordering).
        self.indices = array("q")
        #: Field name -> column, in first-seen order.
        self.columns: Dict[str, _Column] = {}

    def append(
        self, index: int, fields: Dict[str, Any], trace: "ColumnarTrace"
    ) -> None:
        self.indices.append(index)
        seen = 0
        for name, column in self.columns.items():
            value = fields.get(name)
            if value is None and name not in fields:
                column.append_missing()
                continue
            seen += 1
            self._append_value(column, value, trace)
        if seen != len(fields):
            for name, value in fields.items():
                if name in self.columns:
                    continue
                column = _Column(_code_for(value), rows_before=self.rows)
                self.columns[name] = column
                self._append_value(column, value, trace)
        self.rows += 1

    def _append_value(
        self, column: _Column, value: Any, trace: "ColumnarTrace"
    ) -> None:
        code = _code_for(value)
        if column.code != code and column.code != OBJECT:
            column.to_object(trace)
        column.present.append(1)
        if column.code == OBJECT:
            column.values.append(value)
        elif code == STR:
            column.values.append(trace._intern(value))
        else:
            try:
                column.values.append(value)
            except OverflowError:  # int beyond 64 bits
                column.to_object(trace)
                column.values.append(value)

    def bulk_plan(
        self, fields: Sequence[Dict[str, Any]]
    ) -> Optional[List[Tuple[str, str, Any]]]:
        """``(name, code, values)`` per column to append records with
        these ``fields`` in bulk.

        ``None`` when any record's field names differ from this group's
        columns or a value is not exactly its column's type: those records
        need the per-record path (presence bytes, demotion).  A kind's
        first records lay out its columns from the first one, as
        :meth:`append` would.  Typed values come back packed, strings as
        they are (they are interned in record order across kinds).
        """
        if self.columns or self.rows:
            layout = [(name, column.code) for name, column in self.columns.items()]
        else:
            layout = [(name, _code_for(value)) for name, value in fields[0].items()]
        # every record holds each column's name and nothing else
        if set(map(len, fields)) != {len(layout)}:
            return None
        plan = []
        for name, code in layout:
            try:
                values = list(map(itemgetter(name), fields))
            except KeyError:
                return None
            if code != OBJECT:
                if set(map(type, values)) != {_EXACT_TYPES[code]}:
                    return None
                if code != STR:
                    try:
                        values = array(_TYPECODES[code], values)
                    except OverflowError:  # int beyond 64 bits
                        return None
            plan.append((name, code, values))
        return plan

    def extend(
        self,
        indices: List[int],
        plan: List[Tuple[str, str, Any]],
        string_ids: Dict[str, int],
    ) -> None:
        """Append the rows a :meth:`bulk_plan` laid out, every field
        present; their strings must be interned already."""
        self.indices.fromlist(indices)
        present = b"\x01" * len(indices)
        for name, code, values in plan:
            column = self.columns.get(name)
            if column is None:
                column = self.columns[name] = _Column(code)
            column.present.frombytes(present)
            if code == STR:
                column.values.fromlist(list(map(string_ids.__getitem__, values)))
            else:
                column.values.extend(values)
        self.rows += len(indices)

    def fields_at(self, row: int, trace: "ColumnarTrace") -> Dict[str, Any]:
        return {
            name: trace._decode(column.code, column.values[row])
            for name, column in self.columns.items()
            if column.present[row]
        }


class ColumnarTrace:
    """Columnar drop-in for :class:`~repro.sim.trace.TraceRecorder`.

    Same constructor signature and query API; identical query results
    record-for-record (pinned by the recorder-equivalence tests).  See
    the module docstring for the storage layout.
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
    # Interning helpers
    # ------------------------------------------------------------------
    def _intern(self, value: str) -> int:
        interned = self._string_ids.get(value)
        if interned is None:
            interned = len(self._strings)
            self._string_ids[value] = interned
            self._strings.append(value)
        return interned

    def _decode(self, code: str, value: Any) -> Any:
        return self._strings[value] if code == STR else value

    def _kind_id(self, kind: str) -> int:
        kind_id = self._kind_lookup.get(kind)
        if kind_id is None:
            kind_id = len(self._kind_names)
            self._kind_lookup[kind] = kind_id
            self._kind_names.append(kind)
            self._groups.append(_KindGroup(kind_id))
        return kind_id

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
        """Columnarise the pending chunk; every reader calls this first."""
        chunk = self._pending
        if not chunk:
            return
        self._pending = []
        times, kinds, fields = chunk[0::3], chunk[1::3], chunk[2::3]
        if not self._append_chunk(times, kinds, fields):
            for record in zip(times, kinds, fields):
                self._append(*record)

    def _append(self, time: float, kind: str, fields: Dict[str, Any]) -> None:
        """The per-record path: one record, any field set and types."""
        group = self._groups[self._kind_id(kind)]
        self._times.append(time)
        self._kind_ids.append(group.kind_id)
        self._rows.append(group.rows)
        group.append(len(self._times) - 1, fields, self)

    def _append_chunk(
        self, times: List[float], kinds: List[str], fields: List[Dict[str, Any]]
    ) -> bool:
        """Append a chunk of records a column at a time.

        Returns ``False``, with no record appended, when some record does
        not fit its kind's columns (see :meth:`_KindGroup.bulk_plan`); the
        caller then takes the per-record path, which also interns any new
        kinds this one already did, in the same order.
        """
        try:
            times = array("d", times)
        except (TypeError, OverflowError):
            return False
        kind_ids = list(map(self._kind_lookup.get, kinds))
        if None in kind_ids:
            kind_ids = list(map(self._kind_id, kinds))
        groups = self._groups
        next_rows = [group.rows for group in groups]
        members: List[List[int]] = [[] for _ in groups]
        rows = []
        for offset, kind_id in enumerate(kind_ids):
            rows.append(next_rows[kind_id])
            next_rows[kind_id] += 1
            members[kind_id].append(offset)
        plans = []
        for group, offsets in zip(groups, members):
            if offsets:
                plan = group.bulk_plan(list(map(fields.__getitem__, offsets)))
                if plan is None:
                    return False
                plans.append((group, offsets, plan))
        # Intern new strings as the per-record path meets them: by record,
        # then by column within the record.
        string_ids = self._string_ids
        unseen = []
        for _, offsets, plan in plans:
            for position, (_, code, values) in enumerate(plan):
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
        start = len(self._times)
        for group, offsets, plan in plans:
            group.extend([start + offset for offset in offsets], plan, string_ids)
        self._times.extend(times)
        self._kind_ids.fromlist(kind_ids)
        self._rows.fromlist(rows)
        return True

    def __len__(self) -> int:
        self._flush()
        return len(self._times)

    def __iter__(self) -> Iterator[TraceRecord]:
        self._flush()
        for index in range(len(self._times)):
            yield self._materialise(index)

    def _materialise(self, index: int) -> TraceRecord:
        kind_id = self._kind_ids[index]
        group = self._groups[kind_id]
        return TraceRecord(
            time=self._times[index],
            kind=self._kind_names[kind_id],
            fields=group.fields_at(self._rows[index], self),
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
        return [self._materialise(i) for i in self._groups[kind_id].indices]

    def where(self, predicate: Callable[[TraceRecord], bool]) -> List[TraceRecord]:
        """All records matching an arbitrary predicate."""
        return [record for record in self if predicate(record)]

    def kinds(self) -> Dict[str, int]:
        """Histogram of record kinds (insertion order, like the list
        recorder's)."""
        self._flush()
        out: Dict[str, int] = {}
        for kind_id in self._kind_ids:
            name = self._kind_names[kind_id]
            out[name] = out.get(name, 0) + 1
        return out

    def last(self, kind: Optional[str] = None) -> Optional[TraceRecord]:
        """Most recent record (optionally of one kind), or ``None``."""
        self._flush()
        if kind is None:
            if not self._times:
                return None
            return self._materialise(len(self._times) - 1)
        kind_id = self._kind_lookup.get(kind)
        if kind_id is None or not self._groups[kind_id].rows:
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
        """One ``(kind, field)`` column as a flat copy.

        Float/int columns come back as packed stdlib ``array`` copies;
        string columns as a list of decoded strings; object columns as a
        copy of the raw list.  Rows where the field was absent hold the
        column's filler value — check :meth:`of_kind` when per-record
        presence matters, or :meth:`rows`, which reads ``None`` there.
        """
        self._flush()
        kind_id = self._kind_lookup.get(kind)
        if kind_id is None:
            raise KeyError(f"no records of kind {kind!r}")
        column = self._groups[kind_id].columns.get(field)
        if column is None:
            raise KeyError(f"kind {kind!r} has no field {field!r}")
        if column.code == STR:
            return [self._strings[i] for i in column.values]
        return column.values[:]

    def rows(self, kinds: Sequence[str], fields: Sequence[str]) -> Iterator[tuple]:
        """``(index, kind, time, *values)`` of every record of ``kinds``,
        in record order, read straight from the columns.

        ``values`` holds one decoded value per name in ``fields``, ``None``
        where the record lacks that field (as ``TraceRecord.get`` reads
        it).  No record is materialised: a walk of the kind ids takes the
        next row of each wanted kind's columns, so the query holds no
        more than one row at a time.
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
                *(self._field_values(group, name) for name in fields),
            )
        wanted = filter(streams.__contains__, self._kind_ids)
        return map(next, map(streams.__getitem__, wanted))

    def _field_values(self, group: _KindGroup, name: str):
        """``group``'s ``name`` values decoded, ``None`` where absent."""
        column = group.columns.get(name)
        if column is None:
            return repeat(None, group.rows)
        values, present = column.values, column.present
        if column.code == STR:
            # an absent row's -1 filler decodes to some string, masked below
            values = map(self._strings.__getitem__, values)
        if 0 in present:
            return [v if p else None for v, p in zip(values, present)]
        return values

    def nbytes(self) -> int:
        """Approximate resident payload bytes (buffers + string table).

        Python object overhead of the recorder itself and the intern
        dicts is excluded; this is the figure the trace benchmark's
        bytes/event guardrail tracks alongside the allocator-measured
        total.
        """
        self._flush()
        total = (
            self._times.itemsize * len(self._times)
            + self._kind_ids.itemsize * len(self._kind_ids)
            + self._rows.itemsize * len(self._rows)
        )
        for group in self._groups:
            total += group.indices.itemsize * len(group.indices)
            for column in group.columns.values():
                total += len(column.present)
                if isinstance(column.values, array):
                    total += column.values.itemsize * len(column.values)
                else:
                    total += 8 * len(column.values)
        total += sum(len(s.encode()) for s in self._strings)
        return total

    @classmethod
    def from_records(cls, records) -> "ColumnarTrace":
        """Build a columnar trace from any iterable of trace records
        (e.g. a list-backed :class:`TraceRecorder`)."""
        trace = cls()
        for record in records:
            trace.record(record.time, record.kind, **record.fields)
        return trace
