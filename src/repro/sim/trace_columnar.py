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
  and reading one is unchanged.

The class is drop-in API-compatible with :class:`TraceRecorder`
(``record`` / ``__iter__`` / ``__len__`` / ``of_kind`` / ``where`` /
``kinds`` / ``last`` / ``clear`` / ``enabled``), selectable per run via
``RunConfig(trace_backend="columnar")``, and the payload round-trips to
disk through :mod:`repro.sim.trace_io`.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.sim.trace import TraceRecord

#: Column type codes: packed float64, packed int64, interned string ids,
#: or an arbitrary-object list fallback (also used after a type clash).
FLOAT, INT, STR, OBJECT = "f", "i", "s", "o"

_TYPECODES = {FLOAT: "d", INT: "q", STR: "i"}
_FILLERS = {FLOAT: 0.0, INT: 0, STR: -1}


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

    def __init__(self, enabled: bool = True, kinds: Optional[set] = None) -> None:
        self.enabled = enabled
        self._kinds = kinds
        self._times = array("d")
        self._kind_ids = array("i")  # kind id per record
        self._rows = array("q")  # record's row within its kind group
        self._kind_names: List[str] = []
        self._kind_lookup: Dict[str, int] = {}
        self._groups: List[_KindGroup] = []
        self._strings: List[str] = []
        self._string_ids: Dict[str, int] = {}

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

    # ------------------------------------------------------------------
    # Recording (TraceRecorder API)
    # ------------------------------------------------------------------
    def record(self, time: float, kind: str, **fields: Any) -> None:
        """Append a record unless recording is disabled or filtered out."""
        if not self.enabled:
            return
        if self._kinds is not None and kind not in self._kinds:
            return
        kind_id = self._kind_lookup.get(kind)
        if kind_id is None:
            kind_id = len(self._kind_names)
            self._kind_lookup[kind] = kind_id
            self._kind_names.append(kind)
            self._groups.append(_KindGroup(kind_id))
        group = self._groups[kind_id]
        self._times.append(time)
        self._kind_ids.append(kind_id)
        self._rows.append(group.rows)
        group.append(len(self._times) - 1, fields, self)

    def clear(self) -> None:
        """Drop all records (kind/string intern tables included)."""
        self.__init__(enabled=self.enabled, kinds=self._kinds)

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[TraceRecord]:
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
        out: Dict[str, int] = {}
        for kind_id in self._kind_ids:
            name = self._kind_names[kind_id]
            out[name] = out.get(name, 0) + 1
        return out

    def last(self, kind: Optional[str] = None) -> Optional[TraceRecord]:
        """Most recent record (optionally of one kind), or ``None``."""
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
        return self._times[:]

    def column(self, kind: str, field: str):
        """One ``(kind, field)`` column as a flat copy.

        Float/int columns come back as packed stdlib ``array`` copies;
        string columns as a list of decoded strings; object columns as a
        copy of the raw list.  Rows where the field was absent hold the
        column's filler value — check :meth:`of_kind` when per-record
        presence matters.
        """
        kind_id = self._kind_lookup.get(kind)
        if kind_id is None:
            raise KeyError(f"no records of kind {kind!r}")
        column = self._groups[kind_id].columns.get(field)
        if column is None:
            raise KeyError(f"kind {kind!r} has no field {field!r}")
        if column.code == STR:
            return [self._strings[i] for i in column.values]
        return column.values[:]

    def nbytes(self) -> int:
        """Approximate resident payload bytes (buffers + string table).

        Python object overhead of the recorder itself and the intern
        dicts is excluded; this is the figure the trace benchmark's
        bytes/event guardrail tracks alongside the allocator-measured
        total.
        """
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
