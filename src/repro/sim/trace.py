"""Structured execution tracing.

Every scheduler decision and GPU event of interest is appended to a
:class:`TraceRecorder` as a :class:`TraceRecord`.  Traces serve three
purposes: debugging scheduler behaviour, asserting fine-grained properties in
tests (e.g. "no more than four stages were ever resident in a context"), and
producing the per-run summaries the analysis package renders.

A recorder keeps every record it is given; there is no switch to disable
or filter it.  An untraced run simply has no recorder: ``run_simulation``
builds one only when ``RunConfig.record_trace`` is set, and it is always
the columnar :class:`~repro.sim.trace_columnar.ColumnarTrace`, which
keeps one layout per kind (the fields and value types of the kind's
first record, every later record the same) in typed columns.
:class:`TraceRecorder` here is the plain list of records that recorder
is checked against: it stores any fields as given.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional


class TraceRecord(NamedTuple):
    """One trace entry.

    A named tuple: iterating a columnar trace or taking one kind of it
    builds one per record, and a tuple takes its fields in one step where
    a frozen dataclass pays an ``object.__setattr__`` call per field.

    Attributes
    ----------
    time:
        Simulated timestamp of the event (seconds).
    kind:
        Event category, e.g. ``"stage_dispatch"`` or ``"job_complete"``.
    fields:
        Free-form payload describing the event.  Required: a tuple field
        cannot default to a fresh mutable dict.
    """

    time: float
    kind: str
    fields: Dict[str, Any]

    def get(self, key: str, default: Any = None) -> Any:
        """Return ``fields[key]`` or ``default``."""
        return self.fields.get(key, default)


class TraceRecorder:
    """Append-only trace with cheap filtering."""

    def __init__(self) -> None:
        self._records: List[TraceRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def record(self, time: float, kind: str, **fields: Any) -> None:
        """Append a record."""
        self._records.append(TraceRecord(time=time, kind=kind, fields=fields))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def of_kind(self, kind: str) -> List[TraceRecord]:
        """All records of one kind, in insertion (= time) order."""
        return [r for r in self._records if r.kind == kind]

    def where(self, predicate: Callable[[TraceRecord], bool]) -> List[TraceRecord]:
        """All records matching an arbitrary predicate."""
        return [r for r in self._records if predicate(r)]

    def kinds(self) -> Dict[str, int]:
        """Histogram of record kinds."""
        out: Dict[str, int] = {}
        for record in self._records:
            out[record.kind] = out.get(record.kind, 0) + 1
        return out

    def last(self, kind: Optional[str] = None) -> Optional[TraceRecord]:
        """Most recent record (optionally of one kind), or ``None``."""
        if kind is None:
            return self._records[-1] if self._records else None
        for record in reversed(self._records):
            if record.kind == kind:
                return record
        return None
