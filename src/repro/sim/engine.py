"""Deterministic discrete-event simulation engine.

The engine is a classic binary-heap event loop.  Three properties matter for
reproducing scheduler behaviour faithfully at speed:

* **Determinism** — events scheduled for the same timestamp fire in the order
  they were scheduled (stable FIFO tie-breaking via a monotonically
  increasing sequence number).  Reruns of the same workload therefore produce
  bit-identical traces.  Heap compaction preserves this: the live events'
  ``(time, seq)`` keys are a total order, so a rebuilt heap pops in exactly
  the same order as the original.
* **Cheap cancellation** — rate-based execution re-arms provisional
  completion events whenever a kernel's rate changes.  Cancelled events are
  tombstoned and skipped when popped instead of being removed from the heap,
  which keeps :meth:`SimulationEngine.cancel` amortised O(1).  Cancellation
  goes through the engine whether it is invoked as ``engine.cancel(event)``
  or directly on the handle (``event.cancel()``), so the pending-event
  accounting can never drift.
* **Bounded tombstone debt** — whenever cancelled events outnumber live
  ones, the heap is rebuilt without the tombstones (an O(n) pass paid at
  most every n cancellations, so still amortised O(1) per cancel).  Without
  compaction a workload that cancels most of what it schedules — exactly
  what rate-based completion re-arming does — grows the heap without bound
  and pays an ever-larger ``log n`` on every push and pop.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.sim.clock import TIME_EPS, validate_time


class SimulationError(RuntimeError):
    """Raised when the engine is used inconsistently.

    Examples: scheduling an event in the past, or running with a negative
    horizon.
    """


@dataclass
class Event:
    """Handle for a scheduled event.

    Instances are created by :meth:`SimulationEngine.schedule`; user code
    only ever cancels them or inspects their fields.

    Attributes
    ----------
    time:
        Absolute simulated time at which the action fires.
    seq:
        Engine-wide monotonically increasing sequence number; ties on
        ``time`` are broken by ``seq`` so the event order is deterministic.
    action:
        Zero-argument callable invoked when the event fires.
    tag:
        Free-form label used by traces and error messages.
    """

    time: float
    seq: int
    action: Callable[[], None]
    tag: str = ""
    cancelled: bool = field(default=False, compare=False)
    #: Set by the engine the moment the event is popped to fire; a fired
    #: event is no longer in the heap, so cancelling it must not touch the
    #: pending-tombstone accounting.
    fired: bool = field(default=False, compare=False)
    #: Back-reference to the owning engine so that cancelling through the
    #: handle keeps the engine's pending-event accounting exact.
    _engine: Optional["SimulationEngine"] = field(
        default=None, repr=False, compare=False
    )

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent.

        Routes through the owning engine (when there is one) so
        ``pending_count`` and the compaction heuristics stay exact; a
        detached handle just flips its flag.
        """
        if self._engine is not None:
            self._engine.cancel(self)
        else:
            self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class SimulationEngine:
    """Binary-heap discrete-event loop with deterministic tie-breaking.

    Parameters
    ----------
    start_time:
        Initial simulated time (seconds).  Defaults to 0.

    Examples
    --------
    >>> engine = SimulationEngine()
    >>> fired = []
    >>> _ = engine.schedule(1.0, lambda: fired.append(engine.now), tag="tick")
    >>> engine.run()
    >>> fired
    [1.0]
    """

    #: Heaps smaller than this are never compacted: rebuilding a handful of
    #: events costs more bookkeeping than the tombstones it would reclaim.
    COMPACT_MIN_SIZE = 64

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = validate_time(start_time, "start_time")
        self._heap: List[Event] = []
        self._seq = 0
        self._scheduled = 0
        self._processed = 0
        self._cancelled_pending = 0
        self._compactions = 0
        self._running = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending_count(self) -> int:
        """Number of scheduled events that have not fired or been cancelled."""
        return len(self._heap) - self._cancelled_pending

    @property
    def processed_count(self) -> int:
        """Number of events that have fired since construction."""
        return self._processed

    @property
    def scheduled_count(self) -> int:
        """Number of events ever pushed onto the heap (fired, pending or
        cancelled).

        The difference between two readings measures event churn — the
        quantity the incremental device re-arming exists to minimise.
        """
        return self._scheduled

    @property
    def compaction_count(self) -> int:
        """Number of tombstone-dropping heap rebuilds performed so far."""
        return self._compactions

    @property
    def heap_size(self) -> int:
        """Current physical heap length, tombstones included."""
        return len(self._heap)

    def peek_time(self) -> Optional[float]:
        """Return the timestamp of the next live event, or ``None`` if idle."""
        self._drop_cancelled_head()
        if not self._heap:
            return None
        return self._heap[0].time

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, action: Callable[[], None], tag: str = ""
    ) -> Event:
        """Schedule ``action`` to run ``delay`` seconds from now.

        ``delay`` may be zero (the event fires later in the current instant,
        after already-queued same-time events) but not negative.
        """
        if delay < -TIME_EPS:
            raise SimulationError(
                f"cannot schedule event {tag!r} with negative delay {delay}"
            )
        return self.schedule_at(self._now + max(delay, 0.0), action, tag)

    def schedule_at(
        self, when: float, action: Callable[[], None], tag: str = ""
    ) -> Event:
        """Schedule ``action`` at absolute simulated time ``when``."""
        validate_time(when, "when")
        if when < self._now - TIME_EPS:
            raise SimulationError(
                f"cannot schedule event {tag!r} at {when} before now={self._now}"
            )
        event = Event(
            time=max(when, self._now),
            seq=self._seq,
            action=action,
            tag=tag,
            _engine=self,
        )
        self._seq += 1
        self._scheduled += 1
        heapq.heappush(self._heap, event)
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event.  Idempotent.

        Cancelling an event that already fired is a no-op: it is not in
        the heap any more, so it must not count as a pending tombstone.
        """
        if event.cancelled or event.fired:
            return
        event.cancelled = True
        self._cancelled_pending += 1
        if (
            self._cancelled_pending * 2 > len(self._heap)
            and len(self._heap) >= self.COMPACT_MIN_SIZE
        ):
            self._compact()

    def reschedule(self, event: Event) -> Event:
        """Cancel ``event`` and re-push an identical copy, preserving its
        ``(time, seq)`` heap position.

        Exists for the device's reference re-arm-everything mode: the
        re-pushed event pays the same heap churn a fresh ``schedule_at``
        would (tombstone + push) but keeps the original FIFO tie-break, so
        same-timestamp event order — and therefore traces — stay
        bit-identical to the incremental mode that never touched the event.
        The churn still counts towards :attr:`scheduled_count`.
        """
        if event.cancelled or event.fired:
            raise SimulationError(
                f"cannot reschedule {'fired' if event.fired else 'cancelled'}"
                f" event {event.tag!r}"
            )
        self.cancel(event)
        copy = Event(
            time=event.time,
            seq=event.seq,
            action=event.action,
            tag=event.tag,
            _engine=self,
        )
        # count the churn; the fresh number is deliberately NOT used (the
        # copy keeps the original seq so its tie-break position is stable)
        self._seq += 1
        self._scheduled += 1
        heapq.heappush(self._heap, copy)
        return copy

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next live event.

        Returns ``True`` if an event fired, ``False`` if the queue is empty.
        """
        self._drop_cancelled_head()
        if not self._heap:
            return False
        event = heapq.heappop(self._heap)
        event.fired = True
        # Guard against clock regression: the heap invariant guarantees
        # event.time >= self._now up to scheduling-time validation.
        if event.time > self._now:
            self._now = event.time
        self._processed += 1
        event.action()
        return True

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or ``max_events`` fired).

        Returns the number of events processed by this call.
        """
        fired = 0
        while max_events is None or fired < max_events:
            if not self.step():
                break
            fired += 1
        return fired

    def run_until(self, horizon: float, max_events: Optional[int] = None) -> int:
        """Run events with ``time <= horizon`` then set the clock to ``horizon``.

        The boundary is exact-or-under: an event even a fraction of
        ``TIME_EPS`` beyond the horizon stays queued, so the clock never has
        to rewind after firing it.  The clock only advances to ``horizon``
        once every sub-horizon event has fired — if ``max_events`` stops
        execution with live events still due, the clock stays at the last
        fired event so those events do not later run with a future
        timestamp.  Returns the number of events processed by this call.
        """
        validate_time(horizon, "horizon")
        if horizon < self._now - TIME_EPS:
            raise SimulationError(
                f"horizon {horizon} is before current time {self._now}"
            )
        fired = 0
        while max_events is None or fired < max_events:
            next_time = self.peek_time()
            if next_time is None or next_time > horizon:
                break
            self.step()
            fired += 1
        else:
            next_time = self.peek_time()
            if next_time is not None and next_time <= horizon:
                # stopped by max_events with due events still queued
                return fired
        if horizon > self._now:
            self._now = horizon
        return fired

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _drop_cancelled_head(self) -> None:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
            self._cancelled_pending -= 1

    def _compact(self) -> None:
        """Rebuild the heap without tombstones.

        Pop order is unchanged: heap order is fully determined by the
        ``(time, seq)`` comparison, a total order over live events.
        """
        self._heap = [event for event in self._heap if not event.cancelled]
        heapq.heapify(self._heap)
        self._cancelled_pending = 0
        self._compactions += 1
