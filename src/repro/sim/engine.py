"""Deterministic discrete-event simulation engine.

The engine is a classic binary-heap event loop.  Four properties matter for
reproducing scheduler behaviour faithfully at speed:

* **Determinism** — events fire in ``(time, seq)`` order, where ``seq`` is
  an order stamp drawn from a monotone counter, so events scheduled for the
  same timestamp fire in the order they were scheduled.  Reruns of the same
  workload therefore produce bit-identical traces.  A client that keeps
  several provisional events and pushes only the earliest (the GPU device)
  reserves a stamp with :meth:`SimulationEngine.reserve_seq` wherever it
  would otherwise have pushed, and pushes with
  :meth:`SimulationEngine.schedule_at_seq`: the pushed event sorts among
  same-time events exactly as the skipped pushes would have.  Heap
  compaction preserves the order too: the live events' ``(time, seq)``
  keys are a total order, so a rebuilt heap pops in exactly the same order
  as the original.
* **Ordering in C** — a heap entry is a ``(time, seq, event)`` tuple, so
  every heap comparison is a tuple comparison the interpreter does without
  calling back into Python.  Two entries share ``(time, seq)`` only when a
  client re-pushed a stamp whose previous event it cancelled; only then is
  :meth:`Event.__lt__` reached, and it orders neither before the other,
  exactly as a heap of events compared by ``(time, seq)`` would.
* **Cheap cancellation** — a device moves its one provisional completion
  event whenever its earliest completion changes.  Cancelled events are
  tombstoned and skipped when popped instead of being removed from the
  heap, which keeps :meth:`SimulationEngine.cancel` amortised O(1).
  ``engine.cancel(event)`` is the only way to cancel (an event handle has
  no ``cancel`` of its own), so the pending-event accounting can never
  drift.  :meth:`~SimulationEngine.step`,
  :meth:`~SimulationEngine.run_until` and
  :meth:`~SimulationEngine.peek_time` share one pop, which drops the
  tombstones ahead of the next live event once.
* **Cheap reads** — the clock is the plain attribute
  :attr:`SimulationEngine.now`, which only the engine assigns, and
  :class:`Event` is a slotted dataclass.  A push that already carries a
  finite, non-negative ``float`` time skips :func:`validate_time`; any
  other time goes through it, so the clock is always a ``float``.
* **Bounded tombstone debt** — whenever cancelled events outnumber live
  ones, the heap is rebuilt without the tombstones (an O(n) pass paid at
  most every n cancellations, so still amortised O(1) per cancel).  Without
  compaction a workload that cancels most of what it schedules would grow
  the heap without bound and pay an ever-larger ``log n`` on every push
  and pop.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.sim.clock import TIME_EPS, validate_time


_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised when the engine is used inconsistently.

    Examples: scheduling an event in the past, or running with a negative
    horizon.
    """


@dataclass(slots=True)
class Event:
    """Handle for a scheduled event.

    Instances are created by :meth:`SimulationEngine.schedule`; user code
    only ever passes them to :meth:`SimulationEngine.cancel` or inspects
    their fields.

    Attributes
    ----------
    time:
        Absolute simulated time at which the action fires.
    seq:
        Order stamp reserved from the engine's monotone counter; ties on
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

    def __lt__(self, other: "Event") -> bool:
        """Order by ``(time, seq)``.

        Heap entries are ``(time, seq, event)`` tuples, so this runs only
        when two entries tie on both: a re-pushed stamp and its own
        tombstone, neither of which it orders before the other.
        """
        return (self.time, self.seq) < (other.time, other.seq)


class SimulationEngine:
    """Binary-heap discrete-event loop with deterministic tie-breaking.

    Parameters
    ----------
    start_time:
        Initial simulated time (seconds).  Defaults to 0.

    Attributes
    ----------
    now:
        Current simulated time in seconds, always a ``float``.  Only the
        engine assigns it; everyone else reads it.

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
        self.now = validate_time(start_time, "start_time")
        self._heap: List[Tuple[float, int, Event]] = []
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
        cancelled), through either :meth:`schedule_at` or
        :meth:`schedule_at_seq`.

        The difference between two readings measures event churn: a device
        pushes only when its earliest completion moves, not once per
        re-anchored kernel.
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
        self._pop_due(-_INF)  # due by no horizon: drops tombstones only
        if not self._heap:
            return None
        return self._heap[0][0]

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
        return self.schedule_at(self.now + max(delay, 0.0), action, tag)

    def schedule_at(
        self, when: float, action: Callable[[], None], tag: str = ""
    ) -> Event:
        """Schedule ``action`` at absolute simulated time ``when``."""
        return self.schedule_at_seq(when, self.reserve_seq(), action, tag)

    def reserve_seq(self) -> int:
        """Reserve the next order stamp without pushing an event.

        A client that keeps several provisional events and pushes only the
        earliest reserves a stamp at every point where it would otherwise
        have pushed.  Pushing later with that stamp orders the event among
        same-time events exactly as the earlier push would have, so every
        tie-break stays bit-identical.
        """
        seq = self._seq
        self._seq = seq + 1
        return seq

    def schedule_at_seq(
        self, when: float, seq: int, action: Callable[[], None], tag: str = ""
    ) -> Event:
        """Schedule ``action`` at ``when``, ordered by the reserved stamp ``seq``.

        ``seq`` must come from :meth:`reserve_seq`.  One stamp may be
        pushed again after the event carrying it was cancelled: that is how
        a client moves its one pending event back to an older provisional
        completion without changing its tie-break.
        """
        if type(when) is not float or not 0.0 <= when < _INF:
            when = validate_time(when, "when")
        now = self.now
        if when < now - TIME_EPS:
            raise SimulationError(
                f"cannot schedule event {tag!r} at {when} before now={now}"
            )
        if not 0 <= seq < self._seq:
            raise SimulationError(
                f"cannot schedule event {tag!r} with unreserved order stamp {seq}"
            )
        if when < now:
            when = now
        event = Event(when, seq, action, tag)
        self._scheduled += 1
        heapq.heappush(self._heap, (when, seq, event))
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

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next live event.

        Returns ``True`` if an event fired, ``False`` if the queue is empty.
        """
        event = self._pop_due(_INF)
        if event is None:
            return False
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
        horizon = validate_time(horizon, "horizon")
        if horizon < self.now - TIME_EPS:
            raise SimulationError(
                f"horizon {horizon} is before current time {self.now}"
            )
        pop_due = self._pop_due
        fired = 0
        while max_events is None or fired < max_events:
            event = pop_due(horizon)
            if event is None:
                break
            event.action()
            fired += 1
        else:
            next_time = self.peek_time()
            if next_time is not None and next_time <= horizon:
                # stopped by max_events with due events still queued
                return fired
        if horizon > self.now:
            self.now = horizon
        return fired

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _pop_due(self, horizon: float) -> Optional[Event]:
        """Pop the next live event if it is due by ``horizon``, dropping the
        tombstones ahead of it, and advance the clock to it.

        Returns ``None``, popping no live event, when none is due.  This is
        the engine's one pop: :meth:`step`, :meth:`run_until` and
        :meth:`peek_time` all go through it.
        """
        heap = self._heap
        while heap:
            time, _, event = heap[0]
            if event.cancelled:
                heapq.heappop(heap)
                self._cancelled_pending -= 1
                continue
            if time > horizon:
                return None
            heapq.heappop(heap)
            event.fired = True
            # Guard against clock regression: the heap invariant guarantees
            # time >= self.now up to scheduling-time validation.
            if time > self.now:
                self.now = time
            self._processed += 1
            return event
        return None

    def _compact(self) -> None:
        """Rebuild the heap without tombstones.

        Pop order is unchanged: heap order is fully determined by the
        ``(time, seq)`` comparison, a total order over live events.
        """
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled_pending = 0
        self._compactions += 1
