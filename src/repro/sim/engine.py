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
  same-time events exactly as the skipped pushes would have.
* **Ordering in C** — a heap entry is a ``(time, seq, event)`` tuple, so
  every heap comparison is a tuple comparison the interpreter does without
  calling back into Python.  No two pending entries share ``(time, seq)``,
  so the comparison never reaches the event.
* **Only pending events in the heap** — a device moves its one provisional
  completion event whenever its earliest completion changes.
  :meth:`SimulationEngine.cancel` takes the event's entry out of the heap
  at once: it finds the entry by identity, deletes it and re-heapifies.
  The heap holds one pending release per task plus one event per device,
  so both passes are short, and the heap's length is
  :attr:`SimulationEngine.pending_count`.  ``engine.cancel(event)``
  is the only way to cancel (an event handle has no ``cancel`` of its
  own), and it refuses an event that is not pending in this engine.
* **Cheap reads** — the clock is the plain attribute
  :attr:`SimulationEngine.now`, which only the engine assigns, and
  :class:`Event` is a slotted dataclass.  A push that already carries a
  finite, non-negative ``float`` time skips :func:`validate_time`; any
  other time goes through it, so the clock is always a ``float``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.sim.clock import TIME_EPS, validate_time


_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised when the engine is used inconsistently.

    Examples: scheduling an event in the past, or running with a negative
    horizon.
    """


@dataclass(slots=True, eq=False)
class Event:
    """Handle for a scheduled event.

    Instances are created by :meth:`SimulationEngine.schedule`; user code
    only ever passes them to :meth:`SimulationEngine.cancel` or inspects
    their fields.  Events compare by identity, so a lookup of one event
    never matches a look-alike.

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
    cancelled: bool = False
    #: Set by the engine the moment the event is popped to fire; a fired
    #: event is no longer in the heap, so cancelling it is a no-op.
    fired: bool = False


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

    def __init__(self, start_time: float = 0.0) -> None:
        self.now = validate_time(start_time, "start_time")
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._scheduled = 0
        self._processed = 0
        self._running = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        """Number of scheduled events that have not fired or been cancelled."""
        return len(self._heap)

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
        """Always 0: the heap holds only pending events, so it is never
        rebuilt.  Kept only because the benchmark ledger reads it as
        ``sim.engine.compactions``."""
        return 0

    def peek_time(self) -> Optional[float]:
        """Return the timestamp of the next pending event, or ``None`` if idle."""
        heap = self._heap
        return heap[0][0] if heap else None

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
        pushed again after the event carrying it was cancelled (never
        while it is pending): that is how a client moves its one pending
        event back to an older provisional completion without changing
        its tie-break.
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
        """Cancel a pending event and take it out of the heap.

        Idempotent: cancelling an event that was already cancelled or has
        fired is a no-op.  Any other event that is not pending in this
        engine raises :class:`SimulationError` and is left untouched.
        """
        if event.cancelled or event.fired:
            return
        heap = self._heap
        try:
            index = heap.index((event.time, event.seq, event))
        except ValueError:
            raise SimulationError(
                f"cannot cancel event {event.tag!r}: not pending in this engine"
            ) from None
        event.cancelled = True
        del heap[index]
        heapq.heapify(heap)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next pending event.

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
        execution with pending events still due, the clock stays at the last
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
        """Pop the next event if it is due by ``horizon`` and advance the
        clock to it; ``None`` when none is due.

        This is the engine's one pop: :meth:`step` and :meth:`run_until`
        both go through it.
        """
        heap = self._heap
        if not heap or heap[0][0] > horizon:
            return None
        time, _, event = heapq.heappop(heap)
        event.fired = True
        # Guard against clock regression: the heap invariant guarantees
        # time >= self.now up to scheduling-time validation.
        if time > self.now:
            self.now = time
        self._processed += 1
        return event
