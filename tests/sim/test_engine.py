"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.clock import validate_time
from repro.sim.engine import SimulationEngine, SimulationError


class TestScheduling:
    def test_starts_at_zero(self):
        assert SimulationEngine().now == 0.0

    def test_custom_start_time(self):
        assert SimulationEngine(start_time=5.0).now == 5.0

    def test_negative_start_time_rejected(self):
        with pytest.raises(ValueError):
            SimulationEngine(start_time=-1.0)

    def test_schedule_advances_clock_on_fire(self):
        engine = SimulationEngine()
        engine.schedule(2.5, lambda: None)
        engine.run()
        assert engine.now == 2.5

    def test_schedule_at_absolute_time(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(3.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [3.0]

    def test_negative_delay_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.schedule(-0.1, lambda: None)

    def test_schedule_in_past_rejected(self):
        engine = SimulationEngine()
        engine.schedule(1.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(0.5, lambda: None)

    def test_zero_delay_fires_same_instant(self):
        engine = SimulationEngine()
        order = []
        def outer():
            order.append("outer")
            engine.schedule(0.0, lambda: order.append("inner"))
        engine.schedule(1.0, outer)
        engine.run()
        assert order == ["outer", "inner"]
        assert engine.now == 1.0

    def test_nan_time_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(ValueError):
            engine.schedule_at(float("nan"), lambda: None)

    def test_infinite_time_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(ValueError):
            engine.schedule_at(float("inf"), lambda: None)


class TestClockIsAFloat:
    """Every time the engine keeps is the ``float`` ``validate_time``
    returns: an ``int`` is converted, a ``bool`` refused."""

    def test_int_event_time_becomes_float(self):
        engine = SimulationEngine()
        event = engine.schedule_at(2, lambda: None)
        assert type(event.time) is float
        engine.run()
        assert engine.now == 2.0 and type(engine.now) is float

    def test_int_horizon_becomes_float(self):
        engine = SimulationEngine()
        engine.run_until(3)
        assert engine.now == 3.0 and type(engine.now) is float

    def test_int_start_time_becomes_float(self):
        assert type(SimulationEngine(start_time=5).now) is float

    def test_bool_event_time_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(TypeError, match="when must be a number, got bool"):
            engine.schedule_at(True, lambda: None)
        assert engine.pending_count == 0
        engine.run()
        assert engine.now == 0.0 and type(engine.now) is float

    def test_bool_horizon_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(TypeError, match="horizon must be a number, got bool"):
            engine.run_until(True)
        assert engine.now == 0.0 and type(engine.now) is float

    def test_bool_start_time_rejected(self):
        with pytest.raises(TypeError, match="start_time"):
            SimulationEngine(start_time=True)

    @pytest.mark.parametrize(
        "when",
        [float("nan"), float("inf"), float("-inf"), -1.0, -1, "soon", None, True],
    )
    def test_bad_event_times_raise_what_validate_time_raises(self, when):
        with pytest.raises((TypeError, ValueError)) as expected:
            validate_time(when, "when")
        with pytest.raises(expected.type) as raised:
            SimulationEngine().schedule_at(when, lambda: None)
        assert str(raised.value) == str(expected.value)


class TestOrdering:
    def test_events_fire_in_time_order(self):
        engine = SimulationEngine()
        fired = []
        for delay in (3.0, 1.0, 2.0):
            engine.schedule(delay, lambda d=delay: fired.append(d))
        engine.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_same_time_fifo_order(self):
        engine = SimulationEngine()
        fired = []
        for index in range(10):
            engine.schedule(1.0, lambda i=index: fired.append(i))
        engine.run()
        assert fired == list(range(10))

    def test_deterministic_across_runs(self):
        def run_once():
            engine = SimulationEngine()
            fired = []
            for index in range(20):
                engine.schedule((index * 7) % 5 * 0.1, lambda i=index: fired.append(i))
            engine.run()
            return fired
        assert run_once() == run_once()


class TestReservedStamps:
    def test_reserve_pushes_nothing(self):
        engine = SimulationEngine()
        assert [engine.reserve_seq() for _ in range(3)] == [0, 1, 2]
        assert engine.scheduled_count == 0
        assert engine.pending_count == 0
        assert engine.schedule_at(1.0, lambda: None).seq == 3

    def test_stamp_orders_same_time_events_by_reservation(self):
        # A push with an older stamp fires before a same-time event that
        # was scheduled before the push but after the reservation.
        engine = SimulationEngine()
        fired = []
        stamp = engine.reserve_seq()
        engine.schedule_at(1.0, lambda: fired.append("scheduled"))
        engine.schedule_at_seq(1.0, stamp, lambda: fired.append("reserved"))
        engine.run()
        assert fired == ["reserved", "scheduled"]

    def test_stamp_can_be_pushed_again_after_cancel(self):
        engine = SimulationEngine()
        fired = []
        stamp = engine.reserve_seq()
        engine.cancel(engine.schedule_at_seq(2.0, stamp, lambda: fired.append(1)))
        engine.schedule_at_seq(2.0, stamp, lambda: fired.append(2))
        assert engine.scheduled_count == 2
        assert engine.pending_count == 1
        engine.run()
        assert fired == [2]
        assert engine.processed_count == 1

    def test_repushed_stamp_fires_at_its_reserved_position(self):
        """A stamp pushed again after its cancel sorts among same-time
        events by the stamp, not by the push."""
        engine = SimulationEngine()
        fired = []
        for index in range(40):
            when = (index * 7) % 10 / 10
            engine.schedule_at(when, lambda i=index: fired.append(i))
        stamp = engine.reserve_seq()
        engine.cancel(engine.schedule_at_seq(0.5, stamp, lambda: None))
        engine.schedule_at(0.5, lambda: fired.append("later"))
        engine.schedule_at_seq(0.5, stamp, lambda: fired.append("again"))
        assert engine.pending_count == len(engine._heap) == 42
        engine.run()
        # 20 events before 0.5 and the 4 earlier-stamped ones at 0.5
        assert len(fired) == 42 and fired.index("again") == 24
        assert fired.index("later") == 25
        assert engine.pending_count == len(engine._heap) == 0

    @pytest.mark.parametrize("stamp", [-1, 1, 5])
    def test_unreserved_stamp_rejected(self, stamp):
        engine = SimulationEngine()
        engine.reserve_seq()
        with pytest.raises(SimulationError, match="unreserved"):
            engine.schedule_at_seq(1.0, stamp, lambda: None)
        assert engine.scheduled_count == 0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = SimulationEngine()
        fired = []
        event = engine.schedule(1.0, lambda: fired.append(1))
        engine.cancel(event)
        engine.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        engine = SimulationEngine()
        event = engine.schedule(1.0, lambda: None)
        engine.cancel(event)
        engine.cancel(event)
        assert engine.pending_count == 0

    def test_pending_count_excludes_cancelled(self):
        engine = SimulationEngine()
        keep = engine.schedule(1.0, lambda: None)
        drop = engine.schedule(2.0, lambda: None)
        engine.cancel(drop)
        assert engine.pending_count == 1
        engine.run()
        assert engine.pending_count == 0
        assert engine.processed_count == 1

    def test_cancel_mid_run(self):
        engine = SimulationEngine()
        fired = []
        later = engine.schedule(2.0, lambda: fired.append("later"))
        engine.schedule(1.0, lambda: engine.cancel(later))
        engine.run()
        assert fired == []

    def test_cancel_after_fire_is_a_noop(self):
        # A fired event is no longer in the heap; cancelling it must not
        # touch the pending count.
        engine = SimulationEngine()
        event = engine.schedule(1.0, lambda: None)
        engine.run()
        engine.cancel(event)
        engine.cancel(event)
        assert engine.pending_count == 0
        engine.schedule(1.0, lambda: None)
        assert engine.pending_count == 1


    def test_cancel_of_another_engines_event_raises(self):
        """An event pending in one engine cannot be cancelled through
        another, not even next to a look-alike with the same fields."""
        def action():
            pass

        a, b = SimulationEngine(), SimulationEngine()
        event = a.schedule_at(1.0, action, "x")
        twin = b.schedule_at(1.0, action, "x")
        with pytest.raises(SimulationError, match="'x'"):
            b.cancel(event)
        assert not event.cancelled and not twin.cancelled
        assert a.pending_count == b.pending_count == 1
        assert a.run() == b.run() == 1
        assert a.pending_count == b.pending_count == 0


class TestHeapHoldsOnlyPendingEvents:
    """A cancel takes the event out of the heap at once."""

    def test_cancelling_a_majority_leaves_only_the_survivors(self):
        engine = SimulationEngine()
        events = [engine.schedule(float(i + 1), lambda: None)
                  for i in range(64)]
        for event in events[:33]:
            engine.cancel(event)
        assert engine.pending_count == len(engine._heap) == 31
        assert engine.compaction_count == 0
        assert engine.peek_time() == 34.0

    def test_survivors_fire_in_time_seq_order(self):
        engine = SimulationEngine()
        fired = []
        keep = []
        for index in range(128):
            when = ((index * 37) % 100) * 0.1
            event = engine.schedule(when, lambda i=index: fired.append(i))
            if index % 3 == 0:
                keep.append((when, event.seq, index))
            else:
                engine.cancel(event)
        assert engine.pending_count == len(engine._heap) == len(keep)
        engine.run()
        assert fired == [index for _, _, index in sorted(keep)]

    def test_cancel_remains_idempotent_after_removal(self):
        engine = SimulationEngine()
        events = [engine.schedule(float(i + 1), lambda: None)
                  for i in range(64)]
        doomed = events[:33]
        for event in doomed:
            engine.cancel(event)
        for event in doomed:  # second cancel after the entry is gone
            engine.cancel(event)
        assert engine.pending_count == len(events) - len(doomed)
        assert engine.run() == len(events) - len(doomed)


class TestRunUntil:
    def test_stops_at_horizon(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(5.0, lambda: fired.append(5))
        engine.run_until(3.0)
        assert fired == [1]
        assert engine.now == 3.0
        assert engine.pending_count == 1

    def test_event_exactly_at_horizon_fires(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(3.0, lambda: fired.append(3))
        engine.run_until(3.0)
        assert fired == [3]

    def test_event_half_eps_beyond_horizon_stays_queued(self):
        from repro.sim.clock import TIME_EPS

        engine = SimulationEngine()
        fired = []
        engine.schedule_at(3.0 + TIME_EPS / 2, lambda: fired.append("late"))
        engine.run_until(3.0)
        # the boundary is exact-or-under: the clock must never pass the
        # horizon and then be forced back down over a fired event
        assert fired == []
        assert engine.now == 3.0
        assert engine.pending_count == 1
        engine.run()
        assert fired == ["late"]

    def test_event_half_eps_before_horizon_fires(self):
        from repro.sim.clock import TIME_EPS

        engine = SimulationEngine()
        fired = []
        engine.schedule_at(3.0 - TIME_EPS / 2, lambda: fired.append("early"))
        engine.run_until(3.0)
        assert fired == ["early"]
        assert engine.now == 3.0

    def test_horizon_before_now_rejected(self):
        engine = SimulationEngine()
        engine.schedule(2.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.run_until(1.0)

    def test_clock_set_to_horizon_when_idle(self):
        engine = SimulationEngine()
        engine.run_until(10.0)
        assert engine.now == 10.0

    def test_max_events_limit(self):
        engine = SimulationEngine()
        for index in range(10):
            engine.schedule(0.1 * (index + 1), lambda: None)
        fired = engine.run_until(100.0, max_events=3)
        assert fired == 3
        assert engine.pending_count == 7

    def test_max_events_stop_does_not_jump_clock_past_due_events(self):
        # stopping on max_events with sub-horizon events still queued must
        # leave the clock at the last fired event, so the remaining events
        # later fire with their own (correct) timestamps
        engine = SimulationEngine()
        times = []
        for index in range(5):
            engine.schedule(0.1 * (index + 1), lambda: times.append(engine.now))
        fired = engine.run_until(100.0, max_events=2)
        assert fired == 2
        assert engine.now == pytest.approx(0.2)
        engine.run()
        assert times == [pytest.approx(0.1 * (i + 1)) for i in range(5)]

    def test_max_events_stop_at_drained_queue_still_reaches_horizon(self):
        engine = SimulationEngine()
        engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        fired = engine.run_until(5.0, max_events=2)
        assert fired == 2
        assert engine.now == 5.0  # limit hit, but nothing due remained

    def test_returns_event_count(self):
        engine = SimulationEngine()
        for index in range(5):
            engine.schedule(0.1 * (index + 1), lambda: None)
        assert engine.run_until(1.0) == 5


class TestIntrospection:
    def test_peek_time(self):
        engine = SimulationEngine()
        engine.schedule(2.0, lambda: None)
        engine.schedule(1.0, lambda: None)
        assert engine.peek_time() == 1.0

    def test_peek_time_empty(self):
        assert SimulationEngine().peek_time() is None

    def test_peek_skips_cancelled(self):
        engine = SimulationEngine()
        first = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        engine.cancel(first)
        assert engine.peek_time() == 2.0

    def test_processed_count(self):
        engine = SimulationEngine()
        for index in range(4):
            engine.schedule(0.1, lambda: None)
        engine.run()
        assert engine.processed_count == 4

    def test_step_returns_false_when_empty(self):
        assert SimulationEngine().step() is False


class TestReentrancy:
    def test_action_can_schedule_more_events(self):
        engine = SimulationEngine()
        fired = []
        def chain(depth):
            fired.append(depth)
            if depth < 5:
                engine.schedule(1.0, lambda: chain(depth + 1))
        engine.schedule(1.0, lambda: chain(0))
        engine.run()
        assert fired == [0, 1, 2, 3, 4, 5]
        assert engine.now == 6.0

    def test_run_with_max_events(self):
        engine = SimulationEngine()
        def rearm():
            engine.schedule(1.0, rearm)
        engine.schedule(1.0, rearm)
        fired = engine.run(max_events=50)
        assert fired == 50
        assert engine.now == 50.0
