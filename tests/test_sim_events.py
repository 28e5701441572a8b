"""Unit tests for events and the event queue."""

from repro.sim.engine import Simulator
from repro.sim.events import Event, EventQueue


def _noop() -> None:
    pass


class TestEventOrdering:
    def test_earlier_time_sorts_first(self):
        a = Event(1.0, 0, _noop, ())
        b = Event(2.0, 1, _noop, ())
        assert a < b and not b < a

    def test_equal_time_breaks_by_sequence(self):
        a = Event(1.0, 0, _noop, ())
        b = Event(1.0, 1, _noop, ())
        assert a < b

    def test_cancel_is_idempotent(self):
        event = Event(1.0, 0, _noop, ())
        event.cancel()
        event.cancel()
        assert event.cancelled


class TestEventQueue:
    def test_pop_in_time_order(self):
        queue = EventQueue()
        queue.push(3.0, _noop, name="c")
        queue.push(1.0, _noop, name="a")
        queue.push(2.0, _noop, name="b")
        names = [queue.pop().name for _ in range(3)]
        assert names == ["a", "b", "c"]

    def test_fifo_at_equal_times(self):
        queue = EventQueue()
        queue.push(1.0, _noop, name="first")
        queue.push(1.0, _noop, name="second")
        queue.push(1.0, _noop, name="third")
        names = [queue.pop().name for _ in range(3)]
        assert names == ["first", "second", "third"]

    def test_pop_skips_cancelled(self):
        queue = EventQueue()
        event = queue.push(1.0, _noop, name="cancelled")
        queue.push(2.0, _noop, name="live")
        event.cancel()
        assert queue.pop().name == "live"

    def test_pop_empty_returns_none(self):
        assert EventQueue().pop() is None

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.push(5.0, _noop)
        queue.push(2.0, _noop)
        assert queue.peek_time() == 2.0

    def test_peek_time_skips_cancelled_head(self):
        queue = EventQueue()
        head = queue.push(1.0, _noop)
        queue.push(4.0, _noop)
        head.cancel()
        assert queue.peek_time() == 4.0

    def test_len_tracks_live_events(self):
        queue = EventQueue()
        assert len(queue) == 0 and not queue
        event = queue.push(1.0, _noop)
        queue.push(2.0, _noop)
        assert len(queue) == 2 and queue
        event.cancel()
        assert len(queue) == 1

    def test_args_are_passed_through(self):
        queue = EventQueue()
        collected = []
        queue.push(1.0, collected.append, args=(99,))
        event = queue.pop()
        event.callback(*event.args)
        assert collected == [99]


class TestLiveCountBookkeeping:
    """Regression tests: the live count must survive every cancel path.

    Bookkeeping lives in ``Event.cancel`` itself (the event knows its
    owning queue), so user code holding a handle can cancel directly —
    without ``Simulator.cancel`` — and ``len(queue)`` stays truthful.
    """

    def test_direct_cancel_decrements_live_count(self):
        queue = EventQueue()
        event = queue.push(1.0, _noop)
        queue.push(2.0, _noop)
        event.cancel()  # straight on the handle, no simulator involved
        assert len(queue) == 1

    def test_double_cancel_decrements_once(self):
        queue = EventQueue()
        event = queue.push(1.0, _noop)
        queue.push(2.0, _noop)
        event.cancel()
        event.cancel()
        assert len(queue) == 1

    def test_handle_then_simulator_cancel_counts_once(self):
        sim = Simulator()
        event = sim.schedule(1.0, _noop)
        sim.schedule(2.0, _noop)
        event.cancel()
        sim.cancel(event)  # the same event again, through the simulator
        assert len(sim.queue) == 1

    def test_cancel_after_pop_does_not_touch_live_count(self):
        """Cancelling an already-fired event must not drift the count."""
        queue = EventQueue()
        event = queue.push(1.0, _noop)
        queue.push(2.0, _noop)
        assert queue.pop() is event
        assert len(queue) == 1
        event.cancel()  # fired already — a late cancel is a no-op
        assert len(queue) == 1

    def test_pop_until_respects_horizon_and_live_count(self):
        queue = EventQueue()
        queue.push(1.0, _noop, name="early")
        queue.push(5.0, _noop, name="late")
        assert queue.pop_until(2.0).name == "early"
        assert queue.pop_until(2.0) is None  # "late" stays queued
        assert len(queue) == 1
        assert queue.pop_until(10.0).name == "late"
        assert len(queue) == 0

    def test_pop_until_skips_cancelled_head(self):
        queue = EventQueue()
        head = queue.push(1.0, _noop)
        queue.push(1.5, _noop, name="live")
        head.cancel()
        assert queue.pop_until(2.0).name == "live"
        assert queue.pop_until(2.0) is None


class TestTimestampBuckets:
    """Same-deadline cohorts share one heap entry (the wakeup batching)."""

    def test_coalesced_counters_track_shared_deadlines(self):
        queue = EventQueue()
        queue.push(1.0, _noop)
        assert queue.coalesced_pushes == 0  # first at its timestamp: a sift
        queue.push(1.0, _noop)
        queue.push(1.0, _noop)
        queue.push(2.0, _noop)
        assert queue.coalesced_pushes == 2
        for _ in range(4):
            queue.pop()
        # every pop but a bucket's last is served without a heap traversal
        assert queue.coalesced_pops == 2

    def test_one_heap_entry_per_distinct_timestamp(self):
        queue = EventQueue()
        for _ in range(5):
            queue.push(1.0, _noop)
        for _ in range(3):
            queue.push(2.0, _noop)
        assert len(queue._heap) == 2
        assert len(queue) == 8

    def test_bucket_fifo_interleaves_with_unique_times(self):
        queue = EventQueue()
        queue.push(2.0, _noop, name="b1")
        queue.push(1.0, _noop, name="a")
        queue.push(2.0, _noop, name="b2")
        queue.push(3.0, _noop, name="c")
        queue.push(2.0, _noop, name="b3")
        names = [queue.pop().name for _ in range(5)]
        assert names == ["a", "b1", "b2", "b3", "c"]

    def test_cancelled_members_anywhere_in_a_bucket_are_skipped(self):
        queue = EventQueue()
        queue.push(1.0, _noop, name="a")
        middle = queue.push(1.0, _noop, name="b")
        queue.push(1.0, _noop, name="c")
        middle.cancel()
        assert [queue.pop().name for _ in range(2)] == ["a", "c"]
        assert queue.pop() is None
