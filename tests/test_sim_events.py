"""Unit tests for events and the event queue."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim.engine import Simulator
from repro.sim.events import Event, EventQueue


def _noop() -> None:
    pass


class TestEventOrdering:
    """The queue orders on ``(time, seq)``; events are never compared."""

    def test_earlier_time_sorts_first(self):
        queue = EventQueue()
        late = queue.push(2.0, _noop)
        early = queue.push(1.0, _noop)  # later seq, earlier time
        assert early.seq > late.seq
        assert queue.pop() is early and queue.pop() is late

    def test_equal_time_breaks_by_sequence(self):
        queue = EventQueue()
        a = queue.push(1.0, _noop)
        b = queue.push(1.0, _noop)
        assert a.seq < b.seq
        assert queue.pop() is a and queue.pop() is b
        with pytest.raises(TypeError):
            a < b  # noqa: B015 - the heap key settles order, not Event

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
    """Same-deadline cohorts: FIFO order, dead members, the pop counter."""

    def test_coalesced_counters_track_shared_deadlines(self):
        queue = EventQueue()
        queue.push(1.0, _noop)
        queue.push(1.0, _noop)
        queue.push(1.0, _noop)
        queue.push(2.0, _noop)
        for _ in range(4):
            queue.pop()
        # every pop but a timestamp's last leaves a same-instant entry
        assert queue.coalesced_pops == 2

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


# -- property test: the queue against a sorted-list oracle -----------------

#: few distinct instants, so most pushes share a timestamp with another
_TIMES = st.sampled_from([0.0, 1.0, 1.0, 2.5, 4.0])
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), _TIMES),
        st.tuples(st.just("cancel"), st.integers(0, 63)),
        st.tuples(st.just("pop_until"),
                  st.sampled_from([0.0, 1.0, 2.0, 2.5, 4.0, math.inf])),
    ),
    min_size=10,
    max_size=80,
)


class TestQueueAgainstOracle:
    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(ops=_OPS)
    # the popped event's only same-instant company is dead: still counted
    @example(ops=[("push", 1.0), ("push", 1.0), ("cancel", 1),
                  ("pop_until", math.inf)])
    def test_random_interleavings_match_sorted_list(self, ops):
        queue = EventQueue()
        handles = []
        # oracle rows: [time, seq, state] with state live | dead | fired
        rows = []
        oracle_coalesced = 0
        for op, arg in ops:
            if op == "push":
                handle = queue.push(arg, _noop)
                handles.append(handle)
                rows.append([arg, handle.seq, "live"])
            elif op == "cancel":
                if not handles:
                    continue
                i = arg % len(handles)
                handles[i].cancel()
                if rows[i][2] == "live":
                    rows[i][2] = "dead"
            else:
                live = sorted((r for r in rows if r[2] == "live"),
                              key=lambda r: (r[0], r[1]))
                expected = live[0] if live and live[0][0] <= arg else None
                got = queue.pop_until(arg)
                if expected is None:
                    assert got is None
                else:
                    assert got is not None
                    assert (got.time, got.seq) == (expected[0], expected[1])
                    expected[2] = "fired"
                    # a later-scheduled entry at this instant, live or
                    # dead, is still queued: none behind the popped one
                    # has left yet
                    if any(r[0] == expected[0] and r[1] > expected[1]
                           for r in rows):
                        oracle_coalesced += 1
            assert len(queue) == sum(1 for r in rows if r[2] == "live")
        assert queue.coalesced_pops == oracle_coalesced
