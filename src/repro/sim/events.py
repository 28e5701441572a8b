"""Event primitives for the discrete-event kernel.

An :class:`Event` is a timestamped callback with a stable tiebreak sequence
number, so two events scheduled for the same instant always fire in the
order they were scheduled — a property several framework protocols (e.g.
"ack before fallback timer") rely on.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Dict, Optional, Union


class Event:
    """A scheduled callback.

    Events are created by the simulator; user code receives the event handle
    back from :meth:`~repro.sim.engine.Simulator.schedule` and may
    :meth:`cancel` it. A cancelled event stays in the queue but is skipped
    when popped (lazy deletion — O(1) cancel).
    """

    __slots__ = ("time", "seq", "callback", "args", "name", "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
        name: str = "",
        queue: Optional["EventQueue"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.name = name or getattr(callback, "__name__", "event")
        self.cancelled = False
        self._queue = queue

    def cancel(self) -> None:
        """Mark this event so the simulator skips it; idempotent.

        Live-count bookkeeping lives here: an event created by a queue
        tells that queue it went dead, so ``len(queue)`` stays truthful no
        matter who cancels — ``Simulator.cancel``, a ``PeriodicProcess``,
        or user code holding the handle directly.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None:
            self._queue._dropped_live()

    def __lt__(self, other: "Event") -> bool:
        # Kept for direct Event comparisons; the queue orders a heap of
        # unique timestamps plus FIFO buckets instead, so the hot path
        # compares floats at C speed and never calls back into Python.
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flag = " CANCELLED" if self.cancelled else ""
        return f"Event({self.name!r} @ {self.time:.6f} #{self.seq}{flag})"


#: A timestamp's entry: a lone event, or a FIFO deque once it has company.
_Bucket = Union[Event, "deque[Event]"]


class EventQueue:
    """Min-heap of *timestamps* with a FIFO event bucket per timestamp.

    Simulated workloads synchronize: at crowd scale, thousands of beat and
    scan timers share the exact same deadline (every storm device scans on
    the same period, every window boundary re-arms a cohort at once). A
    classic entry-per-event heap pays O(log N) sifts for each of them; this
    queue keeps one heap entry per *distinct* timestamp and groups the
    events into a per-timestamp bucket. Pushing into a timestamp that is
    already queued — and popping any event but a bucket's last — is O(1)
    dict/deque work, so a cohort of k same-deadline timers costs one sift
    instead of k.

    A timestamp seen once holds its event directly (no deque allocation —
    scattered-unique schedules stay as cheap as the old tuple heap); the
    second push at the same instant promotes the entry to a deque.

    Ordering is observably identical to the old (time, seq, event) tuple
    heap: sequence numbers increase monotonically, so bucket FIFO order *is*
    seq order, and the timestamp heap settles everything else. The
    ``coalesced_pushes``/``coalesced_pops`` counters make the batching
    observable for perf reports.
    """

    __slots__ = ("_heap", "_buckets", "_counter", "_live",
                 "coalesced_pushes", "coalesced_pops")

    def __init__(self) -> None:
        self._heap: list[float] = []
        self._buckets: Dict[float, _Bucket] = {}
        self._counter = itertools.count()
        self._live = 0
        #: pushes that joined an already-queued timestamp (no heap sift)
        self.coalesced_pushes = 0
        #: pops served from a bucket that stayed hot (no heap traversal)
        self.coalesced_pops = 0

    def push(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple = (),
        name: str = "",
    ) -> Event:
        """Insert a callback to fire at absolute ``time``; returns the handle."""
        event = Event(time, next(self._counter), callback, args, name, queue=self)
        buckets = self._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = event
            heapq.heappush(self._heap, time)
        else:
            if type(bucket) is deque:
                bucket.append(event)
            else:
                buckets[time] = deque((bucket, event))
            self.coalesced_pushes += 1
        self._live += 1
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or ``None`` if empty.

        Cancelled events are discarded transparently.
        """
        return self.pop_until(float("inf"))

    def pop_until(self, horizon: float) -> Optional[Event]:
        """Pop the earliest live event with ``time <= horizon``.

        Returns ``None`` when the queue is empty or the earliest live event
        lies beyond the horizon (in which case it stays queued). Within a
        hot bucket this is one deque popleft — no heap traversal at all.
        """
        heap = self._heap
        buckets = self._buckets
        while heap:
            time = heap[0]
            bucket = buckets[time]
            if type(bucket) is deque:
                # cancelled-only buckets must not mask a later live event,
                # so drain dead heads before trusting the timestamp
                while bucket and bucket[0].cancelled:
                    bucket.popleft()
                if bucket:
                    if time > horizon:
                        return None
                    event = bucket.popleft()
                    self._live -= 1
                    event._queue = None  # fired: late cancel() must not re-decrement
                    if bucket:
                        self.coalesced_pops += 1
                    else:
                        heapq.heappop(heap)
                        del buckets[time]
                    return event
            else:
                if not bucket.cancelled:
                    if time > horizon:
                        return None
                    heapq.heappop(heap)
                    del buckets[time]
                    self._live -= 1
                    bucket._queue = None  # fired: late cancel() must not re-decrement
                    return bucket
            heapq.heappop(heap)
            del buckets[time]
        return None

    def peek_time(self) -> Optional[float]:
        """Timestamp of the earliest live event, or ``None`` if empty."""
        heap = self._heap
        buckets = self._buckets
        while heap:
            time = heap[0]
            bucket = buckets[time]
            if type(bucket) is deque:
                while bucket and bucket[0].cancelled:
                    bucket.popleft()
                if bucket:
                    return time
            elif not bucket.cancelled:
                return time
            heapq.heappop(heap)
            del buckets[time]
        return None

    def _dropped_live(self) -> None:
        """One of this queue's events was cancelled while still queued."""
        self._live = max(0, self._live - 1)

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0
