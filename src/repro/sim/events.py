"""Event primitives for the discrete-event kernel.

An :class:`Event` is a timestamped callback with a stable tiebreak sequence
number, so two events scheduled for the same instant always fire in the
order they were scheduled — a property several framework protocols (e.g.
"ack before fallback timer") rely on.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple


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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flag = " CANCELLED" if self.cancelled else ""
        return f"Event({self.name!r} @ {self.time:.6f} #{self.seq}{flag})"


class EventQueue:
    """Min-heap of ``(time, seq, event)`` entries with lazy cancellation.

    Sequence numbers increase monotonically and are unique, so tuple
    comparison settles every order on the two numbers — at C speed, never
    reaching the event — and same-instant events pop in scheduling order.
    A cancelled event stays queued and is discarded when it reaches the
    top, which keeps :meth:`Event.cancel` O(1).

    ``coalesced_pops`` counts pops after which another entry (live or
    dead) at the same timestamp is still queued: the size of the
    same-deadline cohorts the workload produces, for perf reports.
    """

    __slots__ = ("_heap", "_counter", "_live", "coalesced_pops")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0
        #: pops that left a same-timestamp entry queued
        self.coalesced_pops = 0

    def push(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple = (),
        name: str = "",
    ) -> Event:
        """Insert a callback to fire at absolute ``time``; returns the handle."""
        seq = next(self._counter)
        event = Event(time, seq, callback, args, name, queue=self)
        heapq.heappush(self._heap, (time, seq, event))
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
        lies beyond the horizon (in which case it stays queued).
        """
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            time, _seq, event = heap[0]
            if event.cancelled:
                heappop(heap)
                continue
            if time > horizon:
                return None
            heappop(heap)
            self._live -= 1
            event._queue = None  # fired: late cancel() must not re-decrement
            if heap and heap[0][0] == time:
                self.coalesced_pops += 1
            return event
        return None

    def _dropped_live(self) -> None:
        """One of this queue's events was cancelled while still queued."""
        self._live = max(0, self._live - 1)

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0
