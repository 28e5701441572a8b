"""The discrete-event simulator driver.

A :class:`Simulator` owns the clock, the event queue, and the per-run random
streams. Components schedule callbacks with :meth:`Simulator.schedule`
(relative delay) or :meth:`Simulator.schedule_at` (absolute time) and the
driver fires them in timestamp order until the horizon, a stop condition, or
queue exhaustion.

The driver also supports lightweight *periodic processes* — a convenience
used by heartbeat generators and mobility updaters — and a trace hook for
debugging and for the Monsoon-style power-trace synthesizer.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.sim.clock import Clock
from repro.sim.events import Event, EventQueue
from repro.sim.rng import RngStreams


class SimulationError(RuntimeError):
    """Raised for illegal simulator operations (e.g. scheduling in the past)."""


class Simulator:
    """Deterministic discrete-event simulation driver.

    Parameters
    ----------
    seed:
        Master seed for all named random streams.
    start:
        Initial simulated time in seconds.
    trace:
        When true, every fired event is appended to :attr:`event_log`
        as ``(time, name)`` — cheap enough for unit tests, off by default
        for long benches.
    """

    def __init__(self, seed: int = 0, start: float = 0.0, trace: bool = False) -> None:
        self.clock = Clock(start)
        self.queue = EventQueue()
        self.rng = RngStreams(seed)
        self.trace = trace
        self.event_log: List[Tuple[float, str]] = []
        self._fired = 0
        self._running = False
        self._stop_requested = False

    # ------------------------------------------------------------------
    # time & introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.clock.now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far."""
        return self._fired

    @property
    def pending(self) -> int:
        """Number of live events still queued."""
        return len(self.queue)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        name: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay}")
        return self.queue.push(self.clock.now + delay, callback, args, name)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        name: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self.clock.now:
            raise SimulationError(
                f"cannot schedule at {time} before now={self.clock.now}"
            )
        return self.queue.push(time, callback, args, name)

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a previously scheduled event; ``None`` is ignored.

        Equivalent to ``event.cancel()`` — the queue's live count is kept
        by the event itself, so cancelling through the simulator or through
        the handle directly makes no bookkeeping difference.
        """
        if event is not None:
            event.cancel()

    def every(
        self,
        period: float,
        callback: Callable[..., Any],
        *args: Any,
        start_after: Optional[float] = None,
        name: str = "",
    ) -> "PeriodicProcess":
        """Run ``callback(*args)`` every ``period`` seconds.

        The first firing happens after ``start_after`` seconds (default: one
        full period). Returns a handle whose :meth:`PeriodicProcess.stop`
        cancels future firings.
        """
        if period <= 0:
            raise SimulationError(f"periodic process needs period > 0, got {period}")
        process = PeriodicProcess(self, period, callback, args, name)
        first = period if start_after is None else start_after
        process._arm(first)
        return process

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Request the run loop to stop after the current event."""
        self._stop_requested = True

    def run_until(self, horizon: float, max_events: int = 10_000_000) -> int:
        """Fire events in order until ``horizon`` (inclusive).

        The clock is left exactly at ``horizon`` even if the queue drains
        early, so post-run metric snapshots are taken at a consistent time.
        Returns the number of events fired by this call.
        """
        if horizon < self.clock.now:
            raise SimulationError(
                f"horizon {horizon} is before now={self.clock.now}"
            )
        if self._running:
            raise SimulationError("run_until re-entered from inside an event")
        self._running = True
        self._stop_requested = False
        fired_before = self._fired
        # Hot path: this loop dominates every long run, so the per-event
        # attribute chases are hoisted into locals and one
        # pop_until(horizon) call both checks the horizon and pops.
        # `self._fired` is still written back every iteration so callbacks
        # reading `events_fired`/`pending` mid-run observe the truth.
        pop_until = self.queue.pop_until
        advance_to = self.clock.advance_to
        trace = self.trace
        event_log = self.event_log
        limit = fired_before + max_events
        try:
            while not self._stop_requested:
                event = pop_until(horizon)
                if event is None:
                    break
                if self._fired >= limit:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; runaway schedule?"
                    )
                advance_to(event.time)
                self._fired += 1
                if trace:
                    event_log.append((event.time, event.name))
                event.callback(*event.args)
            if not self._stop_requested:
                advance_to(horizon)
        finally:
            self._running = False
        return self._fired - fired_before


class PeriodicProcess:
    """Handle for a repeating callback created by :meth:`Simulator.every`."""

    __slots__ = ("_sim", "period", "_callback", "_args", "_name", "_event", "_stopped")

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[..., Any],
        args: tuple,
        name: str,
    ) -> None:
        self._sim = sim
        self.period = period
        self._callback = callback
        self._args = args
        self._name = name or getattr(callback, "__name__", "periodic")
        self._event: Optional[Event] = None
        self._stopped = False

    def _arm(self, delay: float) -> None:
        if self._stopped:
            return
        self._event = self._sim.schedule(delay, self._fire, name=self._name)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._callback(*self._args)
        self._arm(self.period)

    @property
    def stopped(self) -> bool:
        return self._stopped

    @property
    def next_fire_s(self) -> Optional[float]:
        """Absolute time of the next firing; ``None`` once stopped."""
        if self._stopped or self._event is None or self._event.cancelled:
            return None
        return self._event.time

    def stop(self) -> None:
        """Cancel all future firings; idempotent."""
        if self._stopped:
            return
        self._stopped = True
        self._sim.cancel(self._event)
        self._event = None
