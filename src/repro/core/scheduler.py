"""Message Scheduler — the paper's Algorithm 1.

The relay delays its own heartbeat and sends it together with the beats
forwarded by connected UEs in **one** cellular transmission. Within one
relay heartbeat period ``[0, T]`` (paper Fig. 3) the scheduler keeps the
collected beats pending until the first binding constraint:

- ``k >= M`` — the relay's collection capacity is full;
- ``t - t_k >= T_k`` — some collected beat is about to exceed its
  expiration budget (we send a guard interval early so the cellular uplink
  itself still completes in time);
- ``t >= T`` — the relay's own next heartbeat is due, capping the delay it
  inflicts on itself.

This is Nagle's algorithm re-cut for heartbeats: buffer small messages and
flush on a deadline, except the "full buffer" condition is the relay
capacity and the deadline is the earliest per-message expiration rather
than an ACK.

After a flush the scheduler stops accepting until the next period begins
("the relay won't collect forwarded heartbeat messages from UE(s) until
the next heartbeat period").
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional

from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.workload.messages import PeriodicMessage


@dataclasses.dataclass(frozen=True)
class SchedulerConfig:
    """Tunables of Algorithm 1.

    ``capacity`` is the paper's ``M`` ("we offer a default value based on
    the experiments and the users could adjust the value"); ``uplink_guard_s``
    is subtracted from every deadline so the aggregated cellular uplink
    (RRC promotion + transmission + core latency) lands in time AND its
    delivery ack reaches the forwarding UEs before their own fallback
    timers (which fire ``cellular_resend_guard_s`` ≈ 4 s before the
    deadline) — so the guard must exceed the UE guard plus the uplink +
    ack round-trip (≈ 2.1 s).
    """

    capacity: int = 10
    uplink_guard_s: float = 7.0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        if self.uplink_guard_s < 0:
            raise ValueError(f"guard must be >= 0, got {self.uplink_guard_s}")


@dataclasses.dataclass(frozen=True)
class CollectedBeat:
    """A forwarded beat held by the scheduler, with its arrival time t_k."""

    message: PeriodicMessage
    arrived_at_s: float
    from_device: str

    def send_by_s(self, guard_s: float) -> float:
        """Latest time the aggregated send may start for this beat."""
        return self.message.deadline_s - guard_s


@dataclasses.dataclass(frozen=True)
class FlushRecord:
    """Statistics of one aggregated send."""

    time_s: float
    reason: str
    own_message: Optional[PeriodicMessage]
    collected: int
    total_bytes: int


class MessageScheduler:
    """Algorithm 1 driver for one relay.

    ``on_flush(own_message, collected_beats, reason)`` performs the actual
    aggregated uplink; the scheduler only decides *when*.
    """

    def __init__(
        self,
        sim: Simulator,
        relay_period_s: float,
        on_flush: Callable[[Optional[PeriodicMessage], List[CollectedBeat], str], None],
        config: SchedulerConfig = SchedulerConfig(),
    ) -> None:
        if relay_period_s <= 0:
            raise ValueError(f"relay period must be positive, got {relay_period_s}")
        self.sim = sim
        self.relay_period_s = relay_period_s
        self.on_flush = on_flush
        self.config = config
        self._own_message: Optional[PeriodicMessage] = None
        self._collected: List[CollectedBeat] = []
        self._period_end_s: Optional[float] = None
        self._accepting = False
        self._timer: Optional[Event] = None
        # statistics
        self.flushes: List[FlushRecord] = []
        self.beats_accepted = 0
        self.beats_rejected = 0
        #: re-arm requests coalesced into the already-armed timer (the
        #: accepted beat's send-by was not the new binding constraint)
        self.rearms_skipped = 0

    # ------------------------------------------------------------------
    # period lifecycle
    # ------------------------------------------------------------------
    def begin_period(self, own_message: PeriodicMessage) -> None:
        """The relay's own heartbeat fired: open a new collection period.

        If the previous period somehow has unsent beats (should not happen —
        the ``t >= T`` timer fires first), they are flushed defensively so no
        beat is ever silently dropped.
        """
        if self._collected or self._own_message is not None:
            self._flush("period rollover")
        self._own_message = own_message
        # The relay's own beat must also reach the server before its own
        # expiry, so the period cap is the tighter of T and the beat's
        # guarded deadline. The deadline is absolute (`created_at_s +
        # expiry_s`, like `CollectedBeat.send_by_s`): any gap between the
        # beat's creation and this call has already consumed budget, so
        # re-anchoring `expiry_s` at `sim.now` would overstate the
        # allowance and flush after the real deadline.
        self._period_end_s = min(
            self.sim.now + self.relay_period_s,
            max(self.sim.now,
                own_message.deadline_s - self.config.uplink_guard_s),
        )
        self._accepting = True
        self._arm_timer()

    @property
    def accepting(self) -> bool:
        """Whether forwarded beats are currently admitted."""
        return self._accepting

    @property
    def pending_count(self) -> int:
        """Collected beats currently held (the algorithm's ``k``)."""
        return len(self._collected)

    @property
    def capacity_remaining(self) -> int:
        """How many more beats this period can admit."""
        if not self._accepting:
            return 0
        return self.config.capacity - len(self._collected)

    # ------------------------------------------------------------------
    # Algorithm 1: "when forwarded heartbeat arrives"
    # ------------------------------------------------------------------
    def offer(self, beat: CollectedBeat) -> bool:
        """Admit a forwarded beat; returns False if it must be rejected.

        Rejection reasons: collection closed for this period, capacity
        full, or the beat is already too stale for the aggregated uplink to
        meet its deadline.
        """
        now = self.sim.now
        if not self._accepting:
            self.beats_rejected += 1
            return False
        if len(self._collected) >= self.config.capacity:
            # k == M: the algorithm sends now; the arriving beat that found
            # the buffer full is rejected (the UE falls back).
            self.beats_rejected += 1
            self._flush("capacity")
            return False
        if beat.send_by_s(self.config.uplink_guard_s) < now:
            self.beats_rejected += 1
            return False
        self._collected.append(beat)
        self.beats_accepted += 1
        if len(self._collected) >= self.config.capacity:
            self._flush("capacity")
        else:
            self._arm_timer()
        return True

    def flush_now(self, reason: str = "forced") -> None:
        """Externally force the aggregated send (e.g. relay shutting down)."""
        if self._own_message is not None or self._collected:
            self._flush(reason)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _next_deadline(self) -> Optional[float]:
        """Earliest binding time: min(period end, per-beat send-by times)."""
        candidates: List[float] = []
        if self._period_end_s is not None:
            candidates.append(self._period_end_s)
        guard = self.config.uplink_guard_s
        candidates.extend(b.send_by_s(guard) for b in self._collected)
        return min(candidates) if candidates else None

    def _arm_timer(self) -> None:
        deadline = self._next_deadline()
        if deadline is None:
            self.sim.cancel(self._timer)
            self._timer = None
            return
        fire_at = max(self.sim.now, deadline)
        timer = self._timer
        if timer is not None and not timer.cancelled and timer.time == fire_at:
            # Same binding deadline → the armed wakeup already fires at the
            # right instant. Keeping it (instead of cancel + re-push) spares
            # the event kernel one dead event per collected beat. The kept
            # event also keeps its earlier sequence number, so the flush
            # fires ahead of same-instant events scheduled after it; run
            # outputs depend on that order, so this is not a pure speed-up.
            self.rearms_skipped += 1
            return
        self.sim.cancel(timer)
        self._timer = self.sim.schedule(
            fire_at - self.sim.now, self._on_timer, name="scheduler_flush"
        )

    def _on_timer(self) -> None:
        self._timer = None
        if self._own_message is None and not self._collected:
            return
        now = self.sim.now
        guard = self.config.uplink_guard_s
        beat_bound = any(b.send_by_s(guard) <= now for b in self._collected)
        reason = "expiration" if beat_bound else "period"
        self._flush(reason)

    def _flush(self, reason: str) -> None:
        self.sim.cancel(self._timer)
        self._timer = None
        own, collected = self._own_message, self._collected
        self._own_message = None
        self._collected = []
        self._accepting = False
        total_bytes = sum(b.message.size_bytes for b in collected)
        if own is not None:
            total_bytes += own.size_bytes
        self.flushes.append(
            FlushRecord(
                time_s=self.sim.now,
                reason=reason,
                own_message=own,
                collected=len(collected),
                total_bytes=total_bytes,
            )
        )
        self.on_flush(own, collected, reason)
