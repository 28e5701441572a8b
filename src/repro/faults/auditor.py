"""Runtime delivery-safety auditor.

The paper's reliability argument (Sec. III-A) is that feedback/fallback
makes D2D forwarding *strictly safe*: whatever kills a relay, every
heartbeat still reaches the server by its deadline. The
:class:`InvariantAuditor` checks that claim — and its supporting
invariants — *while the simulation runs*, by wrapping the hooks the
protocol already exposes (monitor handlers, feedback acks/fallbacks,
scheduler offers, reward credits, server receives, power transitions):

- **delivery safety** — every emitted heartbeat whose deadline falls
  inside the run is delivered on time (D2D-acked aggregate or cellular
  fallback), unless its origin device was powered off during the beat's
  lifetime (a dead phone owes nobody a heartbeat);
- **duplicate accounting** — a beat both acked and fallback-resent must
  show up at the server at least twice (the duplicate is *observed*,
  never silently collapsed);
- **capacity** — a relay's collected count ``k`` never exceeds ``M``;
- **honest incentives** — no relay credit for beats the server has not
  received: per relay, settled credits ≤ deliveries relayed via it;
- **energy sanity** — batteries never go negative.

When the *cellular side* is itself a fault domain (base-station outages,
brown-outs, paging storms — :mod:`repro.faults.chaos` RAN processes),
"delivered by deadline" is no longer achievable for every beat and the
safety contract changes shape. The auditor then additionally checks:

- **no silent heartbeat loss** — every emitted beat is delivered,
  still held by a degraded-mode sender (buffered or awaiting a retry),
  or dropped *with a recorded cause*; an unaccounted beat under RAN
  chaos is a ``silent-loss`` violation;
- **buffer bounds** — no store-and-forward buffer ever exceeds its
  configured capacity;
- **backoff monotonicity** — within one retry/probe episode the
  pre-jitter delays never decrease, and jitter stays within the
  configured fraction;
- **reattach liveness** — after the cell restores from an outage, every
  detached sender reattaches within the profile-declared bound
  (:attr:`InvariantAuditor.reattach_bound_s`).

Beats whose delivery window overlapped a degraded-RAN interval are
adjudicated *outage-aware*: late or sender-held beats are exempt rather
than violations, and the report separates them out so the
deadline-safety metric can be computed against the healthy population.

Violations carry a snapshot of the most recent protocol events (a
bounded trace ring) so the first failure is debuggable without re-running
with tracing enabled. Everything is recorded deterministically — two
runs with identical seeds produce identical :class:`AuditReport`\\ s.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.cellular.basestation import RanState

#: How many protocol events each violation snapshot keeps.
TRACE_LEN = 64

#: Slack between a reward credit (uplink cleared the air interface) and
#: the server sink having run — comfortably above the core latency.
CREDIT_SETTLE_S = 1.0


@dataclasses.dataclass(frozen=True)
class TraceEntry:
    """One protocol event in the bounded audit trace."""

    time_s: float
    kind: str
    subject: str
    detail: str = ""


@dataclasses.dataclass(frozen=True)
class AuditViolation:
    """One invariant breach, with the trace that led up to it."""

    kind: str
    time_s: float
    subject: str
    detail: str
    trace: Tuple[TraceEntry, ...] = ()

    def __str__(self) -> str:
        return f"[{self.time_s:10.1f}s] {self.kind} on {self.subject}: {self.detail}"


@dataclasses.dataclass
class BeatRecord:
    """Lifecycle of one emitted heartbeat, as the auditor observed it."""

    seq: int
    app: str
    origin: str
    created_at_s: float
    deadline_s: float
    on_time_deliveries: int = 0
    late_deliveries: int = 0
    acked: bool = False
    fallback_fired: bool = False

    @property
    def delivered(self) -> bool:
        return self.on_time_deliveries + self.late_deliveries > 0


@dataclasses.dataclass
class AuditReport:
    """Structured outcome of one audited run."""

    violations: List[AuditViolation] = dataclasses.field(default_factory=list)
    beats_tracked: int = 0
    beats_adjudicated: int = 0
    beats_on_time: int = 0
    beats_exempt_downtime: int = 0
    beats_exempt_ran: int = 0
    beats_dropped_accounted: int = 0
    beats_buffered_end: int = 0
    acks_observed: int = 0
    fallbacks_observed: int = 0
    ack_and_fallback_beats: int = 0
    deliveries_observed: int = 0
    finalized: bool = False
    horizon_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.finalized and not self.violations

    @property
    def first_violation(self) -> Optional[AuditViolation]:
        return self.violations[0] if self.violations else None

    def violations_of(self, kind: str) -> List[AuditViolation]:
        return [v for v in self.violations if v.kind == kind]

    def to_dict(self) -> Dict[str, object]:
        data = dataclasses.asdict(self)
        data["ok"] = self.ok
        return data

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        lines = [
            f"audit {status}: {self.beats_adjudicated}/{self.beats_tracked} "
            f"beats adjudicated, {self.beats_on_time} on time, "
            f"{self.beats_exempt_downtime} exempt (device down), "
            f"{self.acks_observed} acks, {self.fallbacks_observed} fallbacks, "
            f"{self.ack_and_fallback_beats} ack+fallback duplicates"
        ]
        if self.beats_exempt_ran:
            lines.append(
                f"  RAN-degraded: {self.beats_exempt_ran} exempt "
                f"({self.beats_dropped_accounted} dropped with cause, "
                f"{self.beats_buffered_end} still held by senders)"
            )
        lines.extend(str(v) for v in self.violations[:10])
        if len(self.violations) > 10:
            lines.append(f"... and {len(self.violations) - 10} more")
        return "\n".join(lines)


class InvariantAuditor:
    """Subscribes to a simulation's protocol hooks and audits invariants.

    Attach *after* the scenario is wired and *before* the clock starts::

        auditor = InvariantAuditor(sim, server=server, rewards=ledger)
        auditor.attach_framework(framework, devices)
        ... run ...
        report = auditor.finalize(horizon_s)

    Attach the auditor before any chaos engine: ack-suppression then
    wraps *outside* the audit hook, so the auditor only ever sees acks
    the UE really received.
    """

    def __init__(self, sim, server=None, rewards=None) -> None:
        self.sim = sim
        self.server = server
        self.rewards = rewards
        self.report = AuditReport()
        self._trace: Deque[TraceEntry] = deque(maxlen=TRACE_LEN)
        self._beats: Dict[int, BeatRecord] = {}
        #: device_id → list of [down_at, up_at) intervals (up may be None)
        self._downtime: Dict[str, List[List[Optional[float]]]] = {}
        self._server_attached = False
        self._rewards_attached = False
        #: reattach-liveness bound (seconds after cell restore); 0 means the
        #: active chaos profile declared no bound, so the check is skipped
        self.reattach_bound_s: float = 0.0
        self._basestation = None
        #: [down_at, up_at) hard-outage intervals of the serving cell
        self._ran_down: List[List[Optional[float]]] = []
        #: [start, end) intervals where the cell was not fully UP
        self._ran_degraded: List[List[Optional[float]]] = []
        self._fallback_senders: List[object] = []
        #: beat seq → recorded drop cause (first drop wins)
        self._drop_causes: Dict[int, str] = {}
        #: per-relay incentive books: beats credited, relayed deliveries
        self._credited: Dict[str, int] = {}
        self._relayed_via: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # recording primitives
    # ------------------------------------------------------------------
    def _note(self, kind: str, subject: str, detail: str = "") -> None:
        self._trace.append(
            TraceEntry(time_s=self.sim.now, kind=kind, subject=subject, detail=detail)
        )

    def _violate(self, kind: str, subject: str, detail: str) -> None:
        self.report.violations.append(
            AuditViolation(
                kind=kind,
                time_s=self.sim.now,
                subject=subject,
                detail=detail,
                trace=tuple(self._trace),
            )
        )

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------
    def attach_framework(self, framework, devices: Dict[str, object]) -> "InvariantAuditor":
        """Wire every hook of a built framework scenario."""
        for device in devices.values():
            self.attach_device(device)
        for agent in framework.ues.values():
            self.attach_ue(agent)
        for agent in framework.relays.values():
            self.attach_relay(agent)
        for sender in framework.standalones.values():
            self.attach_monitor(sender.monitor)
            self.attach_fallback(sender.cellular)
        if self.server is not None:
            self.attach_server(self.server)
        if self.rewards is not None:
            self.attach_rewards(self.rewards)
        return self

    def attach_original(self, original, devices: Dict[str, object]) -> "InvariantAuditor":
        """Wire the hooks of an original-system (no-D2D) build."""
        for device in devices.values():
            self.attach_device(device)
        for monitor in original.monitors.values():
            self.attach_monitor(monitor)
        for sender in original.fallback_senders.values():
            self.attach_fallback(sender)
        if self.server is not None:
            self.attach_server(self.server)
        return self

    def attach_device(self, device) -> None:
        """Track power transitions (downtime exempts delivery)."""
        device_id = device.device_id
        self._downtime.setdefault(device_id, [])
        original_off = device.power_off
        original_on = getattr(device, "power_on", None)

        def audited_off() -> None:
            was_alive = device.alive
            original_off()
            if was_alive:
                self._downtime[device_id].append([self.sim.now, None])
                self._note("power-off", device_id)
            self._check_battery(device)

        device.power_off = audited_off  # type: ignore[method-assign]
        if original_on is not None:
            def audited_on() -> None:
                was_dead = not device.alive
                original_on()
                if was_dead and device.alive:
                    intervals = self._downtime[device_id]
                    if intervals and intervals[-1][1] is None:
                        intervals[-1][1] = self.sim.now
                    self._note("power-on", device_id)

            device.power_on = audited_on  # type: ignore[method-assign]
        self._chain_energy(device)

    def attach_monitor(self, monitor) -> None:
        """Observe every beat emission the monitor admits."""
        original_handler = monitor.handler

        def audited_handler(message) -> None:
            self._observe_beat(message)
            original_handler(message)

        monitor.handler = audited_handler

    def attach_basestation(self, basestation) -> None:
        """Track the serving cell's RAN state (outage + degraded intervals)."""
        if self._basestation is not None:
            return
        self._basestation = basestation
        if basestation.ran_state is RanState.DOWN:
            self._ran_down.append([self.sim.now, None])
        if basestation.ran_state is not RanState.UP:
            self._ran_degraded.append([self.sim.now, None])

        def on_ran_state(time_s: float, old: RanState, new: RanState) -> None:
            if new is RanState.DOWN and old is not RanState.DOWN:
                self._ran_down.append([time_s, None])
            elif old is RanState.DOWN and new is not RanState.DOWN:
                if self._ran_down and self._ran_down[-1][1] is None:
                    self._ran_down[-1][1] = time_s
            if old is RanState.UP and new is not RanState.UP:
                self._ran_degraded.append([time_s, None])
            elif new is RanState.UP and old is not RanState.UP:
                if self._ran_degraded and self._ran_degraded[-1][1] is None:
                    self._ran_degraded[-1][1] = time_s
            self._note("ran-state", "cell", f"{old.value} -> {new.value}")

        basestation.subscribe_ran(on_ran_state)

    def attach_fallback(self, sender) -> None:
        """Audit one degraded-mode sender: drops, backoff, jitter bounds."""
        if any(existing is sender for existing in self._fallback_senders):
            return
        self._fallback_senders.append(sender)
        device_id = sender.device.device_id
        jitter_bound = sender.config.jitter_fraction
        #: (kind, episode key) → last pre-jitter base delay observed
        last_base: Dict[Tuple[str, int], float] = {}

        previous_drop = sender.on_drop

        def audited_drop(message, cause: str) -> None:
            self._drop_causes.setdefault(message.seq, cause)
            self._note("drop", device_id, f"seq={message.seq} cause={cause}")
            if previous_drop is not None:
                previous_drop(message, cause)

        sender.on_drop = audited_drop

        previous_backoff = sender.on_backoff

        def audited_backoff(kind: str, key: int, base_s: float, actual_s: float) -> None:
            prior = last_base.get((kind, key))
            if prior is not None and base_s < prior - 1e-9:
                self._violate(
                    "backoff-nonmonotone",
                    device_id,
                    f"{kind} episode {key}: base delay {base_s:.3f}s after "
                    f"{prior:.3f}s without a reset",
                )
            last_base[(kind, key)] = base_s
            if base_s > 0 and abs(actual_s / base_s - 1.0) > jitter_bound + 1e-9:
                self._violate(
                    "jitter-out-of-bounds",
                    device_id,
                    f"{kind} episode {key}: actual {actual_s:.3f}s vs base "
                    f"{base_s:.3f}s exceeds ±{jitter_bound:.0%}",
                )
            self._note("backoff", device_id, f"{kind}#{key} base={base_s:.2f}s")
            if previous_backoff is not None:
                previous_backoff(kind, key, base_s, actual_s)

        sender.on_backoff = audited_backoff

        previous_reset = sender.on_backoff_reset

        def audited_reset(kind: str, key: int) -> None:
            last_base.pop((kind, key), None)
            if previous_reset is not None:
                previous_reset(kind, key)

        sender.on_backoff_reset = audited_reset

    def attach_ue(self, agent) -> None:
        """Observe forwards/acks/fallbacks of one UE agent."""
        self.attach_monitor(agent.monitor)
        self.attach_fallback(agent.cellular)
        tracker = agent.feedback
        device_id = agent.device.device_id
        original_ack = tracker.ack

        def audited_ack(beat_seqs) -> int:
            seqs = list(beat_seqs)
            for seq in seqs:
                record = self._beats.get(seq)
                if record is not None and tracker.is_pending(seq):
                    record.acked = True
                    self.report.acks_observed += 1
            self._note("ack", device_id, f"seqs={seqs}")
            return original_ack(seqs)

        tracker.ack = audited_ack  # type: ignore[method-assign]
        original_fallback = tracker.on_fallback

        def audited_fallback(message) -> None:
            record = self._beats.get(message.seq)
            if record is not None:
                record.fallback_fired = True
            self.report.fallbacks_observed += 1
            self._note("fallback", device_id, f"seq={message.seq}")
            original_fallback(message)

        tracker.on_fallback = audited_fallback

    def attach_relay(self, agent) -> None:
        """Observe collections/flushes and enforce the capacity bound."""
        self.attach_monitor(agent.monitor)
        self.attach_fallback(agent.cellular)
        scheduler = agent.scheduler
        device_id = agent.device.device_id
        capacity = scheduler.config.capacity
        original_offer = scheduler.offer

        def audited_offer(beat) -> bool:
            admitted = original_offer(beat)
            pending = scheduler.pending_count
            if pending > capacity:
                self._violate(
                    "capacity-exceeded",
                    device_id,
                    f"k={pending} > M={capacity} after seq {beat.message.seq}",
                )
            if admitted:
                self._note("collect", device_id, f"seq={beat.message.seq} k={pending}")
            return admitted

        scheduler.offer = audited_offer  # type: ignore[method-assign]
        original_flush = scheduler.on_flush

        def audited_flush(own, collected, reason) -> None:
            self._note(
                "flush", device_id,
                f"{'own+' if own is not None else ''}{len(collected)} ({reason})",
            )
            original_flush(own, collected, reason)

        scheduler.on_flush = audited_flush

    def attach_server(self, server) -> None:
        if self._server_attached:
            return
        self._server_attached = True
        original_receive = server.receive

        def audited_receive(message, via_device, time_s=None):
            record_out = original_receive(message, via_device, time_s)
            self.report.deliveries_observed += 1
            if record_out.relayed:
                self._relayed_via[via_device] = (
                    self._relayed_via.get(via_device, 0) + 1
                )
            record = self._beats.get(message.seq)
            if record is not None:
                if record_out.on_time:
                    record.on_time_deliveries += 1
                else:
                    record.late_deliveries += 1
                    if (
                        record.on_time_deliveries == 0
                        and not self._was_down(
                            record.origin, record.created_at_s, record.deadline_s
                        )
                        and not self._ran_degraded_overlap(
                            record.created_at_s, record.deadline_s
                        )
                    ):
                        self._violate(
                            "deadline-missed",
                            record.origin,
                            f"seq {message.seq} ({message.app}) delivered at "
                            f"{record_out.delivered_at_s:.1f}s, deadline "
                            f"{record.deadline_s:.1f}s",
                        )
            self._note(
                "deliver", via_device,
                f"seq={message.seq} {'on-time' if record_out.on_time else 'LATE'}",
            )
            return record_out

        server.receive = audited_receive  # type: ignore[method-assign]

    def attach_rewards(self, rewards) -> None:
        if self._rewards_attached:
            return
        self._rewards_attached = True
        original_credit = rewards.credit_collection

        def audited_credit(time_s, relay_id, beats):
            account = original_credit(time_s, relay_id, beats)
            credited = self._credited.get(relay_id, 0) + beats
            self._credited[relay_id] = credited
            # The relay is credited when the uplink clears the air
            # interface; the server sink runs one core latency later.
            # Check this relay's books once that transport slack has
            # passed, against its credits up to now: a later credit (to
            # it or any other relay) may still be in flight at the check.
            self.sim.schedule(
                CREDIT_SETTLE_S, self._check_credits, relay_id, credited,
                name="audit_credit_check",
            )
            self._note("credit", relay_id, f"beats={beats}")
            return account

        rewards.credit_collection = audited_credit  # type: ignore[method-assign]

    def _check_credits(
        self, relay_id: str, credited: int, suffix: str = ""
    ) -> None:
        if self.server is None:
            return
        relayed = self._relayed_via.get(relay_id, 0)
        if credited > relayed:
            self._violate(
                "phantom-credit",
                relay_id,
                f"credited beats {credited} > relayed deliveries "
                f"{relayed}{suffix}",
            )

    # ------------------------------------------------------------------
    def _chain_energy(self, device) -> None:
        energy = device.energy
        previous = energy.on_charge

        def audited_charge(time_s, phase, uah, duration_s) -> None:
            if previous is not None:
                previous(time_s, phase, uah, duration_s)
            self._check_battery(device)

        energy.on_charge = audited_charge

    def _check_battery(self, device) -> None:
        battery = device.battery
        if battery is not None and battery.remaining_mah < 0.0:
            self._violate(
                "negative-energy",
                device.device_id,
                f"battery at {battery.remaining_mah:.3f} mAh",
            )

    def _observe_beat(self, message) -> None:
        if message.seq in self._beats:
            return
        self._beats[message.seq] = BeatRecord(
            seq=message.seq,
            app=message.app,
            origin=message.origin_device,
            created_at_s=message.created_at_s,
            deadline_s=message.deadline_s,
        )
        self.report.beats_tracked += 1
        self._note("emit", message.origin_device, f"seq={message.seq} {message.app}")

    def _was_down(self, device_id: str, start_s: float, end_s: float) -> bool:
        """Whether ``device_id`` was powered off anywhere in [start, end]."""
        for down_at, up_at in self._downtime.get(device_id, []):
            if down_at <= end_s and (up_at is None or up_at >= start_s):
                return True
        return False

    def _ran_degraded_overlap(self, start_s: float, end_s: float) -> bool:
        """Whether the serving cell was not fully UP anywhere in [start, end]."""
        for began_at, ended_at in self._ran_degraded:
            if began_at <= end_s and (ended_at is None or ended_at >= start_s):
                return True
        return False

    def _reattach_breach(
        self, episode, bound: float, horizon_s: float
    ) -> Optional[float]:
        """First restore the episode missed its liveness bound after.

        A breach requires a restore ``r`` after the detach such that the
        cell then stayed up for the full ``[r, r + bound]`` window inside
        the run, yet the sender had not reattached by ``r + bound``.
        Windows cut short by a follow-up outage or by the horizon don't
        count — the sender never got a fair chance to probe successfully.
        """
        restores = sorted(
            up_at
            for down_at, up_at in self._ran_down
            if up_at is not None and up_at >= episode.detached_at_s
        )
        down_starts = sorted(down_at for down_at, _ in self._ran_down)
        for restore in restores:
            deadline = restore + bound
            if episode.reattached_at_s is not None and (
                episode.reattached_at_s <= deadline
            ):
                return None  # reattached within bound of this restore
            next_down = next(
                (d for d in down_starts if d > restore), float("inf")
            )
            if deadline <= min(next_down, horizon_s):
                return restore  # full stable window missed
        return None

    # ------------------------------------------------------------------
    def finalize(self, horizon_s: float) -> AuditReport:
        """Adjudicate every beat whose deadline fell inside the run."""
        if self.report.finalized:
            return self.report
        self.report.finalized = True
        self.report.horizon_s = horizon_s
        # end-of-run book check: deferred per-credit checks scheduled past
        # the horizon never ran, so settle every relay's books here too
        for relay_id, credited in sorted(self._credited.items()):
            self._check_credits(relay_id, credited, " at end of run")
        self._check_sender_bounds(horizon_s)
        held_seqs = set()
        for sender in self._fallback_senders:
            held_seqs.update(sender.pending_seqs())
        for seq in sorted(self._beats):
            record = self._beats[seq]
            if record.deadline_s > horizon_s:
                continue  # deadline beyond the run; not adjudicable
            self.report.beats_adjudicated += 1
            drop_cause = self._drop_causes.get(seq)
            held = seq in held_seqs
            ran_overlap = self._ran_degraded_overlap(
                record.created_at_s, record.deadline_s
            )
            if record.acked and record.fallback_fired:
                self.report.ack_and_fallback_beats += 1
                # under RAN chaos the fallback copy may legitimately have
                # been rejected, buffered, or dropped — only demand the
                # duplicate when the cell never degraded in the window
                if record.on_time_deliveries + record.late_deliveries < 2 and not (
                    drop_cause is not None or held or ran_overlap
                ):
                    self._violate(
                        "ack-and-fallback",
                        record.origin,
                        f"seq {seq} acked and fallback-resent but seen "
                        f"{record.on_time_deliveries + record.late_deliveries} "
                        "time(s) at the server",
                    )
            if record.on_time_deliveries > 0:
                self.report.beats_on_time += 1
                continue
            if self._was_down(record.origin, record.created_at_s, record.deadline_s):
                self.report.beats_exempt_downtime += 1
                continue
            if drop_cause is not None:
                # accounted loss: the degraded-mode sender recorded a cause
                self.report.beats_dropped_accounted += 1
                self.report.beats_exempt_ran += 1
                continue
            if held:
                # still owned by a sender (buffered or awaiting a retry)
                self.report.beats_buffered_end += 1
                self.report.beats_exempt_ran += 1
                continue
            if record.delivered:
                # late delivery; already adjudicated at receive time
                if ran_overlap:
                    self.report.beats_exempt_ran += 1
                continue
            self._violate(
                "silent-loss" if ran_overlap else "undelivered",
                record.origin,
                f"seq {seq} ({record.app}) emitted at "
                f"{record.created_at_s:.1f}s never reached the server "
                f"(deadline {record.deadline_s:.1f}s)"
                + (
                    " — lost without drop accounting during RAN degradation"
                    if ran_overlap
                    else ""
                ),
            )
        return self.report

    def _check_sender_bounds(self, horizon_s: float) -> None:
        """Buffer-bound and reattach-liveness checks over every sender."""
        for sender in self._fallback_senders:
            device_id = sender.device.device_id
            if sender.buffered_peak > sender.config.buffer_capacity:
                self._violate(
                    "buffer-bound",
                    device_id,
                    f"store-and-forward peak {sender.buffered_peak} exceeds "
                    f"capacity {sender.config.buffer_capacity}",
                )
            bound = self.reattach_bound_s
            if not bound:
                continue
            for index, episode in enumerate(sender.episodes):
                restore = self._reattach_breach(episode, bound, horizon_s)
                if restore is None:
                    continue
                when = (
                    "never"
                    if episode.reattached_at_s is None
                    else f"at {episode.reattached_at_s:.1f}s"
                )
                self._violate(
                    "reattach-liveness",
                    device_id,
                    f"episode {index}: detached {episode.detached_at_s:.1f}s, "
                    f"cell stably restored {restore:.1f}s, reattached {when} "
                    f"(bound {bound:.0f}s)",
                )
