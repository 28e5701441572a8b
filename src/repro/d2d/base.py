"""Technology-generic D2D medium, endpoints and connections.

One :class:`D2DMedium` per simulation models the shared radio environment
for one D2D technology: who can discover whom (range + advertisement),
connection establishment, range-limited transfers with distance-dependent
energy, and link monitoring that breaks connections when devices drift
apart (the failure mode the paper's feedback mechanism exists for).

Energy conventions follow the paper's Table III: the *initiator* of
discovery/connection pays the UE-side charge, the responder the relay-side
charge; a message sender pays the forward charge (distance-scaled, Fig. 12)
and the receiver the receive charge (Table IV slope).
"""

from __future__ import annotations

import dataclasses
import math
import operator
import random
import types
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

import numpy as _np

from repro.channel.model import ChannelModel
from repro.d2d.link import LinkModel
from repro.energy.model import EnergyModel, EnergyPhase
from repro.energy.profiles import DEFAULT_PROFILE, EnergyProfile
from repro.mobility.index import Cell, SpatialIndex
from repro.mobility.models import MobilityModel, TrajectoryBatch
from repro.mobility.space import Position, distance_between
from repro.perf import PerfCounters
from repro.sim.engine import PeriodicProcess, Simulator

#: Scan-result ordering key (strongest signal first via ``reverse=True``).
_RSSI_KEY = operator.attrgetter("rssi_dbm")


class D2DTransferError(RuntimeError):
    """Raised for illegal transfer attempts (closed connection, bad peer)."""


@dataclasses.dataclass(frozen=True)
class D2DTechnology:
    """Capabilities and relative energy cost of one D2D technology.

    Energy scales are multipliers applied to the Wi-Fi Direct-calibrated
    base costs in :class:`~repro.energy.profiles.EnergyProfile` (so
    Wi-Fi Direct itself uses 1.0 everywhere).
    """

    name: str
    max_range_m: float
    discovery_latency_s: float
    connection_latency_s: float
    transfer_latency_s: float
    deployed: bool = True  # LTE Direct is modelled but gated (Sec. IV-A)
    discovery_scale: float = 1.0
    connection_scale: float = 1.0
    tx_scale: float = 1.0
    rx_scale: float = 1.0
    link: LinkModel = dataclasses.field(default_factory=LinkModel)


class PeerInfo(NamedTuple):
    """What a discovery scan reveals about one nearby peer.

    An immutable named tuple: scans build one per surviving peer, and a
    tuple is about half the cost of a frozen dataclass to construct.

    ``advertisement`` is a **read-only view** of the peer's live service
    record, not a per-scan copy (scans used to deep-copy every record for
    every peer, which dominated dense-crowd scan cost). Consumers that
    need a point-in-time snapshot should take ``dict(peer.advertisement)``
    themselves; attempts to mutate the view raise ``TypeError``, so a
    misbehaving consumer can never corrupt the endpoint's record.
    """

    device_id: str
    rssi_dbm: float
    estimated_distance_m: float
    advertisement: Mapping[str, Any]


class D2DEndpoint:
    """One device's attachment to the D2D medium.

    ``advertisement`` is the small service record other devices see during
    discovery (role, remaining relay capacity, …). ``on_message`` receives
    ``(connection, sender_id, payload, size_bytes)``; ``on_disconnect``
    receives ``(connection, reason)``.
    """

    def __init__(
        self,
        device_id: str,
        mobility: MobilityModel,
        energy: Optional[EnergyModel] = None,
        advertisement: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.device_id = device_id
        self.mobility = mobility
        self.energy = energy
        self.advertisement: Dict[str, Any] = dict(advertisement or {})
        #: Live read-only view of ``advertisement``, shared by every
        #: ``PeerInfo`` naming this endpoint (one proxy per endpoint, not
        #: one per scan result). Stays valid because the record is only
        #: ever mutated in place, never rebound.
        self.advertisement_view: Mapping[str, Any] = types.MappingProxyType(
            self.advertisement
        )
        #: the medium this endpoint is registered with, and its
        #: registration seq there: the visibility setters write through
        #: to that medium's slot
        self._medium: Optional["D2DMedium"] = None
        self._slot = -1
        self._advertising = False
        self._powered_on = True
        #: Time of the last data receive — drives wake coalescing.
        self.last_data_rx_s = float("-inf")
        self.on_message: Optional[Callable[["D2DConnection", str, Any, int], None]] = None
        self.on_disconnect: Optional[Callable[["D2DConnection", str], None]] = None

    @property
    def advertising(self) -> bool:
        """Whether the service record is on air (scans find the endpoint
        while it is also powered on)."""
        return self._advertising

    @advertising.setter
    def advertising(self, value: bool) -> None:
        self._advertising = value
        self._write_visibility()

    @property
    def powered_on(self) -> bool:
        return self._powered_on

    @powered_on.setter
    def powered_on(self, value: bool) -> None:
        self._powered_on = value
        self._write_visibility()

    def _write_visibility(self) -> None:
        """Copy ``advertising and powered_on`` into the registered
        medium's slot, which scans read instead of this endpoint."""
        medium = self._medium
        if medium is not None:
            medium._visible[self._slot] = bool(self._advertising and self._powered_on)

    def position(self, t: float) -> Position:
        return self.mobility.position(t)

    def charge(
        self, phase: EnergyPhase, uah: float, time_s: float, duration_s: float = 0.0
    ) -> None:
        if self.energy is not None:
            self.energy.charge(phase, uah, time_s=time_s, duration_s=duration_s)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"D2DEndpoint({self.device_id!r}, advertising={self.advertising})"


class D2DConnection:
    """An established point-to-point D2D link.

    ``group_owner_id`` records which side won the Wi-Fi Direct GO
    negotiation (from the advertised ``go_intent`` values; the initiator
    is assumed to be a UE pinning intent 0 unless it advertises
    otherwise), matching the paper's Sec. IV-C setup where relays start at
    intent 15.
    """

    def __init__(
        self,
        medium: "D2DMedium",
        initiator: D2DEndpoint,
        responder: D2DEndpoint,
        established_at_s: float,
    ) -> None:
        self.medium = medium
        self.initiator = initiator
        self.responder = responder
        self.established_at_s = established_at_s
        initiator_intent = int(initiator.advertisement.get("go_intent", 0))
        responder_intent = int(responder.advertisement.get("go_intent", 0))
        self.group_owner_id = (
            initiator.device_id
            if initiator_intent > responder_intent
            else responder.device_id
        )
        self.alive = True
        self.messages_delivered = 0
        self.messages_lost = 0
        self.bytes_transferred = 0
        self._monitor: Optional[PeriodicProcess] = None
        #: ``(distance, per, initiator_pos, responder_pos)`` of a pair of
        #: endpoints with a zero speed bound, priced once at connect;
        #: ``None`` while either endpoint may move. Set by the medium.
        self._fixed_link: Optional[Tuple[float, float, Position, Position]] = None

    # ------------------------------------------------------------------
    def peer_of(self, device_id: str) -> D2DEndpoint:
        """The endpoint on the other side of ``device_id``."""
        if device_id == self.initiator.device_id:
            return self.responder
        if device_id == self.responder.device_id:
            return self.initiator
        raise D2DTransferError(f"{device_id} is not part of this connection")

    def endpoint_of(self, device_id: str) -> D2DEndpoint:
        if device_id == self.initiator.device_id:
            return self.initiator
        if device_id == self.responder.device_id:
            return self.responder
        raise D2DTransferError(f"{device_id} is not part of this connection")

    def current_distance_m(self) -> float:
        now = self.medium.sim.now
        return distance_between(self.initiator.position(now), self.responder.position(now))

    @property
    def duration_s(self) -> float:
        return self.medium.sim.now - self.established_at_s

    # ------------------------------------------------------------------
    def send(
        self,
        sender_id: str,
        size_bytes: int,
        payload: Any = None,
        on_result: Optional[Callable[[bool], None]] = None,
        control: bool = False,
    ) -> bool:
        """Transfer ``payload`` to the peer.

        Returns ``True`` if the transfer was started (delivery happens one
        transfer-latency later); ``False`` if the link was found dead or out
        of range — in which case the connection is torn down and
        ``on_result(False)`` fires immediately.

        ``control`` marks tiny protocol messages (feedback acks): they use
        the small fixed ack charge instead of the full forward/receive cost.
        """
        if size_bytes < 0:
            raise D2DTransferError(f"size_bytes must be non-negative: {size_bytes}")
        sender = self.endpoint_of(sender_id)
        receiver = self.peer_of(sender_id)
        now = self.medium.sim.now
        if not self.alive or not sender.powered_on or not receiver.powered_on:
            self.medium._break_connection(self, "peer unavailable")
            if on_result is not None:
                on_result(False)
            return False
        if not self.medium.link_allowed(sender.device_id, receiver.device_id):
            self.medium._break_connection(self, "link down")
            if on_result is not None:
                on_result(False)
            return False
        tech = self.medium.technology
        fixed = self._fixed_link
        if fixed is None:
            distance = self.current_distance_m()
            if distance > tech.max_range_m or not tech.link.in_range(distance):
                self.medium._break_connection(self, "out of range")
                if on_result is not None:
                    on_result(False)
                return False
            # near the coverage edge, frames are lost probabilistically
            # (PER); TX/RX energy is still spent — the frame went out, it
            # just didn't arrive. Zero inside comfortable range, so
            # calibrated experiments at 1-15 m are unaffected.
            per = tech.link.packet_error_rate(distance)
        else:
            # a fixed pair formed in range stays in range, at one PER
            distance, per, initiator_pos, responder_pos = fixed

        profile = self.medium.profile
        lost = per > 0.0 and self.medium.sim.rng.get("d2d-loss").random() < per
        transfer_latency_s = tech.transfer_latency_s
        if control:
            sender.charge(EnergyPhase.D2D_ACK, profile.relay_ack_uah, now)
            receiver.charge(EnergyPhase.D2D_ACK, profile.relay_ack_uah, now)
        else:
            channel = self.medium.channel
            if channel is None:
                charge_duration_s = profile.d2d_transfer_s
            else:
                # interference-aware mode: the transfer runs at the
                # Shannon rate the channel grants, and both sides pay
                # energy in proportion to the actual airtime (the fixed
                # per-message base charge is calibrated at d2d_transfer_s).
                # A fixed pair gets a fixed lease, which the channel
                # never re-resolves.
                if fixed is None:
                    tx_pos, rx_pos = sender.position(now), receiver.position(now)
                elif sender is self.initiator:
                    tx_pos, rx_pos = initiator_pos, responder_pos
                else:
                    tx_pos, rx_pos = responder_pos, initiator_pos
                grant = channel.begin_transfer(
                    sender.device_id,
                    receiver.device_id,
                    tx_pos,
                    rx_pos,
                    size_bytes,
                    now,
                    fixed=fixed is not None,
                )
                transfer_latency_s = grant.duration_s
                charge_duration_s = grant.duration_s
                airtime_scale = grant.duration_s / profile.d2d_transfer_s
            coalesced = (
                now - receiver.last_data_rx_s <= profile.d2d_rx_coalesce_window_s
            )
            tx_full = profile.ue_forward_cost_uah(size_bytes, distance)
            rx_full = profile.relay_receive_cost_uah(size_bytes, coalesced)
            if channel is None:
                tx_uah = tx_full * tech.tx_scale
                rx_uah = rx_full * tech.rx_scale
            else:
                # airtime scales only the time-dependent base charge; the
                # per-byte slope already grows with payload size, and so
                # does the grant duration, so scaling the full cost would
                # make energy quadratic in size.
                tx_base = profile.ue_forward_cost_uah(0, distance)
                rx_base = profile.relay_receive_cost_uah(0, coalesced)
                tx_uah = (
                    tx_base * airtime_scale + (tx_full - tx_base)
                ) * tech.tx_scale
                rx_uah = (
                    rx_base * airtime_scale + (rx_full - rx_base)
                ) * tech.rx_scale
            receiver.last_data_rx_s = now
            sender.charge(
                EnergyPhase.D2D_FORWARD, tx_uah, now, duration_s=charge_duration_s
            )
            receiver.charge(
                EnergyPhase.D2D_RECEIVE, rx_uah, now, duration_s=charge_duration_s
            )

        def deliver() -> None:
            if not self.alive or lost:
                self.messages_lost += 1
                if on_result is not None:
                    on_result(False)
                return
            self.messages_delivered += 1
            self.bytes_transferred += size_bytes
            if receiver.on_message is not None:
                receiver.on_message(self, sender_id, payload, size_bytes)
            if on_result is not None:
                on_result(True)

        self.medium.sim.schedule(transfer_latency_s, deliver, name="d2d_deliver")
        return True

    def close(self, reason: str = "closed") -> None:
        """Tear the connection down; idempotent."""
        self.medium._break_connection(self, reason)


#: Slots the seq-indexed endpoint arrays start with; they double when full.
_INITIAL_SLOTS = 64

#: ``random.Random.gauss``'s ``TWOPI``, for the inlined shadowing draw
_TWOPI = 2.0 * math.pi


class D2DMedium:
    """The shared D2D radio environment for one technology.

    Discovery reads endpoint state from arrays indexed by registration
    seq: coordinates, visibility (``advertising and powered_on``, written
    through by the endpoint's setters) and ids. Endpoints split by their
    mobility model's speed bound. Statics (a zero bound) write their
    coordinates once, at register, and sit in a spatial index. Every
    other endpoint is a mover: movers are never indexed, and their
    coordinates are rewritten once per instant from one
    :class:`TrajectoryBatch` call. A scan reads one candidate block of
    seqs per index cell, which holds no coordinates, so motion never
    invalidates it (see :meth:`_scan`).

    Parameters
    ----------
    sim:
        Owning simulator.
    technology:
        Which D2D technology this medium models.
    profile:
        Energy calibration (shared with the cellular side).
    link_check_period_s:
        How often live connections re-check range under mobility. Only
        connections that can change between sends are polled: those
        with an endpoint whose speed bound is nonzero or unknown, and
        every connection while a ``link_gate`` is installed. A pair of
        fixed endpoints formed within range stays within range, so
        polling it could never break it, and its sends reuse the
        distance and packet error rate priced at connect; power-off and
        unregister still break it directly, and every send re-checks the
        gate (and, for any other pair, range).
    allow_undeployed:
        LTE Direct is modelled but flagged undeployed (the paper abandons
        it "for generality consideration"); using it requires opting in.
    group_aware:
        When true, connecting to a responder that already owns a live
        group is a *join* rather than a fresh formation: faster and
        cheaper on the responder side (no second GO negotiation). Off by
        default so the Table III/IV calibration — measured on pairwise
        formations — stays exact.
    group_join_discount:
        Fraction of the connection latency/energy a join costs.
    channel:
        Optional interference-aware channel model. When set, data
        transfers run at Shannon-capacity rates under co-channel
        interference and bill energy per actual airtime; when ``None``
        (the default) the fixed latency/energy constants apply and
        behaviour is byte-identical to the pre-channel implementation.
    """

    def __init__(
        self,
        sim: Simulator,
        technology: D2DTechnology,
        profile: EnergyProfile = DEFAULT_PROFILE,
        link_check_period_s: float = 5.0,
        allow_undeployed: bool = False,
        group_aware: bool = False,
        group_join_discount: float = 0.5,
        channel: Optional[ChannelModel] = None,
    ) -> None:
        if not 0.0 < group_join_discount <= 1.0:
            raise ValueError(
                f"group_join_discount must be in (0,1], got {group_join_discount}"
            )
        if not technology.deployed and not allow_undeployed:
            raise ValueError(
                f"{technology.name} is not deployed in the modelled network; "
                "pass allow_undeployed=True to simulate it anyway"
            )
        self.sim = sim
        self.technology = technology
        self.profile = profile
        self.link_check_period_s = link_check_period_s
        self.group_aware = group_aware
        self.group_join_discount = group_join_discount
        self.channel = channel
        if channel is not None:
            # SINR evaluation reads co-channel transmitters' *current*
            # positions through this hook instead of the stale ones their
            # leases recorded at their own last transfer. Mobility models
            # are analytic, so the hook keeps channel mode replayable.
            channel.position_resolver = self._channel_position
        self.perf = PerfCounters()
        self._endpoints: Dict[str, D2DEndpoint] = {}
        #: device_id → fixed position for endpoints whose mobility model
        #: has a zero speed bound, read as the scan origin of a static
        #: requester. Clearing this dict (tests do) falls back to live
        #: position lookups.
        self._static_pos: Dict[str, Position] = {}
        #: registration seq per device — scan survivors come out in seq
        #: order, so scans examine peers in exactly the order a full walk
        #: of ``_endpoints`` would, keeping RSSI noise draws and result
        #: ordering independent of the blocks. ``_next_seq`` is monotonic
        #: (never reused after unregister), so two different registration
        #: histories can never collide on a seq, and a newly registered
        #: endpoint always holds the largest seq.
        self._seq: Dict[str, int] = {}
        self._next_seq = 0
        #: seq-indexed endpoint state: coordinates (a static's from
        #: register on, a mover's as of ``_mover_t``), visibility and id.
        #: An unregistered seq's slot is hidden and holds no id.
        self._x = _np.zeros(_INITIAL_SLOTS)
        self._y = _np.zeros(_INITIAL_SLOTS)
        self._visible = _np.zeros(_INITIAL_SLOTS, dtype=bool)
        self._ids = _np.full(_INITIAL_SLOTS, None, dtype=object)
        #: endpoints with a zero speed bound, binned once. Cells are one
        #: radio range wide, so the 3×3 cells around a scan's cell cover
        #: its range from anywhere in that cell.
        self._static_index = SpatialIndex(technology.max_range_m)
        #: index cell → the candidate block of scans from it: the sorted
        #: int64 seqs of every static in the 3×3 cells around it and of
        #: every mover. A static register/unregister evicts the blocks of
        #: the 3×3 cells around the static's own cell; a mover
        #: register/unregister adds or drops its seq in every block. A
        #: cell with no static within one cell stores no block, so the
        #: dict is bounded by the static crowd's footprint.
        self._blocks: Dict[Cell, _np.ndarray] = {}
        #: every endpoint whose speed bound is nonzero or unknown, in
        #: registration order. Movers are not indexed: every block holds
        #: them all. A mover register or unregister drops the mover seqs
        #: and the batch; the next scan rebuilds them.
        self._movers: Dict[str, D2DEndpoint] = {}
        self._mover_seqs: Optional[_np.ndarray] = None
        self._mover_batch: Optional[TrajectoryBatch] = None
        #: instant the movers' slots were last written at
        self._mover_t: Optional[float] = None
        #: insertion-ordered live-connection set and per-endpoint adjacency
        #: (dicts as ordered sets: O(1) add/remove, stable iteration)
        self._connections: Dict[D2DConnection, None] = {}
        self._adjacency: Dict[str, Dict[D2DConnection, None]] = {}
        self._link_gate: Optional[Callable[[str, str], bool]] = None
        # statistics
        self.discoveries = 0
        self.connections_established = 0
        self.connections_failed = 0
        self.connections_broken = 0
        self.group_joins = 0

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def register(self, endpoint: D2DEndpoint) -> None:
        device_id = endpoint.device_id
        if device_id in self._endpoints:
            raise ValueError(f"duplicate endpoint {device_id}")
        if endpoint._medium is not None:
            raise ValueError(f"{device_id} is registered with another medium")
        seq = self._next_seq
        if seq == self._ids.size:
            self._grow()
        self._next_seq = seq + 1
        self._seq[device_id] = seq
        self._endpoints[device_id] = endpoint
        self._ids[seq] = device_id
        endpoint._medium = self
        endpoint._slot = seq
        endpoint._write_visibility()
        if endpoint.mobility.max_speed_m_s() != 0.0:
            self._movers[device_id] = endpoint
            self._mover_seqs = None
            # the largest seq yet: appending keeps every block sorted
            blocks = self._blocks
            for cell, block in blocks.items():
                blocks[cell] = _np.append(block, seq)
            return
        # a zero speed bound means the position is time-invariant:
        # write it once and spare every future scan the call.
        position = endpoint.position(self.sim.now)
        self._static_pos[device_id] = position
        self._x[seq], self._y[seq] = position
        self._evict_blocks(self._static_index.insert(device_id, position))

    def unregister(self, device_id: str) -> None:
        """Remove an endpoint from the medium entirely.

        Breaks its live connections, then drops every trace of it —
        endpoint map, registration seq and slot, static memo, spatial
        index, mover set — and detaches the endpoint, so its visibility
        setters stop writing to the slot. The sharded kernel churns ghost
        endpoints (statics) through this every sync window, so a static
        evicts only the blocks around its cell; a mover drops its seq
        from every block.
        """
        self.endpoint(device_id)  # keep the unknown-device KeyError contract
        for connection in list(self._adjacency.get(device_id, ())):
            self._break_connection(connection, "peer unregistered")
        endpoint = self._endpoints.pop(device_id)
        seq = self._seq.pop(device_id)
        self._visible[seq] = False
        self._ids[seq] = None
        endpoint._medium = None
        endpoint._slot = -1
        if self._movers.pop(device_id, None) is not None:
            self._mover_seqs = None
            blocks = self._blocks
            for cell, block in blocks.items():
                blocks[cell] = block[block != seq]
            return
        self._static_pos.pop(device_id, None)
        self._evict_blocks(self._static_index.remove(device_id))

    def _grow(self) -> None:
        """Double the seq-indexed arrays; new slots are hidden."""
        size = self._ids.size
        self._x = _np.concatenate((self._x, _np.zeros(size)))
        self._y = _np.concatenate((self._y, _np.zeros(size)))
        self._visible = _np.concatenate((self._visible, _np.zeros(size, dtype=bool)))
        self._ids = _np.concatenate((self._ids, _np.full(size, None, dtype=object)))

    def _evict_blocks(self, cell: Cell) -> None:
        """Drop the blocks that cover ``cell``: those keyed by it and by
        its eight neighbours."""
        blocks = self._blocks
        if not blocks:
            return
        cx, cy = cell
        for x in (cx - 1, cx, cx + 1):
            for y in (cy - 1, cy, cy + 1):
                blocks.pop((x, y), None)

    def endpoint(self, device_id: str) -> D2DEndpoint:
        try:
            return self._endpoints[device_id]
        except KeyError:
            raise KeyError(f"no endpoint registered for {device_id!r}") from None

    def _channel_position(self, device_id: str, t: float) -> Optional[Position]:
        """Current position of a device for the channel's SINR refresh
        (``None`` for ids the medium no longer knows, e.g. after tests
        drop endpoints — the lease then keeps its last-known position)."""
        endpoint = self._endpoints.get(device_id)
        return None if endpoint is None else endpoint.position(t)

    def power_off(self, device_id: str) -> None:
        """Device died: drop its endpoint state and break its connections."""
        endpoint = self.endpoint(device_id)
        endpoint.powered_on = False
        endpoint.advertising = False
        for connection in list(self._adjacency.get(device_id, ())):
            self._break_connection(connection, "peer powered off")

    def power_on(self, device_id: str) -> None:
        """Device came back: restore radio power (advertising stays off)."""
        self.endpoint(device_id).powered_on = True

    def connections_of(self, device_id: str) -> List[D2DConnection]:
        self.endpoint(device_id)  # keep the unknown-device KeyError contract
        return list(self._adjacency.get(device_id, ()))

    def live_connections(self) -> List[D2DConnection]:
        """Snapshot of every currently established connection."""
        return list(self._connections)

    @property
    def link_gate(self) -> Optional[Callable[[str, str], bool]]:
        """Optional veto on pairwise reachability (chaos link flap).

        Called as ``link_gate(a_id, b_id)``; returning ``False`` makes the
        pair mutually unreachable — discovery hides them, connects fail,
        live links break at the next send or link check. Installing a gate
        arms a link monitor on every live connection that lacks one (the
        fixed pairs), first firing on the tick that connection's monitor
        would have had if it had been polled all along.
        """
        return self._link_gate

    @link_gate.setter
    def link_gate(self, gate: Optional[Callable[[str, str], bool]]) -> None:
        self._link_gate = gate
        if gate is None:
            return
        now = self.sim.now
        period = self.link_check_period_s
        for connection in self._connections:
            if connection._monitor is not None:
                continue
            # same repeated addition PeriodicProcess uses, so the ticks
            # are bit-identical to a monitor armed at establishment
            first_s = connection.established_at_s + period
            while first_s <= now:
                first_s += period
            # armed at the absolute tick: every(start_after=first_s - now)
            # would round through the subtraction and shift the tick
            monitor = PeriodicProcess(
                self.sim, period, self._check_link, (connection,), "d2d_link_check"
            )
            monitor._event = self.sim.schedule_at(
                first_s, monitor._fire, name="d2d_link_check"
            )
            connection._monitor = monitor

    def link_allowed(self, a_id: str, b_id: str) -> bool:
        """Whether the gate (if any) permits the ``a``–``b`` pair."""
        gate = self._link_gate
        return gate is None or gate(a_id, b_id)

    # ------------------------------------------------------------------
    # discovery
    # ------------------------------------------------------------------
    def discover(
        self,
        requester_id: str,
        on_complete: Callable[[List[PeerInfo]], None],
        rssi_noise: bool = True,
    ) -> None:
        """Scan for advertising peers in range.

        Completes after the technology's discovery latency. Only the
        requester pays a discovery charge (its active scan); answering a
        probe is a single frame and is booked as free. The responder's
        discovery-phase cost — its own find-phase participation — is paid
        when a connection is actually formed (see :meth:`connect`), which
        is exactly how the paper's 1:1 Table III measurement decomposes.
        """
        requester = self.endpoint(requester_id)
        if not requester.powered_on:
            raise D2DTransferError(f"{requester_id} is powered off")
        now = self.sim.now
        self.discoveries += 1
        tech = self.technology
        requester.charge(
            EnergyPhase.D2D_DISCOVERY,
            self.profile.ue_discovery_uah * tech.discovery_scale,
            now,
            duration_s=tech.discovery_latency_s,
        )

        def finish() -> None:
            t = self.sim.now
            rng = self.sim.rng.get("d2d-discovery") if rssi_noise else None
            origin = self._static_pos.get(requester_id)
            if origin is None:
                origin = requester.position(t)
            found = self._scan(requester_id, origin, t, rng)
            # reverse=True keeps insertion order for equal RSSI (stable
            # sort), exactly like the previous ascending negated-key sort.
            found.sort(key=_RSSI_KEY, reverse=True)
            perf = self.perf
            perf.scans += 1
            perf.scan_peers_returned += len(found)
            on_complete(found)

        self.sim.schedule(tech.discovery_latency_s, finish, name="d2d_discover")

    def _scan(
        self,
        requester_id: str,
        origin: Position,
        t: float,
        rng: Optional[random.Random],
    ) -> List[PeerInfo]:
        """Advertising, reachable peers in range of ``origin`` at ``t``.

        The candidates are the block of the origin's index cell: the seqs
        of the statics around it and of every mover, sorted. One numpy
        pass gathers their coordinates and visibility from the
        seq-indexed arrays and keeps the candidates in range and visible,
        discarding the majority in C; the survivors come out in seq
        order, the order a walk over every endpoint would visit them.
        Running the range and visibility filters ahead of the others is
        safe for determinism because the survivor set of *all* filters —
        the only candidates that reach the RSSI noise draw — is
        order-independent. The test suite keeps that walk as the oracle.

        The survivor loop inlines :meth:`LinkModel.probe`,
        :meth:`~LinkModel.shadowed` and :meth:`~LinkModel.estimate_distance`
        with the model fields hoisted. Their arithmetic stays the *same
        scalar IEEE-754 sequence* as :func:`~repro.d2d.link.rssi_at` and
        :func:`~repro.d2d.link.distance_from_rssi` on purpose:
        ``numpy.log10`` is not guaranteed correctly rounded, and the
        sensitivity cutoff sits on the result, so a last-ulp difference
        could flip a candidate in or out of range and desynchronize the
        RSSI noise stream from the oracle's per-peer walk.

        The shadowing draw inlines ``random.Random.gauss`` statement for
        statement (its Box–Muller pair cache lives in ``rng.gauss_next``,
        read once and written back, also around a link gate call), so the
        values and the generator state equal per-peer ``rng.gauss`` calls.
        """
        movers = self._movers_at(t)
        cell = self._static_index._cell_of(origin)
        block = self._blocks.get(cell)
        if block is None:
            block = self._block_for(cell, origin, movers)
        perf = self.perf
        perf.vectorized_scans += 1
        perf.scan_candidates_examined += len(block) - 1
        # sqrt(dx*dx + dy*dy) elementwise is the exact IEEE-754 sequence
        # distance_between performs (sub, mul, mul, add, sqrt, each
        # correctly rounded), so every distance is bit-identical to it.
        dx = self._x[block] - origin[0]
        dy = self._y[block] - origin[1]
        distances = _np.sqrt(dx * dx + dy * dy)
        in_range = distances <= self.technology.max_range_m
        hits = (in_range & self._visible[block]).nonzero()[0]
        found: List[PeerInfo] = []
        if not len(hits):
            return found
        link = self.technology.link
        tx = link.tx_power_dbm
        ref_db = link.path_loss_at_ref_db
        slope = 10.0 * link.path_loss_exponent
        ref_m = link.reference_m
        floor = link.sensitivity_dbm
        sigma = link.shadowing_sigma_db
        draw = rng is not None and sigma > 0
        if draw:
            uniform = rng.random
            pending = rng.gauss_next
        log10 = math.log10
        log, sqrt, cos, sin = math.log, math.sqrt, math.cos, math.sin
        gate = self._link_gate
        endpoints = self._endpoints
        new = tuple.__new__
        append = found.append
        # .tolist() converts to exact python floats, so no numpy scalar
        # ever reaches the scalar math or a PeerInfo.
        for device_id, distance_m in zip(
            self._ids[block[hits]].tolist(), distances[hits].tolist()
        ):
            if device_id == requester_id:
                continue
            d = distance_m if distance_m > 0.01 else 0.01
            rssi = tx - (ref_db + slope * log10(d / ref_m))
            if rssi < floor:
                continue
            if gate is not None:
                if draw:
                    rng.gauss_next = pending
                    allowed = gate(requester_id, device_id)
                    pending = rng.gauss_next
                else:
                    allowed = gate(requester_id, device_id)
                if not allowed:
                    continue
            if draw:
                if pending is None:
                    x2pi = uniform() * _TWOPI
                    g2rad = sqrt(-2.0 * log(1.0 - uniform()))
                    z = cos(x2pi) * g2rad
                    pending = sin(x2pi) * g2rad
                else:
                    z = pending
                    pending = None
                rssi += 0.0 + z * sigma
            append(
                new(
                    PeerInfo,
                    (
                        device_id,
                        rssi,
                        ref_m * 10.0 ** ((tx - rssi - ref_db) / slope),
                        endpoints[device_id].advertisement_view,
                    ),
                )
            )
        if draw:
            rng.gauss_next = pending
        return found

    def _movers_at(self, t: float) -> _np.ndarray:
        """The movers' seqs, with their slots holding their coordinates
        at ``t``.

        The seqs (in registration order) and the :class:`TrajectoryBatch`
        are rebuilt after the mover set changed; the slots are rewritten
        once per instant, which is exact because mobility is analytic,
        so a same-instant cohort of scans pays for them once.
        """
        seqs = self._mover_seqs
        if seqs is None:
            movers = self._movers
            seq = self._seq
            seqs = _np.array([seq[device_id] for device_id in movers], dtype=_np.int64)
            self._mover_seqs = seqs
            self._mover_batch = TrajectoryBatch(
                [endpoint.mobility for endpoint in movers.values()]
            )
            self._mover_t = None
        if t != self._mover_t and len(seqs):
            self._x[seqs], self._y[seqs] = self._mover_batch.positions(t)
            self._mover_t = t
        return seqs

    def _block_for(self, cell: Cell, origin: Position, movers: _np.ndarray) -> _np.ndarray:
        """The candidate block for scans from ``cell`` (``origin`` lies in
        it): the seqs of every static of the 3×3 cells around it merged
        with ``movers``, the mover seqs, in seq order.

        Stored until a static registers or unregisters within one cell of
        ``cell``; a mover register or unregister edits it in place. A cell
        with no static within one cell stores nothing: its scans read
        ``movers`` itself, after one index query each.
        """
        perf = self.perf
        perf.index_queries += 1
        ids = self._static_index.query_block(origin, self.technology.max_range_m)
        if not ids:
            return movers
        seq = self._seq
        statics = _np.array([seq[device_id] for device_id in ids], dtype=_np.int64)
        block = _np.sort(_np.concatenate((statics, movers)))
        self._blocks[cell] = block
        perf.vector_block_builds += 1
        return block

    # ------------------------------------------------------------------
    # connection establishment
    # ------------------------------------------------------------------
    def connect(
        self,
        initiator_id: str,
        responder_id: str,
        on_complete: Callable[[Optional[D2DConnection]], None],
    ) -> None:
        """Establish a connection; ``on_complete(None)`` on failure.

        The responder pays its deferred discovery-phase charge here (its
        find-phase participation in the GO negotiation) plus connection;
        the initiator already paid discovery at scan time.
        """
        if initiator_id == responder_id:
            raise D2DTransferError(f"{initiator_id} cannot connect to itself")
        initiator = self.endpoint(initiator_id)
        responder = self.endpoint(responder_id)
        if not initiator.powered_on:
            raise D2DTransferError(f"{initiator_id} is powered off")
        now = self.sim.now
        tech = self.technology
        # joining an existing group skips the second GO negotiation
        is_join = self.group_aware and bool(self._adjacency.get(responder_id))
        join_scale = self.group_join_discount if is_join else 1.0
        if is_join:
            self.group_joins += 1
        connect_latency = tech.connection_latency_s * join_scale
        initiator.charge(
            EnergyPhase.D2D_CONNECTION,
            self.profile.ue_connection_uah * tech.connection_scale * join_scale,
            now,
            duration_s=connect_latency,
        )
        responder.charge(
            EnergyPhase.D2D_DISCOVERY,
            self.profile.relay_discovery_uah * tech.discovery_scale * join_scale,
            now,
            duration_s=tech.discovery_latency_s * join_scale,
        )
        responder.charge(
            EnergyPhase.D2D_CONNECTION,
            self.profile.relay_connection_uah * tech.connection_scale * join_scale,
            now,
            duration_s=connect_latency,
        )

        def finish() -> None:
            t = self.sim.now
            initiator_pos = initiator.position(t)
            responder_pos = responder.position(t)
            distance = distance_between(initiator_pos, responder_pos)
            if (
                not responder.powered_on
                or not initiator.powered_on
                or distance > tech.max_range_m
                or not tech.link.in_range(distance)
                or not self.link_allowed(initiator_id, responder_id)
            ):
                self.connections_failed += 1
                on_complete(None)
                return
            connection = D2DConnection(self, initiator, responder, t)
            self._connections[connection] = None
            self._adjacency.setdefault(initiator_id, {})[connection] = None
            self._adjacency.setdefault(responder_id, {})[connection] = None
            self.connections_established += 1
            # A fixed pair formed in range stays in range: price its link
            # once, and poll only when an endpoint may move or a gate may
            # veto the link later.
            fixed = (
                initiator.mobility.max_speed_m_s() == 0.0
                and responder.mobility.max_speed_m_s() == 0.0
            )
            if fixed:
                connection._fixed_link = (
                    distance,
                    tech.link.packet_error_rate(distance),
                    initiator_pos,
                    responder_pos,
                )
            if self._link_gate is not None or not fixed:
                connection._monitor = self.sim.every(
                    self.link_check_period_s,
                    self._check_link,
                    connection,
                    name="d2d_link_check",
                )
            on_complete(connection)

        self.sim.schedule(connect_latency, finish, name="d2d_connect")

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_link(self, connection: D2DConnection) -> None:
        if not connection.alive:
            return
        if not self.link_allowed(
            connection.initiator.device_id, connection.responder.device_id
        ):
            self._break_connection(connection, "link down")
            return
        distance = connection.current_distance_m()
        if distance > self.technology.max_range_m or not self.technology.link.in_range(
            distance
        ):
            self._break_connection(connection, "out of range")

    def _break_connection(self, connection: D2DConnection, reason: str) -> None:
        if not connection.alive:
            return
        connection.alive = False
        if connection._monitor is not None:
            connection._monitor.stop()
            connection._monitor = None
        self._connections.pop(connection, None)
        for device_id in (connection.initiator.device_id, connection.responder.device_id):
            adjacency = self._adjacency.get(device_id)
            if adjacency is not None:
                adjacency.pop(connection, None)
                if not adjacency:
                    del self._adjacency[device_id]
        self.connections_broken += 1
        for endpoint in (connection.initiator, connection.responder):
            if endpoint.on_disconnect is not None:
                endpoint.on_disconnect(connection, reason)
