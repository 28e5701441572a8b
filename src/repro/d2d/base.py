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
from typing import Any, Callable, Dict, List, Mapping, Optional, Set

import numpy as _np

from repro.channel.model import ChannelModel
from repro.d2d.link import LinkModel
from repro.energy.model import EnergyModel, EnergyPhase
from repro.energy.profiles import DEFAULT_PROFILE, EnergyProfile
from repro.mobility.index import SpatialIndex
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


@dataclasses.dataclass(frozen=True, slots=True)
class PeerInfo:
    """What a discovery scan reveals about one nearby peer.

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
        self.advertising = False
        self.powered_on = True
        #: Time of the last data receive — drives wake coalescing.
        self.last_data_rx_s = float("-inf")
        self.on_message: Optional[Callable[["D2DConnection", str, Any, int], None]] = None
        self.on_disconnect: Optional[Callable[["D2DConnection", str], None]] = None

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
        distance = self.current_distance_m()
        if distance > self.medium.technology.max_range_m or not self.medium.technology.link.in_range(
            distance
        ):
            self.medium._break_connection(self, "out of range")
            if on_result is not None:
                on_result(False)
            return False

        profile = self.medium.profile
        tech = self.medium.technology
        # near the coverage edge, frames are lost probabilistically (PER);
        # TX/RX energy is still spent — the frame went out, it just didn't
        # arrive. Zero inside comfortable range, so calibrated experiments
        # at 1-15 m are unaffected.
        per = tech.link.packet_error_rate(distance)
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
                # A pair of static endpoints gets a fixed lease, which the
                # channel never re-resolves.
                static = self.medium._static_pos
                grant = channel.begin_transfer(
                    sender.device_id,
                    receiver.device_id,
                    sender.position(now),
                    receiver.position(now),
                    size_bytes,
                    now,
                    fixed=sender.device_id in static
                    and receiver.device_id in static,
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


class _VectorBlock:
    """Aligned coordinate arrays for one ``(cell, k)`` candidate block.

    ``ids`` is the registration-order-sorted merged block (index cells +
    unindexed side set, requester *not* filtered — the block is shared by
    every requester scanning from the same cell). Static endpoints have
    their coordinates baked in at build time; dynamic ones are listed in
    ``_dynamic`` and refreshed into the arrays on every scan before the
    numpy distance evaluation.
    """

    __slots__ = ("ids", "xs", "ys", "_dynamic")

    def __init__(self, ids, endpoints, static_pos) -> None:
        n = len(ids)
        xs = _np.empty(n)
        ys = _np.empty(n)
        dynamic = []
        for i, device_id in enumerate(ids):
            pos = static_pos.get(device_id)
            if pos is not None:
                xs[i] = pos[0]
                ys[i] = pos[1]
            else:
                dynamic.append((i, endpoints[device_id]))
        self.ids = ids
        self.xs = xs
        self.ys = ys
        self._dynamic = dynamic

    def distances_from(self, origin: Position, t: float):
        """Refresh dynamic coordinates, then the block distances to
        ``origin`` as one numpy array.

        ``sqrt(dx*dx + dy*dy)`` elementwise is the exact IEEE-754
        operation sequence :func:`repro.mobility.space.distance_between`
        performs (sub, mul, mul, add, sqrt — each correctly rounded), so
        every element is bit-identical to a per-peer scalar distance.
        """
        xs = self.xs
        ys = self.ys
        for i, endpoint in self._dynamic:
            x, y = endpoint.position(t)
            xs[i] = x
            ys[i] = y
        dx = xs - origin[0]
        dy = ys - origin[1]
        return _np.sqrt(dx * dx + dy * dy)


class D2DMedium:
    """The shared D2D radio environment for one technology.

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
        polling it could never break it; power-off and unregister still
        break it directly, and every send re-checks gate and range.
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
    index_refresh_s:
        How stale the binned positions of *moving* endpoints may get
        before a scan triggers an incremental re-bin pass. Between
        passes, queries widen by ``max mobile speed × staleness`` so a
        mover can never escape its candidate cells unseen. Static
        endpoints are binned once and never touched.
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
        index_refresh_s: float = 1.0,
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
        if index_refresh_s <= 0:
            raise ValueError(f"index_refresh_s must be positive, got {index_refresh_s}")
        self.sim = sim
        self.technology = technology
        self.profile = profile
        self.link_check_period_s = link_check_period_s
        self.group_aware = group_aware
        self.group_join_discount = group_join_discount
        self.index_refresh_s = index_refresh_s
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
        #: has a zero speed bound: their position never changes, so
        #: coordinate blocks bake it in instead of calling ``position(t)``
        #: on every scan. Clearing this dict (tests do) falls back to live
        #: position lookups.
        self._static_pos: Dict[str, Position] = {}
        #: (cell, k) → _VectorBlock. One *global* stamp covers the whole
        #: dict — the stamp has no per-key component — so any
        #: membership/bin change clears it outright, keeping it bounded by
        #: the number of distinct blocks scanned since the last change.
        self._vector_blocks: Dict[tuple, _VectorBlock] = {}
        self._vector_blocks_stamp: Optional[tuple] = None
        #: registration order per device — candidate sets from the spatial
        #: index are re-sorted by this so scans examine peers in exactly
        #: the order a full walk of ``_endpoints`` would, keeping RSSI
        #: noise draws and result ordering independent of the index.
        #: ``_next_seq`` is monotonic (never reused after unregister), so
        #: two different registration histories can never collide on a
        #: sequence number.
        self._seq: Dict[str, int] = {}
        self._next_seq = 0
        self._index = SpatialIndex(technology.max_range_m)
        #: endpoints with a finite, nonzero speed bound (rebinned lazily);
        #: refresh passes evaluate them through a TrajectoryBatch rebuilt
        #: whenever the membership version moves
        self._mobile: Dict[str, D2DEndpoint] = {}
        self._mobile_version = 0
        self._mobile_batch: Optional[TrajectoryBatch] = None
        self._mobile_batch_version = -1
        #: endpoints whose mobility model has no known speed bound: the
        #: index can't promise they stay near their bin, so scans always
        #: examine them exactly. ``_unindexed_version`` bumps on every
        #: membership change of this set — it is the vector-block stamp's
        #: second component because unindexed churn never touches the
        #: index version.
        self._unindexed: Set[str] = set()
        self._unindexed_version = 0
        self._max_mobile_speed = 0.0
        self._last_refresh_s = sim.now
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
        if endpoint.device_id in self._endpoints:
            raise ValueError(f"duplicate endpoint {endpoint.device_id}")
        device_id = endpoint.device_id
        self._seq[device_id] = self._next_seq
        self._next_seq += 1
        self._endpoints[device_id] = endpoint
        max_speed = endpoint.mobility.max_speed_m_s()
        if max_speed == 0.0:
            # a zero speed bound means the position is time-invariant:
            # memoise it once and spare every future scan the call.
            self._static_pos[device_id] = endpoint.position(self.sim.now)
        if max_speed is None:
            self._unindexed.add(device_id)
            self._unindexed_version += 1
            return
        self._index.insert(device_id, endpoint.position(self.sim.now))
        if max_speed > 0.0:
            self._mobile[device_id] = endpoint
            self._mobile_version += 1
            if max_speed > self._max_mobile_speed:
                self._max_mobile_speed = max_speed

    def unregister(self, device_id: str) -> None:
        """Remove an endpoint from the medium entirely.

        Breaks its live connections, then drops every trace of it —
        endpoint map, registration sequence, static memo, mobile set,
        unindexed set, spatial index. The sharded kernel churns ghost
        endpoints through this every sync window, so the vector-block
        stamp must move: the index version covers indexed members, and
        ``_unindexed_version`` covers the side set.
        """
        self.endpoint(device_id)  # keep the unknown-device KeyError contract
        for connection in list(self._adjacency.get(device_id, ())):
            self._break_connection(connection, "peer unregistered")
        del self._endpoints[device_id]
        del self._seq[device_id]
        self._static_pos.pop(device_id, None)
        if device_id in self._unindexed:
            self._unindexed.discard(device_id)
            self._unindexed_version += 1
            return
        if self._mobile.pop(device_id, None) is not None:
            self._mobile_version += 1
        self._index.remove(device_id)
        # _max_mobile_speed stays a (possibly loose) upper bound while
        # movers remain: queries only ever widen, so candidate supersets
        # remain supersets. _refresh_index drops it once the last leaves.

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

        One numpy pass over the shared ``(cell, k)`` coordinate block
        computes every candidate distance and discards the out-of-range
        majority in C. Reordering the range filter ahead of the
        advertising filter is safe for determinism because the survivor
        set of *all* filters — the only candidates that reach the RSSI
        noise draw — is order-independent, and survivors are visited in
        registration order, exactly as a walk over every endpoint would
        visit them. The test suite keeps that walk as the oracle.
        """
        block = self._vector_block_for(origin, t)
        perf = self.perf
        perf.vectorized_scans += 1
        ids = block.ids
        perf.scan_candidates_examined += len(ids) - 1
        link = self.technology.link
        distances = block.distances_from(origin, t)
        keep = _np.nonzero(distances <= self.technology.max_range_m)[0]
        # .tolist() converts to exact python floats, and probe_block keeps
        # the per-element math bit-identical to probe — no numpy scalar
        # ever leaks into a PeerInfo.
        probed = link.probe_block(distances[keep].tolist())
        shadowed = link.shadowed
        estimate_distance = link.estimate_distance
        link_allowed = self.link_allowed
        endpoints = self._endpoints
        found: List[PeerInfo] = []
        for j, idx in enumerate(keep.tolist()):
            device_id = ids[idx]
            if device_id == requester_id:
                continue
            peer = endpoints[device_id]
            if not (peer.advertising and peer.powered_on):
                continue
            mean_rssi = probed[j]
            if mean_rssi is None:
                continue
            if not link_allowed(requester_id, device_id):
                continue
            rssi = shadowed(mean_rssi, rng)
            found.append(
                PeerInfo(
                    device_id=device_id,
                    rssi_dbm=rssi,
                    estimated_distance_m=estimate_distance(rssi),
                    advertisement=peer.advertisement_view,
                )
            )
        return found

    def _vector_block_for(self, origin: Position, t: float) -> _VectorBlock:
        """The shared coordinate block for scans from ``origin``'s cell.

        The block merges the index's ``(2k+1)²`` candidate cells (range +
        drift slack) with the always-checked unindexed set. The whole dict
        is cleared when the global stamp moves: every register and
        unregister bumps either the index version or
        ``_unindexed_version``, and every cross-cell rebin bumps the
        index version, so a stamp match means no block membership changed.
        """
        index = self._index
        self._refresh_index(t)
        slack = self._max_mobile_speed * (t - self._last_refresh_s)
        max_range = self.technology.max_range_m
        cell = index._cell_of(origin)
        k = max(0, math.ceil((max_range + slack) / index.cell_size_m))
        stamp = (index._version, self._unindexed_version)
        blocks = self._vector_blocks
        if stamp != self._vector_blocks_stamp:
            blocks.clear()
            self._vector_blocks_stamp = stamp
        key = (cell, k)
        block = blocks.get(key)
        if block is not None:
            return block
        ids = index.query_block(origin, max_range, slack)
        # indexed and unindexed endpoints are disjoint, so no duplicates
        ids.extend(self._unindexed)
        ids.sort(key=self._seq.__getitem__)
        block = _VectorBlock(ids, self._endpoints, self._static_pos)
        blocks[key] = block
        perf = self.perf
        perf.index_queries += 1
        perf.vector_block_builds += 1
        return block

    def _refresh_index(self, t: float) -> None:
        """Re-bin moving endpoints once their drift bound grows stale.

        Positions come from a :class:`TrajectoryBatch` so blocks of
        straight-line movers are evaluated in one numpy multiply-add
        instead of N ``position()`` calls. Update order (affine block
        first, then the exact remainder) differs from dict order, but the
        index only bins candidates — scans re-sort by registration
        sequence — so discovery output is unaffected.

        With no movers left there is no drift, so the speed bound drops to
        zero; kept, it would widen every later scan by ``speed × time since
        the last mover left`` without limit.
        """
        if not self._mobile:
            self._max_mobile_speed = 0.0
            return
        if t - self._last_refresh_s < self.index_refresh_s:
            return
        index = self._index
        batch = self._mobile_batch
        if batch is None or self._mobile_batch_version != self._mobile_version:
            batch = TrajectoryBatch(
                [(d, ep.mobility) for d, ep in self._mobile.items()]
            )
            self._mobile_batch = batch
            self._mobile_batch_version = self._mobile_version
        update = index.update
        for device_id, x, y in batch.positions_at(t):
            update(device_id, (x, y))
        self._last_refresh_s = t
        self.perf.index_updates = index.updates

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
            distance = distance_between(initiator.position(t), responder.position(t))
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
            # A fixed pair formed in range stays in range: poll only when
            # an endpoint may move or a gate may veto the link later.
            if (
                self._link_gate is not None
                or initiator.mobility.max_speed_m_s() != 0.0
                or responder.mobility.max_speed_m_s() != 0.0
            ):
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
