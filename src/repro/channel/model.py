"""The channel model: per-transfer SINR, capacity, airtime, and leases.

:class:`ChannelModel` is the one object `D2DMedium` talks to in channel
mode. For each transfer it

1. reaps idle resource-block leases,
2. finds (or admits, via the configured :class:`RBAllocator`) the lease
   for the directed link ``"sender->receiver"``,
3. computes the SINR at the receiver against every co-channel lease
   currently live,
4. turns that into a Shannon-capacity rate and an airtime, and
5. extends the lease's busy horizon and records the sample into
   :class:`ChannelStats`.

No RNG anywhere: given the same sequence of ``begin_transfer`` calls the
model produces the same grants, so channel-mode runs replay
byte-identically from ``(scenario, seed)``.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Union

from repro.channel.allocator import (
    LinkRequest,
    RBAllocator,
    make_allocator,
    received_mw_block,
)
from repro.channel.phy import (
    shannon_capacity_bps,
    sinr_db,
    sinr_db_mw,
    thermal_noise_dbm,
)
from repro.channel.rb import RBLease, ResourceBlockPool
from repro.d2d.link import LinkModel
from repro.mobility.space import Position, distance_between


@dataclasses.dataclass(frozen=True)
class ChannelConfig:
    """Knobs of the interference-aware channel layer."""

    #: Shared resource blocks (one LTE RB-group-ish slice each).
    num_rbs: int = 6
    #: Bandwidth of a single resource block (Hz) — LTE PRB is 180 kHz.
    rb_bandwidth_hz: float = 180_000.0
    #: Receiver noise figure stacked on the thermal floor (dB).
    noise_figure_db: float = 7.0
    #: Per-transfer protocol preamble (MAC setup, not capacity-limited).
    overhead_s: float = 0.05
    #: Framing bytes added to every payload before the airtime division.
    protocol_overhead_bytes: int = 28
    #: Rate floor so a deeply-interfered transfer still terminates (bps).
    min_rate_bps: float = 250.0
    #: A lease idle this long after its last airtime is reaped.
    lease_idle_timeout_s: float = 5.0
    #: Allocator name from :data:`repro.channel.allocator.ALLOCATORS`.
    allocator: str = "centralized"

    def __post_init__(self) -> None:
        if self.num_rbs < 1:
            raise ValueError(f"num_rbs must be >= 1, got {self.num_rbs}")
        if self.rb_bandwidth_hz <= 0:
            raise ValueError("rb_bandwidth_hz must be positive")
        if self.min_rate_bps <= 0:
            raise ValueError("min_rate_bps must be positive")
        if self.overhead_s < 0 or self.lease_idle_timeout_s < 0:
            raise ValueError("timing knobs must be non-negative")


@dataclasses.dataclass(frozen=True)
class LinkEstimate:
    """What :meth:`ChannelModel.estimate_link` predicts for one geometry.

    A pure query — nothing is leased, billed, or recorded. ``sinr_db`` /
    ``rate_bps`` are the *best* the link could get across the RB
    alphabet against the co-channel leases live right now (what an
    admission would roughly see); the ``solo_*`` fields are the
    interference-free ceiling for the same geometry.
    """

    solo_sinr_db: float
    solo_rate_bps: float
    sinr_db: float
    rate_bps: float
    #: Payload+framing bits over the contended rate.
    airtime_s: float
    #: ``overhead_s + airtime_s`` — the predicted billable duration.
    duration_s: float
    #: Live co-channel leases on the best block.
    interferers: int


@dataclasses.dataclass(frozen=True)
class TransferGrant:
    """What the channel granted one transfer: block, quality, airtime."""

    lease_id: str
    rb: int
    sinr_db: float
    rate_bps: float
    #: Payload+framing bits divided by the granted rate.
    airtime_s: float
    #: ``overhead_s + airtime_s`` — what the medium schedules and bills.
    duration_s: float
    #: Co-channel leases live at grant time (the density bucket key).
    interferers: int


class ChannelStats:
    """Deterministic per-run aggregates for :class:`RunMetrics.channel`."""

    def __init__(self) -> None:
        self.transfers = 0
        self.sum_sinr_db = 0.0
        self.min_sinr_db = float("inf")
        self.max_sinr_db = float("-inf")
        self.sum_rate_bps = 0.0
        self.min_rate_bps = float("inf")
        self.sum_airtime_s = 0.0
        self.floor_hits = 0
        #: interferer count -> [transfer count, summed rate]
        self.density: Dict[int, list] = {}

    def record(self, grant: TransferGrant, floored: bool) -> None:
        self.transfers += 1
        self.sum_sinr_db += grant.sinr_db
        self.min_sinr_db = min(self.min_sinr_db, grant.sinr_db)
        self.max_sinr_db = max(self.max_sinr_db, grant.sinr_db)
        self.sum_rate_bps += grant.rate_bps
        self.min_rate_bps = min(self.min_rate_bps, grant.rate_bps)
        self.sum_airtime_s += grant.airtime_s
        if floored:
            self.floor_hits += 1
        bucket = self.density.setdefault(grant.interferers, [0, 0.0])
        bucket[0] += 1
        bucket[1] += grant.rate_bps


class ChannelModel:
    """Interference-aware capacity model over a shared RB pool."""

    def __init__(
        self,
        config: Optional[ChannelConfig] = None,
        link: Optional[LinkModel] = None,
        allocator: Union[str, RBAllocator, None] = None,
    ) -> None:
        self.config = config or ChannelConfig()
        self.link = link or LinkModel()
        self.allocator = make_allocator(allocator or self.config.allocator)
        self.pool = ResourceBlockPool(self.config.num_rbs)
        self.stats = ChannelStats()
        self._noise_dbm = thermal_noise_dbm(
            self.config.rb_bandwidth_hz, self.config.noise_figure_db
        )
        #: Optional ``(device_id, t) -> Position | None`` hook the medium
        #: installs so SINR evaluation can read co-channel transmitters'
        #: *current* positions instead of the ones frozen into their
        #: leases at their last transfer. ``None`` (standalone use) keeps
        #: lease positions as-is; so does a resolver returning ``None``
        #: for an unknown device. Only movable leases are resolved: a
        #: ``fixed`` lease's endpoints are where it was granted.
        #: Deterministic as long as the resolver is (analytic mobility
        #: models are), so replay identity holds.
        self.position_resolver: Optional[
            Callable[[str, float], Optional[Position]]
        ] = None

    # ------------------------------------------------------------------
    def _refresh_lease_positions(self, now: float) -> None:
        """Move every movable lease's endpoints to their current positions."""
        resolver = self.position_resolver
        if resolver is None:
            return
        pool = self.pool
        for lease in pool.movable_leases():
            tx = resolver(lease.tx_id, now)
            rx = resolver(lease.rx_id, now)
            pool.move(
                lease,
                lease.tx_pos if tx is None else tx,
                lease.rx_pos if rx is None else rx,
            )

    # ------------------------------------------------------------------
    def solo_sinr_db(self, distance_m: float) -> float:
        """SNR of an interference-free link at ``distance_m``."""
        return sinr_db(self.link.rssi(distance_m), (), self._noise_dbm)

    def solo_rate_bps(self, distance_m: float) -> float:
        """The interference-free Shannon bound at ``distance_m`` — no
        granted rate may exceed this for the same geometry."""
        return shannon_capacity_bps(
            self.config.rb_bandwidth_hz, self.solo_sinr_db(distance_m)
        )

    # ------------------------------------------------------------------
    def estimate_link(
        self,
        tx_pos: Position,
        rx_pos: Position,
        payload_bytes: int = 0,
        now: Optional[float] = None,
    ) -> LinkEstimate:
        """Cheap per-link quality query for relay selection.

        Predicts what a transfer over ``tx_pos -> rx_pos`` would get
        *without* touching any state: no lease is admitted, no idle
        lease reaped, no stats recorded, and live leases are read (movable
        ones at their current positions when a resolver and ``now`` are
        given) but never mutated. The contended figure evaluates the SINR
        against the live co-channel occupancy of every block and keeps
        the best — the least-interfered block an admission could land
        on. O(num_rbs + live leases) and RNG-free, so calling it any
        number of times cannot perturb a replay.
        """
        cfg = self.config
        distance = distance_between(tx_pos, rx_pos)
        signal_dbm = self.link.rssi(distance)
        solo_sinr = sinr_db(signal_dbm, (), self._noise_dbm)
        solo_rate = shannon_capacity_bps(cfg.rb_bandwidth_hz, solo_sinr)

        resolver = self.position_resolver if now is not None else None
        leases = self.pool.live_leases()
        tx_positions = [lease.tx_pos for lease in leases]
        if resolver is not None:
            for i, lease in enumerate(leases):
                if not lease.fixed:
                    resolved = resolver(lease.tx_id, now)
                    if resolved is not None:
                        tx_positions[i] = resolved
        per_rb_interferers: Dict[int, List[float]] = {}
        for lease, interferer_mw in zip(
            leases, received_mw_block(self.link, rx_pos, tx_positions)
        ):
            per_rb_interferers.setdefault(lease.rb, []).append(interferer_mw)

        best_sinr = solo_sinr
        best_interferers = 0
        for rb in range(cfg.num_rbs):
            interferer_mws = per_rb_interferers.get(rb, [])
            if not interferer_mws:
                best_sinr = solo_sinr
                best_interferers = 0
                break
            sinr = sinr_db_mw(signal_dbm, interferer_mws, self._noise_dbm)
            if rb == 0 or sinr > best_sinr:
                best_sinr = sinr
                best_interferers = len(interferer_mws)

        rate = max(
            shannon_capacity_bps(cfg.rb_bandwidth_hz, best_sinr),
            cfg.min_rate_bps,
        )
        bits = (payload_bytes + cfg.protocol_overhead_bytes) * 8
        airtime = bits / rate
        return LinkEstimate(
            solo_sinr_db=solo_sinr,
            solo_rate_bps=solo_rate,
            sinr_db=best_sinr,
            rate_bps=rate,
            airtime_s=airtime,
            duration_s=cfg.overhead_s + airtime,
            interferers=best_interferers,
        )

    # ------------------------------------------------------------------
    def begin_transfer(
        self,
        sender_id: str,
        receiver_id: str,
        tx_pos: Position,
        rx_pos: Position,
        payload_bytes: int,
        now: float,
        fixed: bool = False,
    ) -> TransferGrant:
        """Grant airtime for one transfer on the directed link's lease.

        ``fixed`` says both endpoints are static; a lease admitted for
        this transfer records it, and position refreshes skip it.
        """
        cfg = self.config
        self.pool.reap_idle(now, cfg.lease_idle_timeout_s)
        # Interferer SINR must see where co-channel transmitters are *now*,
        # not where they were at their own last transfer.
        self._refresh_lease_positions(now)

        lease_id = f"{sender_id}->{receiver_id}"
        lease = self.pool.get(lease_id)
        if lease is None:
            rb = self.allocator.pick(
                LinkRequest(lease_id, tx_pos, rx_pos), self.pool, self.link
            )
            lease = RBLease(
                lease_id=lease_id,
                rb=rb,
                tx_id=sender_id,
                rx_id=receiver_id,
                tx_pos=tx_pos,
                rx_pos=rx_pos,
                created_s=now,
                busy_until_s=now,
                fixed=fixed,
            )
            self.pool.grant(lease, now)
        else:
            self.pool.move(lease, tx_pos, rx_pos)

        interferers = self.pool.co_channel(lease.rb, exclude_id=lease_id)
        interferer_mws = received_mw_block(
            self.link, rx_pos, [other.tx_pos for other in interferers]
        )
        signal_dbm = self.link.rssi(distance_between(tx_pos, rx_pos))
        sinr = sinr_db_mw(signal_dbm, interferer_mws, self._noise_dbm)
        shannon = shannon_capacity_bps(cfg.rb_bandwidth_hz, sinr)
        floored = shannon < cfg.min_rate_bps
        rate = cfg.min_rate_bps if floored else shannon

        bits = (payload_bytes + cfg.protocol_overhead_bytes) * 8
        airtime = bits / rate
        duration = cfg.overhead_s + airtime
        lease.busy_until_s = max(lease.busy_until_s, now + duration)

        grant = TransferGrant(
            lease_id=lease_id,
            rb=lease.rb,
            sinr_db=sinr,
            rate_bps=rate,
            airtime_s=airtime,
            duration_s=duration,
            interferers=len(interferers),
        )
        self.stats.record(grant, floored)
        return grant

    def end_of_run(self, now: float) -> None:
        """Flush busy-time integration at the simulation horizon."""
        self.pool.busy_seconds(now)

    # ------------------------------------------------------------------
    def stats_snapshot(self, horizon_s: float) -> Dict[str, object]:
        """JSON-ready aggregates; key order is deterministic."""
        s = self.stats
        n = s.transfers
        density = {
            str(k): {
                "transfers": bucket[0],
                "mean_rate_bps": round(bucket[1] / bucket[0], 3),
            }
            for k, bucket in sorted(s.density.items())
        }
        return {
            "mode": "sinr",
            "allocator": self.allocator.name,
            "num_rbs": self.config.num_rbs,
            "transfers": n,
            "mean_sinr_db": round(s.sum_sinr_db / n, 6) if n else None,
            "min_sinr_db": round(s.min_sinr_db, 6) if n else None,
            "max_sinr_db": round(s.max_sinr_db, 6) if n else None,
            "mean_rate_bps": round(s.sum_rate_bps / n, 3) if n else None,
            "min_rate_bps": round(s.min_rate_bps, 3) if n else None,
            "total_airtime_s": round(s.sum_airtime_s, 6),
            "rate_floor_hits": s.floor_hits,
            "rb_grants": self.pool.grants,
            "rb_releases": self.pool.releases,
            "rb_peak_live": self.pool.peak_live,
            "rb_utilization": round(self.pool.utilization(horizon_s), 6),
            "density": density,
        }
