"""Per-run metric collection.

Bundles the numbers every experiment reports — per-device energy (total
and by phase), per-device layer-3 signaling, RRC cycles, delivery quality —
into plain data structures the benches and reporting helpers consume.

Also home to :class:`SweepTelemetry`, the progress counters and per-point
wall-clock timings the parallel sweep executor (:mod:`repro.sweep`)
records, so a sweep's speedup is observable rather than asserted.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterable, List, Mapping, Optional

from repro.cellular.signaling import SignalingLedger
from repro.device import Role, Smartphone
from repro.workload.server import IMServer


@dataclasses.dataclass(frozen=True)
class DeviceMetrics:
    """One device's totals at the end of a run."""

    device_id: str
    role: str
    energy_uah: float
    d2d_energy_uah: float
    cellular_energy_uah: float
    energy_breakdown: Dict[str, float]
    l3_messages: int
    rrc_cycles: int
    uplink_sends: int
    battery_level: Optional[float]


@dataclasses.dataclass(frozen=True)
class DeliveryMetrics:
    """Server-side delivery quality."""

    received: int
    on_time: int
    late: int
    relayed: int
    mean_delay_s: float

    @property
    def on_time_fraction(self) -> float:
        total = self.on_time + self.late
        return 1.0 if total == 0 else self.on_time / total


@dataclasses.dataclass(frozen=True)
class FaultMetrics:
    """Fault-process activity and safety-audit outcome of one run.

    Populated when a run enables the chaos engine and/or the invariant
    auditor (:mod:`repro.faults`); ``None`` fields mean the corresponding
    subsystem was off.
    """

    chaos_profile: Optional[str] = None
    chaos_seed: Optional[int] = None
    chaos_events: int = 0
    relay_deaths: int = 0
    relay_revivals: int = 0
    link_downs: int = 0
    link_ups: int = 0
    ack_bursts: int = 0
    acks_dropped: int = 0
    storm_beats: int = 0
    batteries_depleted: int = 0
    fallbacks_fired: int = 0
    late_acks: int = 0
    duplicate_acks: int = 0
    audit_violations: Optional[int] = None
    beats_adjudicated: int = 0
    beats_on_time: int = 0
    beats_exempt_downtime: int = 0
    # RAN fault domain: cell-side chaos activity and degraded-mode protocol
    bs_outages: int = 0
    bs_brownouts: int = 0
    rrc_rejections: int = 0
    pages_injected: int = 0
    pages_failed: int = 0
    uplinks_rejected: int = 0
    cellular_retries: int = 0
    detaches: int = 0
    reattaches: int = 0
    beats_dropped_stale: int = 0
    beats_dropped_overflow: int = 0
    beats_dropped_retries: int = 0
    beats_buffered_end: int = 0
    beats_exempt_ran: int = 0

    @property
    def audited(self) -> bool:
        return self.audit_violations is not None

    @property
    def deadline_safe_fraction(self) -> float:
        """On-time fraction of adjudicated, non-exempt beats (1.0 if none).

        Outage-aware: beats whose window overlapped a degraded-RAN
        interval (and were buffered, dropped-with-cause, or delivered
        late because of it) are exempt alongside powered-off devices, so
        the figure measures the protocol against the healthy population.
        """
        eligible = (
            self.beats_adjudicated
            - self.beats_exempt_downtime
            - self.beats_exempt_ran
        )
        return 1.0 if eligible <= 0 else self.beats_on_time / eligible

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data["audited"] = self.audited
        data["deadline_safe_fraction"] = self.deadline_safe_fraction
        return data


@dataclasses.dataclass(frozen=True)
class RunMetrics:
    """Everything measured in one experiment run.

    ``perf`` carries the hot-path observability counters of the run
    (scan candidates examined, spatial-index activity, wall-clock
    timers — see :mod:`repro.perf`). Unlike every other field it is
    *not* part of the simulation's deterministic output: a brute-force
    and an index-accelerated run produce identical metrics everywhere
    else but legitimately different perf counters. Equality/determinism
    checks should compare :meth:`to_dict` with the ``perf`` key removed
    (or use :meth:`to_comparable_dict`).
    """

    horizon_s: float
    devices: Dict[str, DeviceMetrics]
    delivery: Optional[DeliveryMetrics]
    total_l3_messages: int
    faults: Optional[FaultMetrics] = None
    perf: Optional[Dict[str, float]] = None
    #: Channel-layer aggregates (SINR, rates, RB utilization) when the
    #: run used the interference-aware channel; ``None`` in fixed mode.
    #: Unlike ``perf`` this IS deterministic simulation output and stays
    #: in :meth:`to_comparable_dict`.
    channel: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    def energy_of(self, device_id: str) -> float:
        return self.devices[device_id].energy_uah

    def l3_of(self, device_id: str) -> int:
        return self.devices[device_id].l3_messages

    def total_energy_uah(self, roles: Optional[Iterable[str]] = None) -> float:
        wanted = set(roles) if roles is not None else None
        return sum(
            d.energy_uah
            for d in self.devices.values()
            if wanted is None or d.role in wanted
        )

    def devices_with_role(self, role: str) -> List[DeviceMetrics]:
        return [d for d in self.devices.values() if d.role == role]

    def energy_by_role(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for d in self.devices.values():
            totals[d.role] = totals.get(d.role, 0.0) + d.energy_uah
        return totals

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """Plain-data form for JSON serialization."""
        return {
            "horizon_s": self.horizon_s,
            "total_l3_messages": self.total_l3_messages,
            "delivery": (
                None
                if self.delivery is None
                else {
                    "received": self.delivery.received,
                    "on_time": self.delivery.on_time,
                    "late": self.delivery.late,
                    "relayed": self.delivery.relayed,
                    "mean_delay_s": self.delivery.mean_delay_s,
                    "on_time_fraction": self.delivery.on_time_fraction,
                }
            ),
            "devices": {
                device_id: dataclasses.asdict(device)
                for device_id, device in self.devices.items()
            },
            "faults": None if self.faults is None else self.faults.to_dict(),
            "perf": None if self.perf is None else dict(self.perf),
            "channel": None if self.channel is None else dict(self.channel),
        }

    def to_comparable_dict(self) -> Dict:
        """:meth:`to_dict` minus observability-only fields.

        This is the form two runs of the same scenario must agree on
        byte-for-byte regardless of which scan (the indexed one or the
        test suite's brute-force oracle) computed them.
        """
        data = self.to_dict()
        data.pop("perf", None)
        return data

    def to_json(self, indent: int = 2) -> str:
        """JSON document of the whole run (for archival/plotting)."""
        import json

        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_csv_rows(self) -> List[List[object]]:
        """Per-device rows (header first) for spreadsheet export."""
        header: List[object] = [
            "device_id", "role", "energy_uah", "d2d_energy_uah",
            "cellular_energy_uah", "l3_messages", "rrc_cycles",
            "uplink_sends", "battery_level",
        ]
        rows: List[List[object]] = [header]
        for device in sorted(self.devices.values(), key=lambda d: d.device_id):
            rows.append([
                device.device_id, device.role, device.energy_uah,
                device.d2d_energy_uah, device.cellular_energy_uah,
                device.l3_messages, device.rrc_cycles, device.uplink_sends,
                device.battery_level,
            ])
        return rows

    def write_csv(self, path: str) -> None:
        """Write the per-device table to ``path``."""
        import csv

        with open(path, "w", newline="") as handle:
            csv.writer(handle).writerows(self.to_csv_rows())


@dataclasses.dataclass(frozen=True)
class SweepPointTiming:
    """Wall-clock record of one executed (or cache-served) sweep point.

    ``attempts`` counts runner invocations behind this point: ``1`` for a
    clean first-try success, more after retries, ``0`` when the point was
    served from the cache (locally or published by another dispatcher).
    """

    index: int
    params: Mapping[str, Any]
    seconds: float
    cached: bool
    attempts: int = 1


class SweepTelemetry:
    """Progress counters and per-point timings for one grid sweep.

    The executor in :mod:`repro.sweep` records one
    :class:`SweepPointTiming` per grid point as it completes (in
    completion order, which under a process pool need not be grid
    order), plus cache hit/miss counters and the sweep's total wall
    time. ``busy_seconds() / wall_seconds`` is the achieved parallel
    speedup; for a serial sweep it is ~1.

    Fault-tolerance counters: ``retries`` (extra runner attempts beyond
    the first, summed over points) and ``errors`` (points that exhausted
    their attempts).

    Cache counters only move when a cache is attached to the sweep: the
    executor passes ``cached=None`` for points computed without a cache,
    so a cacheless sweep reports ``0 hit / 0 miss`` rather than ``total``
    misses, and the counters reconcile with ``SweepCache.hits/misses``.
    """

    def __init__(
        self,
        total: int,
        mode: str = "serial",
        workers: int = 0,
    ) -> None:
        self.total = int(total)
        self.mode = mode
        self.workers = int(workers)
        self.timings: List[SweepPointTiming] = []
        self.cache_hits = 0
        self.cache_misses = 0
        self.retries = 0
        self.errors = 0
        self.wall_seconds = 0.0

    @property
    def completed(self) -> int:
        return len(self.timings)

    @property
    def pending(self) -> int:
        return self.total - self.completed - self.errors

    # ------------------------------------------------------------------
    def record(
        self,
        index: int,
        params: Mapping[str, Any],
        seconds: float,
        cached: Optional[bool] = False,
        attempts: int = 1,
    ) -> SweepPointTiming:
        """Book one finished point; returns the stored timing.

        ``cached`` is three-valued: ``True`` (served from the cache),
        ``False`` (computed while a cache was attached — a miss), or
        ``None`` (computed with no cache configured — neither counter
        moves).
        """
        timing = SweepPointTiming(
            index=index,
            params=dict(params),
            seconds=seconds,
            cached=bool(cached),
            attempts=int(attempts),
        )
        self.timings.append(timing)
        if cached is True:
            self.cache_hits += 1
        elif cached is False:
            self.cache_misses += 1
        self.retries += max(0, int(attempts) - 1)
        return timing

    def record_error(self, attempts: int = 1) -> None:
        """Book one point that exhausted its attempts without a result.

        Which point failed lives in the sweep's ``SweepError`` list.
        """
        self.errors += 1
        self.retries += max(0, int(attempts) - 1)

    def busy_seconds(self) -> float:
        """Summed per-point compute time (what a serial run would pay)."""
        return sum(t.seconds for t in self.timings)

    def speedup(self) -> float:
        """Busy/wall ratio — >1 means parallelism (or the cache) paid off."""
        if self.wall_seconds <= 0.0:
            return 1.0
        return self.busy_seconds() / self.wall_seconds

    def throughput(self) -> float:
        """Completed points per wall-clock second."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.completed / self.wall_seconds

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form for JSON export alongside sweep results."""
        return {
            "total": self.total,
            "completed": self.completed,
            "mode": self.mode,
            "workers": self.workers,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "retries": self.retries,
            "errors": self.errors,
            "wall_seconds": self.wall_seconds,
            "busy_seconds": self.busy_seconds(),
            "timings": [dataclasses.asdict(t) for t in self.timings],
        }

    def summary(self) -> str:
        """One-line progress/speedup report for CLI and bench output."""
        line = (
            f"sweep: {self.completed}/{self.total} points "
            f"({self.mode}, workers={self.workers}) "
            f"wall {self.wall_seconds:.3f}s busy {self.busy_seconds():.3f}s "
            f"speedup {self.speedup():.2f}x"
        )
        if self.cache_hits or self.cache_misses:
            line += f" cache {self.cache_hits} hit / {self.cache_misses} miss"
        if self.errors or self.retries:
            line += f" errors {self.errors} retries {self.retries}"
        return line

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SweepTelemetry({self.summary()})"


def collect_metrics(
    devices: Iterable[Smartphone],
    ledger: SignalingLedger,
    server: Optional[IMServer] = None,
    horizon_s: float = 0.0,
    faults: Optional[FaultMetrics] = None,
    perf: Optional[Dict[str, float]] = None,
    channel: Optional[Dict[str, Any]] = None,
) -> RunMetrics:
    """Snapshot the run's metrics from the live objects.

    ``perf`` is the flat counter dict of
    :meth:`repro.perf.PerfCounters.to_dict`, carried through as
    observability (excluded from comparable metrics).
    """
    per_device: Dict[str, DeviceMetrics] = {}
    l3_counts, rrc_cycles = ledger.device_totals()
    for device in devices:
        per_device[device.device_id] = DeviceMetrics(
            device_id=device.device_id,
            role=device.role.value,
            energy_uah=device.energy.total_uah,
            d2d_energy_uah=device.energy.d2d_uah,
            cellular_energy_uah=device.energy.cellular_uah,
            energy_breakdown=device.energy.breakdown(),
            l3_messages=l3_counts.get(device.device_id, 0),
            rrc_cycles=rrc_cycles.get(device.device_id, 0),
            uplink_sends=device.modem.sends,
            battery_level=device.battery.level if device.battery else None,
        )
    delivery = None
    if server is not None:
        delivery = DeliveryMetrics(
            received=len(server.records),
            on_time=server.on_time_count,
            late=server.late_count,
            relayed=server.relayed_count,
            mean_delay_s=server.mean_delay_s(),
        )
    return RunMetrics(
        horizon_s=horizon_s,
        devices=per_device,
        delivery=delivery,
        total_l3_messages=ledger.total,
        faults=faults,
        perf=perf,
        channel=channel,
    )
