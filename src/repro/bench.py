"""Pinned performance suite — the `repro-sim bench` backend.

The scaling work (spatial-index discovery, adjacency maps, the event-kernel
fast path) needs a *trajectory*, not anecdotes: a fixed set of micro and
macro cases, run the same way every time, written to ``BENCH_<rev>.json``
so successive revisions can be compared and CI can catch regressions.

Cases
-----
- ``kernel`` — micro: events/second through the discrete-event kernel
  (heap churn with a cancelled-event mix, exercising lazy deletion).
- ``pair`` — macro: the paper's bench rig (1 relay + 8 UEs), end to end.
- ``crowd-200`` — macro: a 200-device discovery-heavy crowd, every
  endpoint advertising and scanning every 5 s; times the indexed scan.
- ``crowd-500-storm`` — the same storm at 500 devices (skipped in
  ``--quick``). Scan output against a brute-force walk is pinned by the
  determinism guard's oracle tests, not re-checked here.
- ``crowd-300-ran-chaos`` — audited 300-device crowd under the
  ``paging-storm`` RAN chaos profile (skipped in ``--quick``): pins the
  degraded-RAN event counts, the fallback protocol's retry/drop
  accounting, the outage-aware deadline-safe fraction, and the
  replay-identity of chaotic runs.
- ``crowd-5000-sharded`` — the city-scale case (skipped in ``--quick``):
  a 5000-device advertising crowd run unsharded and on the cell-sharded
  kernel (serial + process backends). Gates on the two shard backends
  merging to byte-identical metrics; reports, but does not gate, the
  unsharded-over-sharded wall ratio.
- ``crowd-20000-balanced`` — the shard-planning case (skipped in
  ``--quick``): a 20000-device hotspot crowd on the sharded kernel at
  ``shards=4``, column bands vs load-balanced tiles. Reports per-plan
  device skew, per-shard work and barrier waits, and two speedups: wall
  (what this box saw) and **critical path** (sum over windows of the
  slowest shard's work — the wall time a one-core-per-shard machine
  would see; core-count independent, so CI gates on it). The tile
  plan's byte-identity across backends is pinned by the determinism
  guard at small scale, not re-paid at this size.

Timing discipline: every timed run repeats ``repeats`` times and keeps
the **minimum** wall time per mode — the standard way to strip scheduler
noise from a deterministic workload (the minimum is the run with the
least interference; the workload itself never varies).
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from repro.metrics import RunMetrics
from repro.mobility.space import Arena
from repro.scenarios import (
    NetworkContext,
    run_crowd_scenario,
    run_relay_scenario,
)
from repro.sim.engine import Simulator
from repro.workload.apps import STANDARD_APP

#: Bump when the case set or a case's parameters change incompatibly —
#: reports with different schemas must not be speedup-compared.
BENCH_SCHEMA = 1

#: Allowed relative bands-vs-tiles delivery difference on the balanced
#: case. Shard borders restrict D2D matching, so a few horizon-edge
#: beats legitimately ride the direct uplink under one plan and a relay
#: buffer under the other; anything beyond half a percent means the
#: partition changed simulation outcomes for real.
_DELIVERY_TOLERANCE = 0.005

#: Per-case speedup-ratio gates for :func:`compare_reports`. A case is
#: gated only when it appears in *both* the current report and the
#: baseline, so partial (``--only``) runs gate exactly what they ran.
GATE_RATIOS: Dict[str, str] = {
    "crowd-20000-balanced": "speedup_tiles_critical",
}


@dataclasses.dataclass(frozen=True)
class CaseResult:
    """One bench case's outcome."""

    name: str
    wall_s: float
    detail: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return {"wall_s": self.wall_s, **self.detail}


# ----------------------------------------------------------------------
# timing helpers
# ----------------------------------------------------------------------
def _best_of(fn: Callable[[], Any], repeats: int) -> tuple[float, Any]:
    """Minimum wall time over ``repeats`` runs, plus the last return value."""
    best = float("inf")
    value = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def _identical(a: RunMetrics, b: RunMetrics) -> bool:
    """Whether two runs produced byte-identical simulation output."""
    return a.to_comparable_dict() == b.to_comparable_dict()


# ----------------------------------------------------------------------
# cases
# ----------------------------------------------------------------------
def bench_kernel(events: int = 200_000) -> CaseResult:
    """Event-kernel throughput: push, cancel a third, drain."""

    def run() -> int:
        sim = Simulator(seed=0)
        fired = [0]

        def bump() -> None:
            fired[0] += 1

        handles = []
        for i in range(events):
            # deterministic scatter (no RNG): prime-stride heap churn
            handles.append(sim.schedule((i * 7919) % events / 1000.0, bump))
        for handle in handles[::3]:
            handle.cancel()
        sim.run_all(max_events=events + 1)
        return fired[0]

    wall, fired = _best_of(run, repeats=1)
    return CaseResult(
        name="kernel",
        wall_s=wall,
        detail={
            "events_scheduled": events,
            "events_fired": fired,
            "events_per_s": fired / wall if wall > 0 else 0.0,
        },
    )


def bench_pair(repeats: int) -> CaseResult:
    """The paper's bench rig, end to end (framework + energy + RRC)."""
    wall, result = _best_of(
        lambda: run_relay_scenario(n_ues=8, periods=5, seed=0), repeats
    )
    return CaseResult(
        name="pair",
        wall_s=wall,
        detail={
            "events_fired": result.context.sim.events_fired,
            "total_l3": result.total_l3(),
        },
    )


def _storm_pre_run(scan_period_s: float):
    """Every device advertises and scans periodically — discovery-heavy."""

    def pre_run(context: NetworkContext, devices: Dict[str, Any]) -> None:
        medium, sim = context.medium, context.sim
        assert medium is not None
        for device_id in devices:
            endpoint = medium.endpoint(device_id)
            endpoint.advertising = True
            endpoint.advertisement.setdefault("storm", 1)

            def tick(did: str = device_id) -> None:
                if medium.endpoint(did).powered_on:
                    medium.discover(did, lambda peers: None)

            sim.every(scan_period_s, tick, name=f"storm-{device_id}")

    return pre_run


def bench_crowd_storm(
    name: str,
    n_devices: int,
    arena_m: float,
    hotspots: int,
    duration_s: float,
    scan_period_s: float,
    repeats: int,
) -> CaseResult:
    """Discovery-heavy crowd: every device advertises and scans."""

    def run():
        return run_crowd_scenario(
            n_devices=n_devices,
            relay_fraction=0.2,
            duration_s=duration_s,
            arena=Arena(arena_m, arena_m),
            hotspots=hotspots,
            seed=0,
            pre_run=_storm_pre_run(scan_period_s),
        )

    wall, result = _best_of(run, repeats)
    perf = result.metrics.perf or {}
    return CaseResult(
        name=name,
        wall_s=wall,
        detail={
            "n_devices": n_devices,
            "scans": perf.get("scans", 0),
            "mean_candidates_per_scan": perf.get("mean_candidates_per_scan", 0.0),
        },
    )


def bench_channel_crowd(
    name: str,
    n_devices: int,
    duration_s: float,
    repeats: int,
) -> CaseResult:
    """Interference-aware 500-device storm: capacity under RB contention.

    A dense crowd on a fast heartbeat runs with ``channel="sinr"`` so
    concurrent transfers contend for the shared resource blocks. The run
    executes twice with identical inputs and the two
    :class:`RunMetrics` — channel aggregates included — must match
    exactly (the replay-from-``(scenario, seed)`` contract extended to
    channel mode). The detail records the rate-vs-density buckets and
    whether the mean granted rate degrades from the interference-free
    bucket to the contended ones.
    """
    app = dataclasses.replace(STANDARD_APP, heartbeat_period_s=45.0)

    def run():
        return run_crowd_scenario(
            n_devices=n_devices,
            relay_fraction=0.2,
            duration_s=duration_s,
            arena=Arena(250.0, 250.0),
            hotspots=12,
            seed=0,
            app=app,
            channel="sinr",
        )

    wall, first = _best_of(run, repeats)
    replay = run()
    identical = _identical(first.metrics, replay.metrics)
    stats = first.metrics.channel or {}
    density = stats.get("density", {})
    solo = density.get("0", {}).get("mean_rate_bps")
    contended = [
        bucket["mean_rate_bps"]
        for k, bucket in density.items()
        if k != "0"
    ]
    degrades = (
        solo is not None
        and bool(contended)
        and all(rate < solo for rate in contended)
    )
    return CaseResult(
        name=name,
        wall_s=wall,
        detail={
            "n_devices": n_devices,
            "identical_metrics": identical,
            "transfers": stats.get("transfers", 0),
            "mean_sinr_db": stats.get("mean_sinr_db"),
            "mean_rate_bps": stats.get("mean_rate_bps"),
            "rb_utilization": stats.get("rb_utilization"),
            "rb_peak_live": stats.get("rb_peak_live"),
            "density": density,
            "rate_degrades_with_density": degrades,
        },
    )


def bench_channel_selection(
    name: str,
    n_devices: int,
    duration_s: float,
    repeats: int,
    shadowing_sigma_db: float = 8.0,
) -> CaseResult:
    """Channel-aware selection under heavy shadowing: rate beats distance.

    The 500-device SINR crowd reruns at high shadowing sigma once per
    selection policy. Distance-only selection ranks by RSSI-estimated
    distance, which shadowing corrupts; the ``rate`` policy ranks by the
    channel model's deterministic per-link estimate. The detail pins the
    per-policy mean granted rate and the relative gain, the audited
    delivery invariants for both runs, and the replay-identity check
    (two identical ``rate`` runs must produce byte-identical metrics —
    the ``(scenario, seed)`` contract extended to channel-aware
    selection).
    """
    app = dataclasses.replace(STANDARD_APP, heartbeat_period_s=45.0)

    def run(policy: str):
        return run_crowd_scenario(
            n_devices=n_devices,
            relay_fraction=0.2,
            duration_s=duration_s,
            arena=Arena(250.0, 250.0),
            hotspots=12,
            seed=0,
            app=app,
            channel="sinr",
            shadowing_sigma_db=shadowing_sigma_db,
            selection_policy=policy,
            audit=True,
        )

    wall, rate_run = _best_of(lambda: run("rate"), repeats)
    replay = run("rate")
    identical = _identical(rate_run.metrics, replay.metrics)
    distance_run = run("distance")

    def row(result) -> Dict[str, Any]:
        stats = result.metrics.channel or {}
        report = result.audit_report
        return {
            "transfers": stats.get("transfers", 0),
            "mean_rate_bps": stats.get("mean_rate_bps"),
            "mean_sinr_db": stats.get("mean_sinr_db"),
            "on_time": result.on_time_fraction(),
            "audit_violations": len(report.violations) if report else None,
        }

    rate_row = row(rate_run)
    distance_row = row(distance_run)
    rate_bps = rate_row["mean_rate_bps"] or 0.0
    distance_bps = distance_row["mean_rate_bps"] or 0.0
    gain = rate_bps / distance_bps - 1.0 if distance_bps else None
    return CaseResult(
        name=name,
        wall_s=wall,
        detail={
            "n_devices": n_devices,
            "shadowing_sigma_db": shadowing_sigma_db,
            "identical_metrics": identical,
            "rate": rate_row,
            "distance": distance_row,
            "rate_gain_over_distance": gain,
            "rate_beats_distance": bool(gain is not None and gain > 0.0),
            "audit_clean": bool(
                rate_row["audit_violations"] == 0
                and distance_row["audit_violations"] == 0
            ),
        },
    )


def bench_ran_chaos(
    name: str,
    n_devices: int,
    duration_s: float,
    repeats: int,
    profile: str = "paging-storm",
    chaos_seed: int = 2,
) -> CaseResult:
    """Audited crowd under RAN chaos: the degraded-RAN cost, pinned.

    A 300-device crowd runs with the ``paging-storm`` profile layered on
    (brown-outs, paging-channel storms, injected RRC rejects) and the
    invariant auditor live. The run executes twice with identical inputs
    and the two :class:`RunMetrics` must match exactly — the
    replay-from-``(scenario, profile, seed)`` contract extended to the
    cellular fault domain. The detail pins the RAN event counts, the
    degraded-mode protocol's retry/detach/drop accounting, the
    outage-aware deadline-safe fraction, and audit cleanliness.
    """

    def run():
        return run_crowd_scenario(
            n_devices=n_devices,
            relay_fraction=0.2,
            duration_s=duration_s,
            arena=Arena(500.0, 500.0),
            hotspots=12,
            seed=0,
            chaos=profile,
            # seed 2, not 0: the storm processes' first exponential
            # arrivals must land inside the 300 s horizon or the case
            # pins a vacuous no-chaos run
            chaos_seed=chaos_seed,
            audit=True,
        )

    wall, first = _best_of(run, repeats)
    replay = run()
    identical = _identical(first.metrics, replay.metrics)
    faults = first.metrics.faults
    report = first.audit_report
    chaos_report = first.chaos_report
    return CaseResult(
        name=name,
        wall_s=wall,
        detail={
            "n_devices": n_devices,
            "profile": profile,
            "identical_metrics": identical,
            "chaos_events": len(chaos_report.events) if chaos_report else 0,
            "bs_outages": faults.bs_outages if faults else 0,
            "bs_brownouts": faults.bs_brownouts if faults else 0,
            "pages_injected": faults.pages_injected if faults else 0,
            "pages_failed": faults.pages_failed if faults else 0,
            "uplinks_rejected": faults.uplinks_rejected if faults else 0,
            "cellular_retries": faults.cellular_retries if faults else 0,
            "detaches": faults.detaches if faults else 0,
            "reattaches": faults.reattaches if faults else 0,
            "beats_dropped": (
                faults.beats_dropped_stale
                + faults.beats_dropped_overflow
                + faults.beats_dropped_retries
            ) if faults else 0,
            "beats_buffered_end": faults.beats_buffered_end if faults else 0,
            "deadline_safe": faults.deadline_safe_fraction if faults else None,
            "audit_violations": len(report.violations) if report else None,
            "audit_clean": bool(report is not None and report.ok),
        },
    )


def bench_sharded_crowd(
    name: str,
    n_devices: int,
    duration_s: float,
    shards: int,
    repeats: int,
) -> CaseResult:
    """City-scale storm: single kernel vs sharded.

    The same 5000-device advertising crowd runs three ways — unsharded,
    and on the cell-sharded kernel with both backends. One identity check
    gates the case: the serial and process shard backends must merge to
    byte-identical metrics (the sharded kernel's determinism contract).
    ``speedup_sharded`` is the unsharded wall over the best sharded wall;
    it is reported, not gated. On a single CPU the process backend
    measures protocol overhead, not parallelism; ``cpus`` in the detail
    says which reading applies.
    """
    from repro.shard import run_crowd_scenario_sharded

    arena_m = 1200.0
    hotspots = 12
    spread_m = 60.0
    mobile_fraction = 0.1
    scan_period_s = 10.0

    def run_unsharded():
        return run_crowd_scenario(
            n_devices=n_devices,
            relay_fraction=0.2,
            duration_s=duration_s,
            arena=Arena(arena_m, arena_m),
            hotspots=hotspots,
            hotspot_spread_m=spread_m,
            mobile_fraction=mobile_fraction,
            seed=0,
            pre_run=_storm_pre_run(scan_period_s),
        )

    def run_sharded(backend: str):
        return run_crowd_scenario_sharded(
            n_devices=n_devices,
            relay_fraction=0.2,
            duration_s=duration_s,
            arena=Arena(arena_m, arena_m),
            hotspots=hotspots,
            hotspot_spread_m=spread_m,
            mobile_fraction=mobile_fraction,
            seed=0,
            shards=shards,
            sync_window_s=scan_period_s,
            storm_scan_period_s=scan_period_s,
            backend=backend,
        )

    unsharded_wall, __ = _best_of(run_unsharded, repeats)
    serial_wall, serial = _best_of(lambda: run_sharded("serial"), repeats)
    process_wall, process = _best_of(lambda: run_sharded("process"), repeats)

    backend_identical = _identical(serial.metrics, process.metrics)
    best_sharded = min(serial_wall, process_wall)
    perf = serial.metrics.perf or {}
    return CaseResult(
        name=name,
        wall_s=serial_wall,
        detail={
            "n_devices": n_devices,
            "shards": shards,
            "cpus": os.cpu_count(),
            "unsharded_wall_s": unsharded_wall,
            "sharded_serial_wall_s": serial_wall,
            "sharded_process_wall_s": process_wall,
            "speedup_sharded": (
                unsharded_wall / best_sharded if best_sharded > 0 else 0.0
            ),
            "identical_metrics": backend_identical,
            "backend_identical": backend_identical,
            "devices_per_shard": serial.devices_per_shard,
            "windows": serial.windows,
            "handovers": serial.handovers,
            "ghost_registrations": serial.ghost_registrations,
            "scans": perf.get("scans", 0),
        },
    )


def bench_balanced_crowd(
    name: str,
    n_devices: int,
    duration_s: float,
    shards: int,
    repeats: int,
) -> CaseResult:
    """Shard planning: column bands vs load-balanced tiles at crowd scale.

    The same hotspot crowd runs on the sharded kernel twice, once per
    partition plan. The headline number is the **critical-path speedup**
    — per window, the slowest shard sets the sync barrier, so the sum of
    per-window maxima is the wall time a one-core-per-shard machine
    needs; that ratio measures what the planner controls (load skew) and
    holds on any host, unlike the wall ratio on a box with fewer cores
    than shards. ``cpus`` in the detail says which reading applies to
    the wall numbers. Byte-identity of the tile plan (serial vs process,
    replay) is pinned by the determinism guard at small scale; this case
    additionally cross-checks that both plans deliver near-identical
    heartbeat counts (``delivery_close``). Exact equality is *not* the
    invariant: shard borders restrict D2D matching, so a handful of
    beats near the run horizon ride the direct uplink under one plan and
    sit in a relay buffer under the other — a documented horizon-edge
    effect bounded by ``_DELIVERY_TOLERANCE``, not a partition bug.
    """
    from repro.shard import run_crowd_scenario_sharded

    def run(plan: str):
        return run_crowd_scenario_sharded(
            n_devices=n_devices,
            relay_fraction=0.2,
            duration_s=duration_s,
            arena=Arena(2400.0, 2400.0),
            hotspots=12,
            hotspot_spread_m=60.0,
            mobile_fraction=0.1,
            # seed 2, not 0: the 12-hotspot draw must actually land
            # unevenly across the column bands or the case demonstrates
            # nothing (seed 0 spreads the hotspots almost uniformly)
            seed=2,
            shards=shards,
            cells_x=10,
            cells_y=4,
            sync_window_s=10.0,
            storm_scan_period_s=10.0,
            shard_plan=plan,
        )

    bands_wall, bands = _best_of(lambda: run("bands"), repeats)
    tiles_wall, tiles = _best_of(lambda: run("tiles"), repeats)
    bands_delivery = bands.metrics.delivery
    tiles_delivery = tiles.metrics.delivery
    delivery_rel_diff = max(
        abs(bands_delivery.received - tiles_delivery.received)
        / max(1, bands_delivery.received),
        abs(bands_delivery.on_time - tiles_delivery.on_time)
        / max(1, bands_delivery.on_time),
    )
    tiles_perf = tiles.metrics.perf or {}
    return CaseResult(
        name=name,
        wall_s=tiles_wall,
        detail={
            "n_devices": n_devices,
            "shards": shards,
            "cpus": os.cpu_count(),
            "bands_wall_s": bands_wall,
            "tiles_wall_s": tiles_wall,
            "bands_critical_path_s": bands.critical_path_s,
            "tiles_critical_path_s": tiles.critical_path_s,
            "bands_total_work_s": bands.total_work_s,
            "tiles_total_work_s": tiles.total_work_s,
            "speedup_tiles_wall": (
                bands_wall / tiles_wall if tiles_wall > 0 else 0.0
            ),
            "speedup_tiles_critical": (
                bands.critical_path_s / tiles.critical_path_s
                if tiles.critical_path_s > 0 else 0.0
            ),
            "bands_devices_per_shard": bands.devices_per_shard,
            "tiles_devices_per_shard": tiles.devices_per_shard,
            "bands_device_skew": bands.device_skew,
            "tiles_device_skew": tiles.device_skew,
            "bands_shard_load": bands.shard_load,
            "tiles_shard_load": tiles.shard_load,
            "bands_received": bands_delivery.received,
            "bands_on_time": bands_delivery.on_time,
            "tiles_received": tiles_delivery.received,
            "tiles_on_time": tiles_delivery.on_time,
            "delivery_rel_diff": delivery_rel_diff,
            "delivery_close": delivery_rel_diff <= _DELIVERY_TOLERANCE,
            "timer_discover_s": tiles_perf.get("timer_discover_s"),
            "timer_transfer_s": tiles_perf.get("timer_transfer_s"),
            "timer_energy_s": tiles_perf.get("timer_energy_s"),
            "timer_shard_sync_s": tiles_perf.get("timer_shard-sync_s"),
        },
    )


# ----------------------------------------------------------------------
# suite
# ----------------------------------------------------------------------
def run_suite(
    quick: bool = False,
    repeats: Optional[int] = None,
    only: Optional[str] = None,
) -> Dict[str, Any]:
    """Run the pinned suite; ``quick`` drops the 500-device cases.

    ``only`` selects cases by name, comma-separated (any case, even one
    ``quick`` would drop) — the CI smoke jobs use it to run e.g.
    ``crowd-5000-sharded,crowd-20000-balanced`` without paying for the
    whole suite.
    """
    if repeats is None:
        repeats = 2 if quick else 3
    builders: List[tuple] = [
        ("kernel", False,
         lambda: bench_kernel(events=50_000 if quick else 200_000)),
        ("pair", False, lambda: bench_pair(repeats=repeats)),
        ("crowd-200", False, lambda: bench_crowd_storm(
            "crowd-200",
            n_devices=200,
            arena_m=2000.0,
            hotspots=50,
            duration_s=180.0,
            scan_period_s=5.0,
            repeats=repeats,
        )),
        ("crowd-500-storm", True, lambda: bench_crowd_storm(
            "crowd-500-storm",
            n_devices=500,
            arena_m=3000.0,
            hotspots=120,
            duration_s=240.0,
            scan_period_s=5.0,
            repeats=repeats,
        )),
        ("crowd-500-channel", True, lambda: bench_channel_crowd(
            "crowd-500-channel",
            n_devices=500,
            duration_s=240.0,
            repeats=repeats,
        )),
        ("crowd-500-selection", True, lambda: bench_channel_selection(
            "crowd-500-selection",
            n_devices=500,
            duration_s=240.0,
            repeats=repeats,
        )),
        ("crowd-300-ran-chaos", True, lambda: bench_ran_chaos(
            "crowd-300-ran-chaos",
            n_devices=300,
            duration_s=300.0,
            repeats=repeats,
        )),
        # repeats pinned to 1: the three 5000-device legs make this one of
        # the most expensive cases in the suite, and its gate is an
        # identity check rather than timing noise
        ("crowd-5000-sharded", True, lambda: bench_sharded_crowd(
            "crowd-5000-sharded",
            n_devices=5000,
            duration_s=90.0,
            shards=2,
            repeats=1,
        )),
        # repeats pinned to 1 like the 5000-device case: two 20000-device
        # legs, and the gate is a ratio of two runs on the same box
        ("crowd-20000-balanced", True, lambda: bench_balanced_crowd(
            "crowd-20000-balanced",
            n_devices=20_000,
            duration_s=60.0,
            shards=4,
            repeats=1,
        )),
    ]
    if only is not None:
        known = [name for name, __, __build in builders]
        wanted = [part.strip() for part in only.split(",") if part.strip()]
        unknown = [part for part in wanted if part not in known]
        if unknown:
            raise ValueError(
                f"unknown bench case(s) {unknown}; known: {known}"
            )
        selected = [b for b in builders if b[0] in wanted]
    else:
        selected = [b for b in builders if not (quick and b[1])]
    cases: List[CaseResult] = [build() for __, __skip, build in selected]
    return {
        "schema": BENCH_SCHEMA,
        "rev": current_rev(),
        "python": sys.version.split()[0],
        "quick": quick,
        "only": only,
        "generated_unix": time.time(),
        "cases": {case.name: case.to_dict() for case in cases},
    }


def current_rev() -> str:
    """Short git revision of the working tree, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def write_report(report: Dict[str, Any], out_dir: str = "benchmarks") -> str:
    """Write ``BENCH_<rev>.json`` into ``out_dir``; returns the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{report['rev']}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


# ----------------------------------------------------------------------
# regression gate
# ----------------------------------------------------------------------
def compare_reports(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = 0.25,
) -> List[str]:
    """Regression check of ``current`` against a committed ``baseline``.

    Returns human-readable failure strings (empty = pass). Gates on the
    :data:`GATE_RATIOS` **speedup ratios**, not raw seconds: a ratio
    holds across machines of different absolute speed, so a committed
    baseline from one box meaningfully gates CI runners. A ratio is
    gated only for cases present in both reports (partial ``--only``
    runs gate what they ran). Also fails on any case whose determinism
    identity check (``identical_metrics``) or delivery cross-check
    (``delivery_close``) failed, regardless of baseline.
    """
    failures: List[str] = []
    if current.get("schema") != baseline.get("schema"):
        return [
            f"schema mismatch: current {current.get('schema')} vs "
            f"baseline {baseline.get('schema')} — regenerate the baseline"
        ]
    current_cases = current.get("cases", {})
    baseline_cases = baseline.get("cases", {})
    for name, case in current_cases.items():
        if case.get("identical_metrics") is False:
            failures.append(
                f"{name}: runs that must match diverged — "
                "determinism contract broken"
            )
        if case.get("delivery_close") is False:
            failures.append(
                f"{name}: partition plans delivered different heartbeat "
                "counts (beyond the horizon-edge tolerance) — plan "
                "choice changed simulation outcomes"
            )
    for name, ratio_key in GATE_RATIOS.items():
        if name not in current_cases or name not in baseline_cases:
            continue
        gate_now = current_cases[name].get(ratio_key)
        gate_base = baseline_cases[name].get(ratio_key)
        if gate_now is None or gate_base is None:
            failures.append(
                f"{name}: {ratio_key} missing from "
                f"{'current' if gate_now is None else 'baseline'} report"
            )
        elif gate_now < gate_base * (1.0 - tolerance):
            failures.append(
                f"{name}: {ratio_key} regressed {gate_base:.2f}x -> "
                f"{gate_now:.2f}x (more than {tolerance:.0%} below baseline)"
            )
    return failures
