"""Canned end-to-end simulations — the workhorse behind every bench.

Three scenario families, mirroring the paper's evaluation setups:

- :func:`run_relay_scenario` — one relay with ``n`` static UEs at a fixed
  distance (the paper's bench rig: Figs. 8-13, 15, Tables III/IV). Runs
  either the D2D framework (``mode="d2d"``) or the unmodified original
  system (``mode="original"``) over the same device layout.
- :func:`run_crowd_scenario` — a clustered crowd in an arena with a
  fraction of devices acting as relays; the signaling-storm setting the
  paper motivates. One :class:`CrowdSpec` describes the run, for this
  kernel and the cell-sharded one alike.
- :func:`build_network` — the shared substrate wiring, reusable for
  hand-rolled experiments.
- :func:`relay_savings_runner` / :func:`crowd_metrics_runner` — picklable
  module-level grid runners over the two scenario families, built for
  ``repro.sweep.grid_sweep(..., workers=N)`` fan-out.

Every run stops beat emission one second before the nominal horizon, then
drains for ``drain_s`` so RRC tails demote, acks arrive, and energy/
signaling totals are complete and comparable across modes.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from repro.baseline.original import OriginalSystem
from repro.cellular.basestation import BaseStation
from repro.cellular.paging import PagingChannel
from repro.cellular.rrc import RrcProfile, WCDMA_PROFILE
from repro.cellular.signaling import SignalingLedger
from repro.core.framework import FrameworkConfig, HeartbeatRelayFramework
from repro.core.matching import MatchConfig
from repro.core.scheduler import SchedulerConfig
from repro.d2d.base import D2DMedium, D2DTechnology
from repro.d2d.wifi_direct import WIFI_DIRECT
from repro.device import Role, Smartphone
from repro.energy.profiles import DEFAULT_PROFILE, EnergyProfile
from repro.metrics import FaultMetrics, RunMetrics, collect_metrics
from repro.mobility.models import MobilityModel, StaticMobility, place_crowd
from repro.mobility.space import Arena
from repro.sim.engine import Simulator
from repro.sim.rng import make_rng
from repro.workload.apps import AppProfile, STANDARD_APP
from repro.workload.server import IMServer

#: Post-emission drain: longer than the RRC tail plus ack round trip.
DEFAULT_DRAIN_S = 30.0


@dataclasses.dataclass
class NetworkContext:
    """Shared substrates of one simulation run."""

    sim: Simulator
    ledger: SignalingLedger
    basestation: BaseStation
    server: IMServer
    medium: Optional[D2DMedium]
    profile: EnergyProfile
    rrc_profile: RrcProfile
    #: Shared paging channel; passive (zero events) unless something —
    #: e.g. a chaos paging storm — actually pages through it.
    paging: Optional[PagingChannel] = None


def build_network(
    seed: int = 0,
    profile: EnergyProfile = DEFAULT_PROFILE,
    rrc_profile: RrcProfile = WCDMA_PROFILE,
    technology: Optional[D2DTechnology] = WIFI_DIRECT,
    allow_undeployed: bool = False,
    group_aware: bool = False,
    channel: Optional[str] = None,
    allocator: str = "centralized",
    num_rbs: int = 6,
    shadowing_sigma_db: Optional[float] = None,
) -> NetworkContext:
    """Wire up simulator, signaling ledger, base station, server, medium.

    ``channel`` selects the transfer model: ``None``/``"fixed"`` keeps
    the calibrated fixed-cost constants (the default, byte-identical to
    the pre-channel implementation), ``"sinr"`` activates the
    interference-aware capacity layer with ``num_rbs`` resource blocks
    assigned by ``allocator`` (see :data:`repro.channel.ALLOCATORS`).

    ``shadowing_sigma_db`` overrides the link model's lognormal shadowing
    standard deviation (the Zafaruddin et al. sweep axis) without
    touching the technology's other parameters.
    """
    if channel not in (None, "fixed", "sinr"):
        raise ValueError(f"channel must be 'fixed' or 'sinr', got {channel!r}")
    sim = Simulator(seed=seed)
    ledger = SignalingLedger()
    basestation = BaseStation(sim, ledger=ledger)
    server = IMServer(sim)
    basestation.attach_sink(server.uplink_sink)
    medium = None
    if technology is not None:
        if shadowing_sigma_db is not None:
            technology = dataclasses.replace(
                technology,
                link=dataclasses.replace(
                    technology.link, shadowing_sigma_db=shadowing_sigma_db
                ),
            )
        channel_model = None
        if channel == "sinr":
            from repro.channel.model import ChannelConfig, ChannelModel

            channel_model = ChannelModel(
                config=ChannelConfig(num_rbs=num_rbs, allocator=allocator),
                link=technology.link,
            )
        medium = D2DMedium(
            sim, technology, profile=profile, allow_undeployed=allow_undeployed,
            group_aware=group_aware, channel=channel_model,
        )
    return NetworkContext(
        sim=sim,
        ledger=ledger,
        basestation=basestation,
        server=server,
        medium=medium,
        profile=profile,
        rrc_profile=rrc_profile,
        paging=PagingChannel(sim, ledger),
    )


@dataclasses.dataclass
class ScenarioResult:
    """Everything a bench needs from one finished run."""

    context: NetworkContext
    metrics: RunMetrics
    devices: Dict[str, Smartphone]
    relay_ids: List[str]
    ue_ids: List[str]
    framework: Optional[HeartbeatRelayFramework]
    original: Optional[OriginalSystem]
    app: AppProfile
    periods: int
    #: Populated when the run enabled chaos and/or the invariant auditor
    #: (see :mod:`repro.faults`); ``None`` otherwise.
    chaos_report: Optional[object] = None
    audit_report: Optional[object] = None

    # convenience accessors -------------------------------------------------
    def relay_energy_uah(self) -> float:
        return sum(self.metrics.energy_of(r) for r in self.relay_ids)

    def ue_energy_uah(self) -> float:
        return sum(self.metrics.energy_of(u) for u in self.ue_ids)

    def system_energy_uah(self) -> float:
        return self.metrics.total_energy_uah()

    def per_device_energy_uah(self, device_id: str) -> float:
        return self.metrics.energy_of(device_id)

    def relay_l3(self) -> int:
        return sum(self.metrics.l3_of(r) for r in self.relay_ids)

    def ue_l3(self) -> int:
        return sum(self.metrics.l3_of(u) for u in self.ue_ids)

    def total_l3(self) -> int:
        return self.metrics.total_l3_messages

    def on_time_fraction(self) -> float:
        return self.metrics.delivery.on_time_fraction if self.metrics.delivery else 1.0

    def audit_ok(self) -> bool:
        """Whether the invariant auditor ran and found zero violations."""
        return self.audit_report is not None and self.audit_report.ok

    def deadline_safe_fraction(self) -> float:
        """Audited on-time fraction of non-exempt beats (1.0 unaudited)."""
        if self.metrics.faults is None:
            return 1.0
        return self.metrics.faults.deadline_safe_fraction


def _attach_faults(
    context: NetworkContext,
    devices: Dict[str, Smartphone],
    framework: Optional[HeartbeatRelayFramework],
    original: Optional[OriginalSystem],
    chaos,
    chaos_seed: Optional[int],
    audit: Optional[bool],
    seed: int,
):
    """Attach the invariant auditor and/or chaos engine to a built scenario.

    Auditor first, chaos second: ack suppression must wrap *outside* the
    audit hook so the auditor only sees acks the UE really received.
    Returns ``(auditor, engine)`` (either may be ``None``).
    """
    audit_enabled = (chaos is not None) if audit is None else audit
    auditor = None
    if audit_enabled:
        from repro.faults.auditor import InvariantAuditor
        from repro.faults.chaos import resolve_profile

        auditor = InvariantAuditor(
            context.sim,
            server=context.server,
            rewards=framework.rewards if framework is not None else None,
        )
        if framework is not None:
            auditor.attach_framework(framework, devices)
        elif original is not None:
            auditor.attach_original(original, devices)
        auditor.attach_basestation(context.basestation)
        resolved = resolve_profile(chaos) if chaos is not None else None
        if resolved is not None:
            auditor.reattach_bound_s = resolved.reattach_bound_s
    engine = None
    if chaos is not None:
        from repro.faults.chaos import ChaosEngine

        engine = ChaosEngine(
            chaos, seed=seed if chaos_seed is None else chaos_seed
        )
        engine.attach(
            context.sim,
            devices,
            medium=context.medium,
            framework=framework,
            original=original,
            basestation=context.basestation,
            paging=context.paging,
        )
    return auditor, engine


def _iter_fallback_senders(
    framework: Optional[HeartbeatRelayFramework],
    original: Optional[OriginalSystem],
):
    """Every degraded-mode cellular sender wired into a built scenario."""
    if framework is not None:
        for agent in framework.ues.values():
            yield agent.cellular
        for agent in framework.relays.values():
            yield agent.cellular
        for sender in framework.standalones.values():
            yield sender.cellular
    if original is not None:
        yield from original.fallback_senders.values()


def _fault_metrics(
    engine,
    auditor,
    horizon: float,
    framework: Optional[HeartbeatRelayFramework],
    original: Optional[OriginalSystem] = None,
    context: Optional[NetworkContext] = None,
) -> Optional[FaultMetrics]:
    """Fold chaos/audit outcomes into one :class:`FaultMetrics` record."""
    if engine is None and auditor is None:
        return None
    fallbacks = late = duplicates = 0
    if framework is not None:
        for agent in framework.ues.values():
            fallbacks += agent.feedback.fallbacks_fired
            late += agent.feedback.late_acks
            duplicates += agent.feedback.duplicate_acks
    retries = detaches = reattaches = 0
    dropped_stale = dropped_overflow = dropped_retries = 0
    for sender in _iter_fallback_senders(framework, original):
        retries += sender.retries
        detaches += sender.detaches
        reattaches += sender.reattaches
        dropped_stale += sender.dropped_stale
        dropped_overflow += sender.dropped_overflow
        dropped_retries += sender.dropped_retries
    chaos = engine.report if engine is not None else None
    report = auditor.finalize(horizon) if auditor is not None else None
    return FaultMetrics(
        chaos_profile=chaos.profile if chaos else None,
        chaos_seed=chaos.seed if chaos else None,
        chaos_events=chaos.total_events if chaos else 0,
        relay_deaths=chaos.relay_deaths if chaos else 0,
        relay_revivals=chaos.relay_revivals if chaos else 0,
        link_downs=chaos.link_downs if chaos else 0,
        link_ups=chaos.link_ups if chaos else 0,
        ack_bursts=chaos.ack_bursts if chaos else 0,
        acks_dropped=chaos.acks_dropped if chaos else 0,
        storm_beats=chaos.storm_beats if chaos else 0,
        batteries_depleted=chaos.batteries_depleted if chaos else 0,
        fallbacks_fired=fallbacks,
        late_acks=late,
        duplicate_acks=duplicates,
        audit_violations=len(report.violations) if report is not None else None,
        beats_adjudicated=report.beats_adjudicated if report is not None else 0,
        beats_on_time=report.beats_on_time if report is not None else 0,
        beats_exempt_downtime=(
            report.beats_exempt_downtime if report is not None else 0
        ),
        bs_outages=chaos.bs_outages if chaos else 0,
        bs_brownouts=chaos.bs_brownouts if chaos else 0,
        rrc_rejections=chaos.rrc_rejections if chaos else 0,
        pages_injected=chaos.pages_injected if chaos else 0,
        pages_failed=(
            context.paging.pages_failed
            if context is not None and context.paging is not None
            else 0
        ),
        uplinks_rejected=(
            context.basestation.uplinks_rejected if context is not None else 0
        ),
        cellular_retries=retries,
        detaches=detaches,
        reattaches=reattaches,
        beats_dropped_stale=dropped_stale,
        beats_dropped_overflow=dropped_overflow,
        beats_dropped_retries=dropped_retries,
        beats_buffered_end=report.beats_buffered_end if report is not None else 0,
        beats_exempt_ran=report.beats_exempt_ran if report is not None else 0,
    )


def _channel_snapshot(context: NetworkContext, horizon: float):
    """Channel aggregates of the run, or ``None`` in fixed mode."""
    if context.medium is None or context.medium.channel is None:
        return None
    return context.medium.channel.stats_snapshot(horizon)


def _ue_positions(n: int, distance_m: float) -> List[MobilityModel]:
    """``n`` static UEs on a circle of radius ``distance_m`` round the relay."""
    models: List[MobilityModel] = []
    for i in range(n):
        angle = 2.0 * math.pi * i / max(n, 1)
        models.append(
            StaticMobility(
                (distance_m * math.cos(angle), distance_m * math.sin(angle))
            )
        )
    return models


def _spread_phases(n: int, low: float = 0.3, high: float = 0.8) -> List[float]:
    """Evenly spread UE heartbeat phases inside the relay period."""
    if n <= 0:
        return []
    if n == 1:
        return [(low + high) / 2.0]
    step = (high - low) / (n - 1)
    return [low + i * step for i in range(n)]


def run_relay_scenario(
    n_ues: int = 1,
    distance_m: float = 1.0,
    periods: int = 7,
    app: AppProfile = STANDARD_APP,
    heartbeat_bytes: Optional[int] = None,
    mode: str = "d2d",
    capacity: int = 10,
    seed: int = 0,
    technology: D2DTechnology = WIFI_DIRECT,
    profile: EnergyProfile = DEFAULT_PROFILE,
    rrc_profile: RrcProfile = WCDMA_PROFILE,
    match_config: Optional[MatchConfig] = None,
    scheduler_config: Optional[SchedulerConfig] = None,
    drain_s: float = DEFAULT_DRAIN_S,
    allow_undeployed: bool = False,
    ue_phases: Optional[Sequence[float]] = None,
    keep_energy_log: bool = False,
    group_aware: bool = False,
    chaos=None,
    chaos_seed: Optional[int] = None,
    audit: Optional[bool] = None,
    channel: Optional[str] = None,
    allocator: str = "centralized",
    num_rbs: int = 6,
    shadowing_sigma_db: Optional[float] = None,
    selection_policy: Optional[str] = None,
) -> ScenarioResult:
    """The paper's bench rig: one relay, ``n_ues`` UEs at ``distance_m``.

    Runs for ``periods`` relay heartbeat periods. Each UE beats once per
    period (same app), phased mid-period so its beat is collected and
    flushed with the relay's own delayed beat — the paper's "transmission
    times" axis equals ``periods`` for one UE.

    ``mode="original"`` runs the identical device layout without the
    framework (the baseline); ``mode="d2d"`` deploys the framework.

    ``chaos`` (a :class:`repro.faults.ChaosProfile` or its name) layers
    stochastic fault processes on the run, seeded by ``chaos_seed``
    (default: ``seed``). ``audit`` runs the delivery-safety auditor
    (default: on whenever chaos is on).
    """
    if n_ues < 0:
        raise ValueError(f"n_ues must be non-negative, got {n_ues}")
    if not distance_m >= 0.0:
        raise ValueError(f"distance_m must be non-negative, got {distance_m}")
    if periods < 1:
        raise ValueError(f"periods must be >= 1, got {periods}")
    if mode not in ("d2d", "original"):
        raise ValueError(f"mode must be 'd2d' or 'original', got {mode!r}")
    if heartbeat_bytes is not None:
        app = dataclasses.replace(app, heartbeat_bytes=heartbeat_bytes)
    if selection_policy is not None:
        match_config = dataclasses.replace(
            match_config or MatchConfig(), selection_policy=selection_policy
        )
    context = build_network(
        seed=seed,
        profile=profile,
        rrc_profile=rrc_profile,
        technology=technology if mode == "d2d" else None,
        allow_undeployed=allow_undeployed,
        group_aware=group_aware,
        channel=channel,
        allocator=allocator,
        num_rbs=num_rbs,
        shadowing_sigma_db=shadowing_sigma_db,
    )
    relay_role = Role.RELAY if mode == "d2d" else Role.STANDALONE
    ue_role = Role.UE if mode == "d2d" else Role.STANDALONE

    devices: Dict[str, Smartphone] = {}
    relay = Smartphone(
        context.sim,
        "relay-0",
        mobility=StaticMobility((0.0, 0.0)),
        role=relay_role,
        ledger=context.ledger,
        basestation=context.basestation,
        d2d_medium=context.medium,
        profile=profile,
        rrc_profile=rrc_profile,
    )
    devices[relay.device_id] = relay
    ue_mobilities = _ue_positions(n_ues, distance_m)
    ues: List[Smartphone] = []
    for i, mobility in enumerate(ue_mobilities):
        ue = Smartphone(
            context.sim,
            f"ue-{i}",
            mobility=mobility,
            role=ue_role,
            ledger=context.ledger,
            basestation=context.basestation,
            d2d_medium=context.medium,
            profile=profile,
            rrc_profile=rrc_profile,
        )
        devices[ue.device_id] = ue
        ues.append(ue)

    if keep_energy_log:
        for device in devices.values():
            device.energy.keep_log = True
    phases = list(ue_phases) if ue_phases is not None else _spread_phases(n_ues)
    framework: Optional[HeartbeatRelayFramework] = None
    original: Optional[OriginalSystem] = None
    if mode == "d2d":
        config = FrameworkConfig(
            scheduler=scheduler_config or SchedulerConfig(capacity=capacity),
            matching=match_config or MatchConfig(),
        )
        framework = HeartbeatRelayFramework([], app=app, config=config)
        framework.add_device(relay, phase_fraction=0.0)
        for ue, phase in zip(ues, phases):
            framework.add_device(ue, phase_fraction=phase)
    else:
        original = OriginalSystem(app=app)
        original.add_device(relay, phase_fraction=0.0)
        for ue, phase in zip(ues, phases):
            original.add_device(ue, phase_fraction=phase)

    auditor, engine = _attach_faults(
        context, devices, framework, original, chaos, chaos_seed, audit, seed
    )
    stop_at = periods * app.heartbeat_period_s - 1.0
    context.sim.run_until(stop_at)
    if framework is not None:
        framework.shutdown()
    if original is not None:
        original.shutdown()
    horizon = periods * app.heartbeat_period_s + drain_s
    context.sim.run_until(horizon)

    faults = _fault_metrics(
        engine, auditor, horizon, framework, original=original, context=context
    )
    metrics = collect_metrics(
        devices.values(), context.ledger, context.server, horizon_s=horizon,
        faults=faults,
        perf=context.medium.perf.to_dict() if context.medium else None,
        channel=_channel_snapshot(context, horizon),
    )
    return ScenarioResult(
        context=context,
        metrics=metrics,
        devices=devices,
        relay_ids=[relay.device_id],
        ue_ids=[u.device_id for u in ues],
        framework=framework,
        original=original,
        app=app,
        periods=periods,
        chaos_report=engine.report if engine is not None else None,
        audit_report=auditor.report if auditor is not None else None,
    )


def relay_savings_runner(
    distance_m: float = 1.0,
    periods: int = 7,
    n_ues: int = 1,
    seed: int = 0,
    capacity: int = 10,
    chaos_profile: Optional[str] = None,
    chaos_seed: Optional[int] = None,
) -> Dict[str, float]:
    """Grid runner: paired d2d/original relay runs → headline metrics.

    Module-level (hence picklable) so ``grid_sweep(..., workers=N)`` can
    ship it to ``ProcessPoolExecutor`` workers; every argument is a plain
    scalar for the same reason. Returns the saved fractions the
    sensitivity benches assert on plus the raw relay charge.
    """
    from repro.analysis import saved_fraction

    d2d = run_relay_scenario(
        n_ues=n_ues, distance_m=distance_m, periods=periods,
        capacity=capacity, seed=seed,
        chaos=chaos_profile, chaos_seed=chaos_seed,
    )
    base = run_relay_scenario(
        n_ues=n_ues, distance_m=distance_m, periods=periods,
        capacity=capacity, seed=seed, mode="original",
    )
    result = {
        "system_saved": saved_fraction(
            base.system_energy_uah(), d2d.system_energy_uah()
        ),
        "ue_saved": saved_fraction(base.ue_energy_uah(), d2d.ue_energy_uah()),
        "l3_saved": saved_fraction(float(base.total_l3()), float(d2d.total_l3())),
        "relay_uah": d2d.relay_energy_uah(),
    }
    if chaos_profile is not None:
        result["audit_violations"] = float(
            len(d2d.audit_report.violations) if d2d.audit_report else 0
        )
        result["deadline_safe_fraction"] = d2d.deadline_safe_fraction()
    return result


def crowd_metrics_runner(
    n_devices: int = 40,
    relay_fraction: float = 0.2,
    duration_s: float = 1800.0,
    arena_m: float = 60.0,
    hotspots: Optional[int] = None,
    seed: int = 0,
    mode: str = "d2d",
    chaos_profile: Optional[str] = None,
    chaos_seed: Optional[int] = None,
    channel: Optional[str] = None,
    allocator: str = "centralized",
    num_rbs: int = 6,
    shadowing_sigma_db: Optional[float] = None,
    selection_policy: Optional[str] = None,
    heartbeat_period_s: Optional[float] = None,
    audit: Optional[bool] = None,
    mobile_fraction: float = 0.0,
    shards: int = 1,
    shard_backend: str = "serial",
) -> Dict[str, float]:
    """Grid runner: one crowd run → plain scalar metrics.

    Picklable like :func:`relay_savings_runner`. ``hotspots=None`` scales
    the cluster count with the crowd (one per ~20 devices, at least two),
    so a single runner covers a whole device-count axis. The channel
    knobs (``channel``/``allocator``/``num_rbs``/``shadowing_sigma_db``/
    ``selection_policy``) are plain scalars for the same picklability
    reason; ``audit=True`` runs the invariant auditor and reports its
    violation count even without chaos.

    ``shards > 1`` dispatches to the cell-sharded kernel
    (:func:`repro.shard.run_crowd_scenario_sharded`) with
    ``shard_backend`` choosing serial or process execution; the sharded
    kernel rejects the channel, chaos and audit options it cannot honor.
    ``shards=1`` runs the unsharded kernel, whose result one shard
    reproduces exactly. Either way the run is one :class:`CrowdSpec`.
    """
    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    app = STANDARD_APP
    if heartbeat_period_s is not None:
        app = dataclasses.replace(app, heartbeat_period_s=heartbeat_period_s)
    spec = CrowdSpec(
        n_devices=n_devices,
        relay_fraction=relay_fraction,
        duration_s=duration_s,
        arena=Arena(arena_m, arena_m),
        hotspots=max(2, n_devices // 20) if hotspots is None else hotspots,
        mobile_fraction=mobile_fraction,
        seed=seed,
        mode=mode,
        app=app,
        chaos=chaos_profile,
        chaos_seed=chaos_seed,
        channel=channel,
        allocator=allocator,
        num_rbs=num_rbs,
        shadowing_sigma_db=shadowing_sigma_db,
        selection_policy=selection_policy,
        audit=audit,
    )
    if shards > 1:
        from repro.shard import run_crowd_scenario_sharded

        result = run_crowd_scenario_sharded(
            spec, shards=shards, backend=shard_backend
        )
        events_fired = result.events_fired
    else:
        result = run_crowd_scenario(spec)
        events_fired = result.context.sim.events_fired
    metrics = result.metrics
    delivery = metrics.delivery
    out = {
        "events_fired": float(events_fired),
        "on_time_fraction": delivery.on_time_fraction if delivery else 1.0,
        "received": float(delivery.received if delivery else 0),
        "total_l3": float(metrics.total_l3_messages),
        "system_uah": metrics.total_energy_uah(),
    }
    if shards > 1:
        out.update(
            shards=float(shards),
            windows=float(result.windows),
            handovers=float(result.handovers),
            ghost_registrations=float(result.ghost_registrations),
            device_skew=result.device_skew,
            critical_path_s=result.critical_path_s,
        )
        return out
    if chaos_profile is not None or result.audit_report is not None:
        out["audit_violations"] = float(
            len(result.audit_report.violations) if result.audit_report else 0
        )
        out["deadline_safe_fraction"] = result.deadline_safe_fraction()
    if metrics.channel is not None:
        out["channel_transfers"] = float(metrics.channel["transfers"])
        out["channel_mean_rate_bps"] = float(
            metrics.channel["mean_rate_bps"] or 0.0
        )
        out["channel_rb_utilization"] = float(metrics.channel["rb_utilization"])
    return out


def chaos_differential_runner(
    scenario: str = "pair",
    profile: str = "mild",
    seed: int = 0,
    n_ues: int = 2,
    periods: int = 4,
    n_devices: int = 12,
    duration_s: float = 900.0,
) -> Dict[str, float]:
    """Grid runner: one differential chaos case → pass/fail scalars.

    Runs the scenario audited with and without chaos and reports the
    safety deltas (see :func:`repro.faults.harness.run_differential`).
    Picklable, so distributed sweeps can fan a whole profile × seed grid
    across hosts.
    """
    from repro.faults.harness import run_differential

    case = run_differential(
        scenario=scenario,
        profile=profile,
        seed=seed,
        n_ues=n_ues,
        periods=periods,
        n_devices=n_devices,
        duration_s=duration_s,
    )
    return {
        "passed": 1.0 if case.passed else 0.0,
        "baseline_on_time": case.baseline_on_time,
        "chaos_on_time": case.chaos_on_time,
        "chaos_deadline_safe": case.chaos_deadline_safe,
        "audit_violations": float(case.audit_violations),
        "chaos_events": float(case.chaos_events),
    }


def _ran_differential_runner(
    profile: str,
    scenario: str,
    seed: int,
    n_ues: int,
    periods: int,
    n_devices: int,
    duration_s: float,
) -> Dict[str, float]:
    from repro.faults.harness import run_ran_differential

    case = run_ran_differential(
        scenario=scenario,
        profile=profile,
        seed=seed,
        n_ues=n_ues,
        periods=periods,
        n_devices=n_devices,
        duration_s=duration_s,
    )
    return {
        "passed": 1.0 if case.passed else 0.0,
        "baseline_deadline_safe": case.baseline_deadline_safe,
        "chaos_deadline_safe": case.chaos_deadline_safe,
        "audit_violations": float(case.chaos_violations),
        "chaos_events": float(case.chaos_events),
        "bs_outages": float(case.bs_outages),
        "bs_brownouts": float(case.bs_brownouts),
        "uplinks_rejected": float(case.uplinks_rejected),
        "detaches": float(case.detaches),
        "reattaches": float(case.reattaches),
        "beats_dropped": float(case.beats_dropped),
        "replay_identical": 1.0 if case.replay_identical else 0.0,
    }


def ran_outage_runner(
    scenario: str = "pair",
    seed: int = 0,
    n_ues: int = 2,
    periods: int = 4,
    n_devices: int = 12,
    duration_s: float = 900.0,
) -> Dict[str, float]:
    """Grid runner: differential base-station-outage case → scalars.

    Picklable like the other registry runners; wraps
    :func:`repro.faults.harness.run_ran_differential` with the
    ``ran-outage`` profile (hard cell outages + reattach liveness).
    """
    return _ran_differential_runner(
        "ran-outage", scenario, seed, n_ues, periods, n_devices, duration_s
    )


def paging_storm_runner(
    scenario: str = "pair",
    seed: int = 0,
    n_ues: int = 2,
    periods: int = 4,
    n_devices: int = 12,
    duration_s: float = 900.0,
) -> Dict[str, float]:
    """Grid runner: differential paging-storm case → scalars.

    Same shape as :func:`ran_outage_runner`, with the ``paging-storm``
    profile (control-channel page floods + brown-outs + RRC rejects).
    """
    return _ran_differential_runner(
        "paging-storm", scenario, seed, n_ues, periods, n_devices, duration_s
    )


#: Name → picklable grid runner: ``repro-sim sweep``/``grid --runner NAME``
#: look the runner up here, so a command line can pick any of them by a
#: plain string.
RUNNER_REGISTRY: Dict[str, Callable[..., Dict[str, float]]] = {
    "relay-savings": relay_savings_runner,
    "crowd-metrics": crowd_metrics_runner,
    "chaos-differential": chaos_differential_runner,
    "ran-outage": ran_outage_runner,
    "paging-storm": paging_storm_runner,
}


class CrowdLayout(NamedTuple):
    """Who stands where, who relays, and when each device beats."""

    mobilities: List[MobilityModel]
    relay_indices: FrozenSet[int]
    #: heartbeat phase fraction per device (relays beat at phase 0)
    phases: List[float]


def crowd_layout(
    n_devices: int,
    relay_fraction: float,
    arena: Arena,
    seed: int,
    hotspots: int = 3,
    hotspot_spread_m: float = 8.0,
    mobile_fraction: float = 0.0,
    relay_selection: str = "roundrobin",
) -> CrowdLayout:
    """The crowd both kernels simulate, drawn from the master seed.

    Placement, the operator's relay choice and the heartbeat phases each
    come from their own named stream (``crowd-placement``,
    ``relay-selection``, ``crowd-phases``) with one draw per device in
    index order, so the unsharded run and every shard of a sharded run
    see the same crowd. ``relay_selection`` picks who the operator
    appoints: ``"roundrobin"`` (the first devices of each hotspot),
    ``"greedy"`` (dominating-set planning over the matcher's pair range)
    or ``"random"``.
    """
    if not 0.0 <= relay_fraction <= 1.0:
        raise ValueError(f"relay_fraction out of [0,1]: {relay_fraction}")
    if relay_selection not in ("roundrobin", "greedy", "random"):
        raise ValueError(f"unknown relay_selection {relay_selection!r}")
    mobilities = place_crowd(
        n_devices,
        arena,
        make_rng(seed, "crowd-placement"),
        hotspots=hotspots,
        spread_m=hotspot_spread_m,
        mobile_fraction=mobile_fraction,
    )
    n_relays = int(round(n_devices * relay_fraction))
    if relay_selection == "roundrobin" or n_relays == 0:
        relay_indices = frozenset(range(n_relays))
    else:
        from repro.core.operator import (
            Participant,
            greedy_relay_selection,
            random_relay_selection,
        )

        participants = [
            Participant(str(i), mobility.position(0.0))
            for i, mobility in enumerate(mobilities)
        ]
        if relay_selection == "greedy":
            chosen = greedy_relay_selection(
                participants,
                range_m=MatchConfig().max_pair_distance_m,
                max_relays=n_relays,
            )
        else:  # random
            chosen = random_relay_selection(
                participants, n_relays, make_rng(seed, "relay-selection")
            )
        relay_indices = frozenset(int(device_id) for device_id in chosen)
    phase_rng = make_rng(seed, "crowd-phases")
    phases = [phase_rng.random() for _ in mobilities]
    return CrowdLayout(mobilities, relay_indices, phases)


@dataclasses.dataclass(frozen=True)
class CrowdSpec:
    """One crowd run, on either kernel.

    Every crowd entry point builds from a spec:
    :func:`run_crowd_scenario` runs it on one simulator and
    :func:`repro.shard.run_crowd_scenario_sharded` across cell shards,
    which reject the options they cannot honor. Frozen and picklable, so
    the sharded kernel ships it to its worker processes as is; the
    original-system baseline of a run is ``dataclasses.replace(spec,
    mode="original")``.

    ``relay_fraction`` of the devices volunteer as relays (the rest are
    UEs, or everything is standalone in ``mode="original"``); placement,
    relay choice (``relay_selection``) and phases come from
    :meth:`layout`. ``chaos`` (a :class:`repro.faults.ChaosProfile` or
    its name) layers fault processes on the run, seeded by
    ``chaos_seed`` (default: ``seed``); ``audit`` runs the invariant
    auditor (default: on whenever chaos is on). ``channel="sinr"`` prices
    transfers over ``num_rbs`` resource blocks assigned by ``allocator``
    (see :func:`build_network`). ``storm_scan_period_s`` makes every
    device advertise and scan at that period (see
    :func:`start_discovery_storm`).
    """

    n_devices: int = 40
    relay_fraction: float = 0.2
    arena: Arena = Arena(60.0, 60.0)
    duration_s: float = 1800.0
    hotspots: int = 3
    hotspot_spread_m: float = 8.0
    mobile_fraction: float = 0.0
    seed: int = 0
    mode: str = "d2d"
    app: AppProfile = STANDARD_APP
    capacity: int = 10
    relay_selection: str = "roundrobin"
    selection_policy: Optional[str] = None
    drain_s: float = DEFAULT_DRAIN_S
    storm_scan_period_s: Optional[float] = None
    chaos: Optional[object] = None
    chaos_seed: Optional[int] = None
    audit: Optional[bool] = None
    channel: Optional[str] = None
    allocator: str = "centralized"
    num_rbs: int = 6
    shadowing_sigma_db: Optional[float] = None

    def __post_init__(self) -> None:
        if self.mode not in ("d2d", "original"):
            raise ValueError(
                f"mode must be 'd2d' or 'original', got {self.mode!r}"
            )
        if not self.hotspot_spread_m >= 0.0:
            raise ValueError(
                f"hotspot_spread_m must be non-negative, "
                f"got {self.hotspot_spread_m}"
            )
        if not self.drain_s >= 0.0:
            raise ValueError(f"drain_s must be non-negative, got {self.drain_s}")
        if self.storm_scan_period_s is not None and self.mode != "d2d":
            raise ValueError(
                "storm_scan_period_s needs mode='d2d' (the original system "
                "has no D2D radio to scan with)"
            )

    @classmethod
    def of(cls, spec: Optional["CrowdSpec"], fields: Dict[str, object]) -> "CrowdSpec":
        """``spec`` with ``fields`` replaced, or ``CrowdSpec(**fields)``."""
        return cls(**fields) if spec is None else dataclasses.replace(spec, **fields)

    def layout(self) -> CrowdLayout:
        """The whole crowd, from the master seed (see :func:`crowd_layout`)."""
        return crowd_layout(
            self.n_devices,
            self.relay_fraction,
            self.arena,
            self.seed,
            hotspots=self.hotspots,
            hotspot_spread_m=self.hotspot_spread_m,
            mobile_fraction=self.mobile_fraction,
            relay_selection=self.relay_selection,
        )

    def match_config(self) -> MatchConfig:
        """The relay matcher's config, ranking by ``selection_policy``.

        On the fixed channel there is no rate to rank by, so ``"rate"``
        and ``"hybrid"`` rank by distance there.
        """
        if self.selection_policy is None:
            return MatchConfig()
        return MatchConfig(selection_policy=self.selection_policy)


#: ``attach(layout_index, device_id)`` -> the device's ``(ledger,
#: basestation)``, or ``None`` when another shard owns the device.
CellAttach = Callable[
    [int, str], Optional[Tuple[SignalingLedger, BaseStation]]
]


class CrowdDevices(NamedTuple):
    """The devices :func:`build_crowd` made, and the system running them."""

    devices: Dict[str, Smartphone]
    relay_ids: List[str]
    ue_ids: List[str]
    framework: Optional[HeartbeatRelayFramework]
    original: Optional[OriginalSystem]


def build_crowd(
    sim: Simulator,
    spec: CrowdSpec,
    layout: CrowdLayout,
    attach: CellAttach,
    medium: Optional[D2DMedium],
) -> CrowdDevices:
    """Turn a crowd layout into devices, in index order, for either kernel.

    Builds the relay framework (``mode="d2d"``) or the original system,
    then one :class:`Smartphone` per device that ``attach`` places in a
    cell: ``relay-<i>`` for the layout's relays, ``dev-<i>`` for the
    rest. Relays beat at phase 0, everyone else at their layout phase.
    """
    mode = spec.mode
    framework: Optional[HeartbeatRelayFramework] = None
    original: Optional[OriginalSystem] = None
    if mode == "d2d":
        framework = HeartbeatRelayFramework(
            [],
            app=spec.app,
            config=FrameworkConfig(
                scheduler=SchedulerConfig(capacity=spec.capacity),
                matching=spec.match_config(),
            ),
        )
    else:
        original = OriginalSystem([], app=spec.app)
    crowd = CrowdDevices({}, [], [], framework, original)
    for i, (mobility, phase) in enumerate(zip(layout.mobilities, layout.phases)):
        is_relay = i in layout.relay_indices and mode == "d2d"
        device_id = f"{'relay' if is_relay else 'dev'}-{i}"
        cell = attach(i, device_id)
        if cell is None:
            continue
        ledger, basestation = cell
        role = (
            Role.RELAY
            if is_relay
            else (Role.UE if mode == "d2d" else Role.STANDALONE)
        )
        device = Smartphone(
            sim,
            device_id,
            mobility=mobility,
            role=role,
            ledger=ledger,
            basestation=basestation,
            d2d_medium=medium,
        )
        crowd.devices[device_id] = device
        (crowd.relay_ids if is_relay else crowd.ue_ids).append(device_id)
        if framework is not None:
            framework.add_device(device, phase_fraction=0.0 if is_relay else phase)
        else:
            original.add_device(device, phase_fraction=phase)
    return crowd


def start_discovery_storm(
    sim: Simulator,
    medium: D2DMedium,
    devices: Dict[str, Smartphone],
    scan_period_s: float,
) -> None:
    """Every one of ``devices`` advertises and scans every ``scan_period_s``."""
    for device_id in devices:
        endpoint = medium.endpoint(device_id)
        endpoint.advertising = True
        endpoint.advertisement.setdefault("storm", 1)

        def tick(did: str = device_id) -> None:
            if medium.endpoint(did).powered_on:
                medium.discover(did, lambda peers: None)

        sim.every(scan_period_s, tick, name=f"storm-{device_id}")


def run_crowd_scenario(
    spec: Optional[CrowdSpec] = None,
    *,
    pre_run: Optional[Callable[[NetworkContext, Dict[str, Smartphone]], None]] = None,
    **fields,
) -> ScenarioResult:
    """A dense crowd: the signaling-storm setting of the paper's Sec. I.

    Runs ``spec``; keyword ``fields`` build it (``CrowdSpec(**fields)``)
    or replace those fields of a given ``spec``. The devices come from
    :func:`build_crowd` over :meth:`CrowdSpec.layout`; the sharded kernel
    builds its shards with the same two.

    ``pre_run(context, devices)`` is called after wiring but before the
    clock starts — the hook for attaching extra instrumentation or
    scheduling additional traffic (e.g. push notifications).
    """
    spec = CrowdSpec.of(spec, fields)
    layout = spec.layout()
    context = build_network(
        seed=spec.seed,
        technology=WIFI_DIRECT if spec.mode == "d2d" else None,
        channel=spec.channel,
        allocator=spec.allocator,
        num_rbs=spec.num_rbs,
        shadowing_sigma_db=spec.shadowing_sigma_db,
    )
    crowd = build_crowd(
        context.sim,
        spec,
        layout,
        lambda _index, _device_id: (context.ledger, context.basestation),
        context.medium,
    )
    devices, framework, original = crowd.devices, crowd.framework, crowd.original

    auditor, engine = _attach_faults(
        context, devices, framework, original,
        spec.chaos, spec.chaos_seed, spec.audit, spec.seed,
    )
    if spec.storm_scan_period_s is not None:
        start_discovery_storm(
            context.sim, context.medium, devices, spec.storm_scan_period_s
        )
    if pre_run is not None:
        pre_run(context, devices)
    context.sim.run_until(max(0.0, spec.duration_s - 1.0))
    if framework is not None:
        framework.shutdown()
    if original is not None:
        original.shutdown()
    horizon = spec.duration_s + spec.drain_s
    context.sim.run_until(horizon)
    faults = _fault_metrics(
        engine, auditor, horizon, framework, original=original, context=context
    )
    metrics = collect_metrics(
        devices.values(), context.ledger, context.server, horizon_s=horizon,
        faults=faults,
        perf=context.medium.perf.to_dict() if context.medium else None,
        channel=_channel_snapshot(context, horizon),
    )
    return ScenarioResult(
        context=context,
        metrics=metrics,
        devices=devices,
        relay_ids=crowd.relay_ids,
        ue_ids=crowd.ue_ids,
        framework=framework,
        original=original,
        app=spec.app,
        periods=max(1, int(spec.duration_s / spec.app.heartbeat_period_s)),
        chaos_report=engine.report if engine is not None else None,
        audit_report=auditor.report if auditor is not None else None,
    )
