"""Programmatic regeneration of every paper artifact.

Each function reproduces one of the paper's tables or figures and returns
plain data (dicts/lists) ready for tabulation or plotting; the benchmark
suite wraps these with shape assertions, and the CLI exposes them as
``repro-sim experiment <id>``. Experiment ids follow DESIGN.md §4.
"""

from __future__ import annotations

import functools
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis import saved_percent, signaling_reduction, wasted_to_saved_ratio
from repro.scenarios import relay_savings_runner, run_relay_scenario
from repro.sweep import SweepResult, grid_sweep
from repro.workload.traffic import heartbeat_share_table

#: Paper values for Table I (heartbeat share of all messages).
TABLE1_PAPER = {"wechat": 0.50, "whatsapp": 0.619, "qq": 0.526, "facebook": 0.484}

#: Paper values for Table III (per-phase charge, µAh).
TABLE3_PAPER = {
    "ue": {"discovery": 132.24, "connection": 63.74, "forwarding": 73.09},
    "relay": {"discovery": 122.50, "connection": 60.29, "forwarding": 132.45},
}


def table1(seed: int = 2017, days: float = 7.0, repeats: int = 5) -> Dict[str, float]:
    """Table I — measured heartbeat share per app."""
    return heartbeat_share_table(
        list(TABLE1_PAPER), window_s=days * 86_400.0,
        rng=random.Random(seed), repeats=repeats,
    )


def table3(seed: int = 0) -> Dict[str, Dict[str, float]]:
    """Table III — per-phase charge (µAh) for one 1 m single-beat session."""
    result = run_relay_scenario(n_ues=1, distance_m=1.0, periods=1, seed=seed)
    ue = result.metrics.devices["ue-0"].energy_breakdown
    relay = result.metrics.devices["relay-0"].energy_breakdown
    return {
        "ue": {
            "discovery": ue["d2d_discovery"],
            "connection": ue["d2d_connection"],
            "forwarding": ue["d2d_forward"],
        },
        "relay": {
            "discovery": relay["d2d_discovery"],
            "connection": relay["d2d_connection"],
            "forwarding": relay["d2d_receive"],
        },
    }


def table4(max_ues: int = 7, seed: int = 0) -> List[float]:
    """Table IV — relay cumulative receive charge (µAh) for 1..max_ues."""
    measured = []
    for n_ues in range(1, max_ues + 1):
        result = run_relay_scenario(
            n_ues=n_ues, distance_m=1.0, periods=1, seed=seed
        )
        measured.append(
            result.metrics.devices["relay-0"].energy_breakdown["d2d_receive"]
        )
    return measured


def fig8(max_k: int = 8, seed: int = 0) -> Dict[str, List[float]]:
    """Fig. 8 — energy (µAh) vs. transmission times, 1 relay + 1 UE @ 1 m."""
    series: Dict[str, List[float]] = {
        "ue": [], "relay": [], "original": [], "saved_system": [], "saved_ue": []
    }
    for periods in range(1, max_k + 1):
        d2d = run_relay_scenario(n_ues=1, distance_m=1.0, periods=periods,
                                 seed=seed)
        base = run_relay_scenario(n_ues=1, distance_m=1.0, periods=periods,
                                  seed=seed, mode="original")
        original = base.per_device_energy_uah("ue-0")
        series["ue"].append(d2d.per_device_energy_uah("ue-0"))
        series["relay"].append(d2d.per_device_energy_uah("relay-0"))
        series["original"].append(original)
        series["saved_system"].append(
            base.system_energy_uah() - d2d.system_energy_uah()
        )
        series["saved_ue"].append(original - d2d.per_device_energy_uah("ue-0"))
    return series


def fig9(max_k: int = 8, seed: int = 0) -> Tuple[List[float], List[float]]:
    """Fig. 9 — saved energy %, (system, ue) per transmission count."""
    saved_system, saved_ue = [], []
    for periods in range(1, max_k + 1):
        d2d = run_relay_scenario(n_ues=1, distance_m=1.0, periods=periods,
                                 seed=seed)
        base = run_relay_scenario(n_ues=1, distance_m=1.0, periods=periods,
                                  seed=seed, mode="original")
        saved_system.append(
            saved_percent(base.system_energy_uah(), d2d.system_energy_uah())
        )
        saved_ue.append(
            saved_percent(
                base.per_device_energy_uah("ue-0"),
                d2d.per_device_energy_uah("ue-0"),
            )
        )
    return saved_system, saved_ue


def fig10(
    ue_counts: Sequence[int] = (1, 3, 5, 7), max_k: int = 7, seed: int = 0
) -> Dict[str, List[float]]:
    """Fig. 10 — relay energy with multiple UEs (aligned arrivals)."""
    curves: Dict[str, List[float]] = {}
    for n_ues in ue_counts:
        curve = []
        for periods in range(1, max_k + 1):
            result = run_relay_scenario(
                n_ues=n_ues, distance_m=1.0, periods=periods, seed=seed,
                ue_phases=[0.5] * n_ues,
            )
            curve.append(result.per_device_energy_uah("relay-0"))
        curves[f"{n_ues} UE"] = curve
    return curves


def fig11(
    ue_counts: Sequence[int] = (1, 3, 5, 7), max_k: int = 7, seed: int = 0
) -> Dict[str, List[float]]:
    """Fig. 11 — wasted/saved energy ratio (%), by UE count and k."""
    curves: Dict[str, List[float]] = {}
    for n_ues in ue_counts:
        curve = []
        for periods in range(1, max_k + 1):
            d2d = run_relay_scenario(n_ues=n_ues, distance_m=1.0,
                                     periods=periods, seed=seed,
                                     ue_phases=[0.5] * n_ues)
            base = run_relay_scenario(n_ues=n_ues, distance_m=1.0,
                                      periods=periods, seed=seed,
                                      mode="original",
                                      ue_phases=[0.5] * n_ues)
            curve.append(100.0 * wasted_to_saved_ratio(
                relay_d2d=d2d.per_device_energy_uah("relay-0"),
                relay_baseline=base.per_device_energy_uah("relay-0"),
                ue_d2d=d2d.ue_energy_uah(),
                ue_baseline=base.ue_energy_uah(),
            ))
        curves[f"{n_ues} UE"] = curve
    return curves


def fig12(
    distances: Sequence[float] = (1.0, 3.0, 5.0, 8.0, 10.0, 12.0, 15.0),
    periods: int = 5,
    seed: int = 0,
) -> Tuple[List[float], List[float], float]:
    """Fig. 12 — (ue, relay, original) energy vs. distance."""
    ue, relay = [], []
    for distance in distances:
        result = run_relay_scenario(n_ues=1, distance_m=distance,
                                    periods=periods, seed=seed)
        ue.append(result.per_device_energy_uah("ue-0"))
        relay.append(result.per_device_energy_uah("relay-0"))
    base = run_relay_scenario(n_ues=1, distance_m=1.0, periods=periods,
                              seed=seed, mode="original")
    return ue, relay, base.per_device_energy_uah("ue-0")


def fig13(
    multipliers: Sequence[int] = (1, 2, 3, 4, 5),
    base_size: int = 54,
    periods: int = 3,
    seed: int = 0,
) -> Dict[str, List[float]]:
    """Fig. 13 — energy vs. message size."""
    series: Dict[str, List[float]] = {"ue": [], "relay": [], "original": []}
    for multiplier in multipliers:
        size = base_size * multiplier
        d2d = run_relay_scenario(n_ues=1, periods=periods,
                                 heartbeat_bytes=size, seed=seed)
        base = run_relay_scenario(n_ues=1, periods=periods,
                                  heartbeat_bytes=size, seed=seed,
                                  mode="original")
        series["ue"].append(d2d.per_device_energy_uah("ue-0"))
        series["relay"].append(d2d.per_device_energy_uah("relay-0"))
        series["original"].append(base.per_device_energy_uah("ue-0"))
    return series


def fig15(
    max_k: int = 10, seed: int = 0
) -> Tuple[Dict[str, List[int]], Dict[int, List[float]]]:
    """Fig. 15 — layer-3 series and per-UE-count reduction fractions."""
    series: Dict[str, List[int]] = {
        "original": [], "relay w/1 UE": [], "relay w/2 UEs": [], "ue (d2d)": []
    }
    reductions: Dict[int, List[float]] = {1: [], 2: []}
    for periods in range(1, max_k + 1):
        base1 = run_relay_scenario(n_ues=1, periods=periods, seed=seed,
                                   mode="original")
        series["original"].append(base1.metrics.l3_of("relay-0"))
        for n_ues in (1, 2):
            d2d = run_relay_scenario(n_ues=n_ues, periods=periods, seed=seed)
            base = base1 if n_ues == 1 else run_relay_scenario(
                n_ues=2, periods=periods, seed=seed, mode="original"
            )
            if n_ues == 1:
                series["relay w/1 UE"].append(d2d.relay_l3())
                series["ue (d2d)"].append(d2d.ue_l3())
            else:
                series["relay w/2 UEs"].append(d2d.relay_l3())
            reductions[n_ues].append(
                signaling_reduction(base.total_l3(), d2d.total_l3())
            )
    return series, reductions


def sensitivity_grid(
    distances: Sequence[float] = (1.0, 8.0, 15.0, 19.0),
    periods: Sequence[int] = (1, 3, 7),
    seed: int = 0,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    max_retries: int = 0,
    on_error: str = "raise",
) -> SweepResult:
    """Saved-energy sensitivity over the (distance × periods) plane.

    The joint sweep behind ``benchmarks/test_sensitivity_grid.py``, run
    through the sweep execution layer: ``workers`` fans points out over a
    local process pool, ``cache_dir`` re-serves unchanged points from
    disk, and ``max_retries``/``on_error`` are the fault-tolerance knobs
    of :func:`repro.sweep.grid_sweep`. Returns the full
    :class:`~repro.sweep.SweepResult` (telemetry attached) so callers
    can pivot, slice, or inspect timings.
    """
    runner = functools.partial(relay_savings_runner, n_ues=1, seed=seed)
    return grid_sweep(
        {"distance_m": list(distances), "periods": list(periods)},
        runner,
        workers=workers,
        cache_dir=cache_dir,
        max_retries=max_retries,
        on_error=on_error,
    )


def _sensitivity_grid_artifact() -> Dict[str, Dict[int, float]]:
    """S1 registry entry — system-saved pivot of the sensitivity grid."""
    sweep = sensitivity_grid()
    pivot = sweep.pivot("distance_m", "periods", "system_saved")
    return {f"{distance:g} m": row for distance, row in pivot.items()}


def chaos_reliability(
    profiles: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = (0, 1),
    scenario: str = "pair",
) -> Dict[str, Dict[str, float]]:
    """Delivery safety under chaos, per profile (paper Sec. III-A claim).

    Runs the differential harness for every built-in chaos profile and
    folds the per-seed cases into one row per profile: worst audited
    deadline-safety, total auditor violations, total chaos events, and
    how many cases passed. The paper's reliability argument holds iff
    every ``deadline_safe`` is 1.0 and every ``violations`` is 0.
    """
    from repro.faults.chaos import CHAOS_PROFILES
    from repro.faults.harness import run_differential_suite

    names = list(profiles) if profiles is not None else sorted(CHAOS_PROFILES)
    rows: Dict[str, Dict[str, float]] = {}
    for name in names:
        suite = run_differential_suite(
            profiles=[name], seeds=seeds, scenarios=(scenario,)
        )
        rows[name] = {
            "deadline_safe": min(c.chaos_deadline_safe for c in suite.cases),
            "violations": float(sum(c.audit_violations for c in suite.cases)),
            "chaos_events": float(sum(c.chaos_events for c in suite.cases)),
            "fallbacks": float(sum(c.fallbacks_fired for c in suite.cases)),
            "cases_passed": float(
                sum(1 for c in suite.cases if c.passed)
            ),
            "cases": float(len(suite.cases)),
        }
    return rows


def channel_capacity_vs_density(
    device_counts: Sequence[int] = (50, 150, 300),
    duration_s: float = 1800.0,
    seed: int = 0,
    num_rbs: int = 6,
    allocator: str = "centralized",
) -> Dict[str, Dict[str, float]]:
    """Per-transfer capacity vs. crowd density under the SINR channel.

    Runs the crowd scenario with ``channel="sinr"`` at increasing device
    counts and reports the channel aggregates the capacity layer exposes:
    mean/min SINR, mean per-transfer rate, RB utilization, and peak live
    co-channel leases. The arena stays fixed at 250 m × 250 m while the
    population grows, so each step raises spatial density; the
    interference-limited claim holds iff RB utilization and peak live
    leases rise monotonically while the mean per-transfer rate falls
    once the RB pool saturates.
    """
    import dataclasses as _dc

    from repro.mobility.space import Arena
    from repro.scenarios import run_crowd_scenario
    from repro.workload.apps import STANDARD_APP

    app = _dc.replace(STANDARD_APP, heartbeat_period_s=45.0)
    rows: Dict[str, Dict[str, float]] = {}
    for n_devices in device_counts:
        result = run_crowd_scenario(
            n_devices=n_devices,
            arena=Arena(250.0, 250.0),
            app=app,
            duration_s=duration_s,
            hotspots=12,
            seed=seed,
            channel="sinr",
            num_rbs=num_rbs,
            allocator=allocator,
        )
        stats = result.metrics.channel or {}
        rows[f"{n_devices} devices"] = {
            "transfers": float(stats.get("transfers", 0)),
            # zero-transfer runs record these keys as None, not absent
            "mean_sinr_db": float(stats.get("mean_sinr_db") or 0.0),
            "min_sinr_db": float(stats.get("min_sinr_db") or 0.0),
            "mean_rate_bps": float(stats.get("mean_rate_bps") or 0.0),
            "rb_utilization": float(stats.get("rb_utilization", 0.0)),
            "rb_peak_live": float(stats.get("rb_peak_live", 0)),
            "on_time": result.on_time_fraction(),
        }
    return rows


def channel_safety(
    seeds: Sequence[int] = (0, 1),
    n_devices: int = 16,
    duration_s: float = 900.0,
) -> Dict[str, Dict[str, float]]:
    """Fixed-vs-channel differential: contention never costs delivery.

    Runs the audited crowd scenario in fixed-cost and ``sinr`` mode from
    the same seeds and folds the differential cases into one row per
    seed. The safety claim holds iff every row has zero violations and
    ``deadline_safe`` 1.0 — capacity-derived transfer durations must not
    break the paper's delivery guarantees.
    """
    from repro.faults.harness import run_channel_differential

    rows: Dict[str, Dict[str, float]] = {}
    for seed in seeds:
        case = run_channel_differential(
            "crowd", seed=seed, n_devices=n_devices, duration_s=duration_s
        )
        rows[f"seed {seed}"] = {
            "fixed_violations": float(case.fixed_violations),
            "channel_violations": float(case.channel_violations),
            "deadline_safe": case.channel_deadline_safe,
            "transfers": float(case.channel_transfers),
            "rb_peak_live": float(case.channel_peak_live),
            "passed": float(case.passed),
        }
    return rows


def channel_selection_policies(
    policies: Sequence[str] = ("distance", "rate", "hybrid"),
    sigmas_db: Sequence[float] = (2.0, 8.0),
    n_devices: int = 300,
    duration_s: float = 900.0,
    seed: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Selection policy × shadowing sigma under the SINR channel (X3).

    The X1 crowd (fixed 250 m × 250 m arena, 45 s heartbeat,
    ``channel="sinr"``) rerun at high density for every combination of
    relay-selection policy and lognormal shadowing sigma. Distance-only
    selection ranks candidates by RSSI-estimated distance, which
    shadowing corrupts; the channel-aware policies rank by the channel
    model's deterministic per-link rate estimate. The claim judged
    against the X1 baseline: at high sigma (≥ 8 dB) ``rate``/``hybrid``
    deliver a higher mean per-transfer rate than ``distance``, while at
    low sigma all three are near-identical. Deterministic from
    ``(scenario, seed)`` — rerunning reproduces every cell exactly.
    """
    import dataclasses as _dc

    from repro.mobility.space import Arena
    from repro.scenarios import run_crowd_scenario
    from repro.workload.apps import STANDARD_APP

    app = _dc.replace(STANDARD_APP, heartbeat_period_s=45.0)
    rows: Dict[str, Dict[str, float]] = {}
    for sigma in sigmas_db:
        for policy in policies:
            result = run_crowd_scenario(
                n_devices=n_devices,
                arena=Arena(250.0, 250.0),
                app=app,
                duration_s=duration_s,
                hotspots=12,
                seed=seed,
                channel="sinr",
                shadowing_sigma_db=sigma,
                selection_policy=policy,
            )
            stats = result.metrics.channel or {}
            rows[f"sigma {sigma:g} dB / {policy}"] = {
                "mean_rate_bps": float(stats.get("mean_rate_bps") or 0.0),
                "mean_sinr_db": float(stats.get("mean_sinr_db") or 0.0),
                "transfers": float(stats.get("transfers", 0)),
                "rb_utilization": float(stats.get("rb_utilization", 0.0)),
                "on_time": result.on_time_fraction(),
            }
    return rows


def ran_resilience(
    profiles: Sequence[str] = ("ran-outage", "paging-storm", "degraded-ran"),
    seeds: Sequence[int] = (0, 1, 2),
    n_ues: int = 2,
    periods: int = 4,
) -> Dict[str, Dict[str, float]]:
    """Degraded-RAN resilience — the cellular-side differential (R1).

    For every RAN chaos profile × seed, the pair scenario runs three
    times through :func:`repro.faults.harness.run_ran_differential`:
    audited chaos-free, audited under RAN chaos (base-station outages,
    brown-outs, injected RRC rejects, paging storms), and an exact
    replay. A row passes only with zero auditor violations in both
    audited legs — no silent heartbeat loss, buffer bounds held,
    backoff monotone, reattach within the profile's declared bound —
    100 % outage-aware deadline-safe delivery, and a byte-identical
    replay from ``(scenario, profile, seed)``.
    """
    from repro.faults.harness import run_ran_differential

    rows: Dict[str, Dict[str, float]] = {}
    for profile in profiles:
        for seed in seeds:
            case = run_ran_differential(
                scenario="pair", profile=profile, seed=seed,
                n_ues=n_ues, periods=periods,
            )
            rows[f"{profile} / seed {seed}"] = {
                "baseline_safe": case.baseline_deadline_safe,
                "chaos_safe": case.chaos_deadline_safe,
                "violations": float(case.chaos_violations),
                "chaos_events": float(case.chaos_events),
                "bs_outages": float(case.bs_outages),
                "bs_brownouts": float(case.bs_brownouts),
                "uplinks_rejected": float(case.uplinks_rejected),
                "detaches": float(case.detaches),
                "reattaches": float(case.reattaches),
                "beats_dropped": float(case.beats_dropped),
                "replay_identical": float(case.replay_identical),
                "passed": float(case.passed),
            }
    return rows


#: Experiment id → (description, zero-argument runner).
REGISTRY: Dict[str, Tuple[str, Callable[[], object]]] = {
    "T1": ("Table I — heartbeat share per app", table1),
    "T3": ("Table III — per-phase charge (µAh)", table3),
    "T4": ("Table IV — relay receive charge vs. beats", table4),
    "F8": ("Fig. 8 — energy vs. transmission times", fig8),
    "F9": ("Fig. 9 — saved energy %", fig9),
    "F10": ("Fig. 10 — relay energy with multiple UEs", fig10),
    "F11": ("Fig. 11 — wasted/saved ratio %", fig11),
    "F12": ("Fig. 12 — energy vs. distance", fig12),
    "F13": ("Fig. 13 — energy vs. message size", fig13),
    "F15": ("Fig. 15 — layer-3 messages", fig15),
    "S1": ("Sensitivity grid — system saved over distance × periods",
           _sensitivity_grid_artifact),
    "C1": ("Chaos reliability — delivery safety per chaos profile",
           chaos_reliability),
    "X1": ("Channel capacity vs. crowd density (SINR layer)",
           channel_capacity_vs_density),
    "X2": ("Channel safety — fixed-vs-sinr differential",
           channel_safety),
    "X3": ("Selection policy × shadowing sigma (channel-aware matching)",
           channel_selection_policies),
    "R1": ("Degraded-RAN resilience — differential per RAN chaos profile",
           ran_resilience),
}


def run_experiment(experiment_id: str):
    """Run one registered experiment by id (e.g. ``"F9"``)."""
    try:
        __, runner = REGISTRY[experiment_id.upper()]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(REGISTRY)}"
        ) from None
    return runner()
