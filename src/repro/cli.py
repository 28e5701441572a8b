"""Command-line interface.

Runs the canned experiments without writing any Python::

    repro-sim pair --ues 1 --periods 7
    repro-sim crowd --devices 40 --duration 1800
    repro-sim sweep --max-periods 8 --workers 4
    repro-sim grid --workers 4 --cache-dir ~/.cache/repro-sweeps
    repro-sim chaos --profiles mild,adversarial --seeds 0,1
    repro-sim ran --profiles ran-outage,paging-storm --seeds 0,1
    repro-sim breakeven
    repro-sim table1
    repro-sim calibration

Every subcommand prints a paper-style table; `pair`, `crowd` and `sweep`
run both the D2D framework and the original baseline for comparison.
`sweep` and `grid` accept `--workers N` to fan grid points out over a
process pool and `--cache-dir PATH` to re-serve unchanged points from
the on-disk result cache; both print the sweep's measured timings.

`pair` and `crowd` take `--chaos-profile NAME` (with `--chaos-seed N`)
to layer stochastic faults on the D2D run and audit delivery safety;
`chaos` runs the differential harness over profiles × seeds and exits
nonzero on any safety regression; `ran` runs the cellular-side
(degraded-RAN) differential — baseline vs RAN chaos vs replay — and
gates on silent-loss-free accounting plus byte-identical replay. `sweep` and `grid` accept
`--runner NAME --param key=v1,v2,...` to fan out any registered grid
runner (see `repro.scenarios.RUNNER_REGISTRY`) without writing Python.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import random
import sys
from typing import Dict, List, Optional

from repro.analysis import saved_percent
from repro.core.modes import breakeven_distance_m
from repro.energy.profiles import DEFAULT_PROFILE
from repro.reporting import format_series, format_table, percent
from repro.scenarios import (
    relay_savings_runner,
    run_crowd_scenario,
    run_relay_scenario,
)
from repro.sweep import SweepFailure, grid_sweep
from repro.workload.apps import APP_REGISTRY
from repro.workload.traffic import heartbeat_share_table


def _print_channel_summary(result) -> None:
    """One-line channel-layer report for a `--channel sinr` run."""
    stats = result.metrics.channel
    if stats is None:
        return
    mean_rate = stats["mean_rate_bps"]
    print(
        f"channel ({stats['allocator']}, {stats['num_rbs']} RBs): "
        f"{stats['transfers']} transfers, "
        f"mean SINR {stats['mean_sinr_db']:.1f} dB, "
        f"mean rate {mean_rate / 1e6:.2f} Mb/s, "
        f"RB utilization {stats['rb_utilization']:.1%}, "
        f"peak co-channel leases {stats['rb_peak_live']}"
        if stats["transfers"]
        else "channel: no D2D transfers"
    )
    density = stats.get("density") or {}
    if len(density) > 1:
        buckets = ", ".join(
            f"k={k}: {bucket['mean_rate_bps'] / 1e6:.2f} Mb/s "
            f"(n={bucket['transfers']})"
            for k, bucket in density.items()
        )
        print(f"rate vs concurrent-transfer density: {buckets}")


def _print_chaos_outcome(result) -> int:
    """Report a chaos-enabled run's fault/audit outcome; 1 on violations."""
    if result.chaos_report is not None:
        print(result.chaos_report.summary())
    faults = result.metrics.faults
    if faults is not None and (
        faults.bs_outages or faults.bs_brownouts
        or faults.pages_injected or faults.detaches
    ):
        dropped = (
            faults.beats_dropped_stale
            + faults.beats_dropped_overflow
            + faults.beats_dropped_retries
        )
        print(
            f"ran: {faults.bs_outages} outage(s), "
            f"{faults.bs_brownouts} brown-out(s), "
            f"{faults.pages_injected} pages injected, "
            f"{faults.uplinks_rejected} uplinks rejected, "
            f"detach/reattach {faults.detaches}/{faults.reattaches}, "
            f"{faults.cellular_retries} retries, {dropped} dropped, "
            f"{faults.beats_buffered_end} still held"
        )
    if result.audit_report is not None:
        print(result.audit_report.summary())
        if not result.audit_report.ok:
            return 1
    return 0


def _cmd_pair(args: argparse.Namespace) -> int:
    d2d = run_relay_scenario(
        n_ues=args.ues, distance_m=args.distance, periods=args.periods,
        capacity=args.capacity, seed=args.seed, mode="d2d",
        chaos=args.chaos_profile, chaos_seed=args.chaos_seed,
        channel=args.channel, allocator=args.allocator,
        num_rbs=args.num_rbs, shadowing_sigma_db=args.shadowing_sigma,
        selection_policy=args.selection_policy,
    )
    base = run_relay_scenario(
        n_ues=args.ues, distance_m=args.distance, periods=args.periods,
        capacity=args.capacity, seed=args.seed, mode="original",
    )
    print(format_table(
        ["", "L3 msgs", "Energy (µAh)", "On-time"],
        [
            ["original", base.total_l3(), base.system_energy_uah(),
             base.on_time_fraction()],
            ["d2d", d2d.total_l3(), d2d.system_energy_uah(),
             d2d.on_time_fraction()],
        ],
        title=(f"pair: 1 relay + {args.ues} UE(s) @ {args.distance} m, "
               f"{args.periods} periods"),
    ))
    print(f"signaling saved : "
          f"{saved_percent(base.total_l3(), d2d.total_l3()):.1f}%")
    print(f"energy saved    : "
          f"{saved_percent(base.system_energy_uah(), d2d.system_energy_uah()):.1f}%")
    _print_channel_summary(d2d)
    return _print_chaos_outcome(d2d)


def _cmd_crowd_sharded(args: argparse.Namespace) -> int:
    """`crowd --shards N`: the same storm on the cell-sharded kernel."""
    from repro.shard import run_crowd_scenario_sharded

    try:
        result = run_crowd_scenario_sharded(
            n_devices=args.devices, relay_fraction=args.relay_fraction,
            duration_s=args.duration, seed=args.seed,
            mobile_fraction=args.mobile_fraction,
            shards=args.shards,
            backend=args.shard_backend or "serial",
            channel=args.channel,
            shadowing_sigma_db=args.shadowing_sigma,
            selection_policy=args.selection_policy,
            chaos=args.chaos_profile,
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    delivery = result.metrics.delivery
    print(format_table(
        ["Shards", "Backend", "Windows", "Handovers", "Ghosts",
         "L3 msgs", "Energy (µAh)", "On-time"],
        [[result.params.n_shards, result.backend,
          result.windows, result.handovers, result.ghost_registrations,
          result.metrics.total_l3_messages,
          result.metrics.total_energy_uah(),
          delivery.on_time_fraction if delivery else 1.0]],
        title=(f"sharded crowd: {args.devices} devices over "
               f"{result.params.n_shards} shards, {args.duration:.0f} s"),
    ))
    print(
        f"devices per shard: {result.devices_per_shard} "
        f"(max/mean skew {result.device_skew:.2f})"
    )
    print(format_table(
        ["Shard", "Devices", "Events", "Work (s)", "Barrier wait (s)",
         "Handovers", "Ghosts"],
        [[load["shard"], load["devices"], load["events"],
          f"{load['work_s']:.3f}", f"{load['barrier_wait_s']:.3f}",
          load["handovers"], load["ghost_registrations"]]
         for load in result.shard_load],
        title=(f"per-shard load (critical path "
               f"{result.critical_path_s:.3f} s of "
               f"{result.total_work_s:.3f} s total window work)"),
    ))
    return 0


def _cmd_crowd(args: argparse.Namespace) -> int:
    if (args.shards or 1) > 1:
        return _cmd_crowd_sharded(args)
    d2d = run_crowd_scenario(
        n_devices=args.devices, relay_fraction=args.relay_fraction,
        duration_s=args.duration, mobile_fraction=args.mobile_fraction,
        seed=args.seed, mode="d2d",
        chaos=args.chaos_profile, chaos_seed=args.chaos_seed,
        channel=args.channel, allocator=args.allocator,
        num_rbs=args.num_rbs, shadowing_sigma_db=args.shadowing_sigma,
        selection_policy=args.selection_policy,
    )
    base = run_crowd_scenario(
        n_devices=args.devices, relay_fraction=args.relay_fraction,
        duration_s=args.duration, mobile_fraction=args.mobile_fraction,
        seed=args.seed, mode="original",
    )
    print(format_table(
        ["", "L3 msgs", "peak L3/s", "Energy (µAh)", "On-time"],
        [
            ["original", base.total_l3(),
             base.context.basestation.peak_signaling_rate(60.0),
             base.system_energy_uah(), base.on_time_fraction()],
            ["d2d", d2d.total_l3(),
             d2d.context.basestation.peak_signaling_rate(60.0),
             d2d.system_energy_uah(), d2d.on_time_fraction()],
        ],
        title=(f"crowd: {args.devices} devices, "
               f"{args.relay_fraction:.0%} relays, {args.duration:.0f} s"),
    ))
    print(f"signaling saved : "
          f"{saved_percent(base.total_l3(), d2d.total_l3()):.1f}%")
    print(f"beats via D2D   : {d2d.framework.total_beats_forwarded()}"
          f" (fallbacks {d2d.framework.total_cellular_fallbacks()})")
    _print_channel_summary(d2d)
    return _print_chaos_outcome(d2d)


def _coerce_param(token: str):
    """`--param` value token → int | float | str (first cast that fits)."""
    token = token.strip()
    for cast in (int, float):
        try:
            return cast(token)
        except ValueError:
            continue
    return token


def _parse_param_grid(entries: Optional[List[str]]) -> Dict[str, List[object]]:
    """Repeatable `--param key=v1,v2,...` flags → grid_sweep axes."""
    grid: Dict[str, List[object]] = {}
    for entry in entries or []:
        key, sep, values = entry.partition("=")
        axis = [_coerce_param(v) for v in values.split(",") if v.strip()]
        if not sep or not key.strip() or not axis:
            raise ValueError(
                f"bad --param {entry!r}; expected key=v1,v2,... "
                "with at least one value"
            )
        if key.strip() in grid:
            raise ValueError(
                f"bad --param {entry!r}; axis {key.strip()!r} is already "
                "given (list every value in one --param)"
            )
        grid[key.strip()] = axis
    return grid


def _parse_axis(flag: str, text: str, cast: type) -> List[object]:
    """`grid --distances/--periods` value → a non-empty list of values."""
    try:
        axis = [cast(v) for v in text.split(",") if v.strip()]
    except ValueError:
        axis = []
    if not axis:
        raise ValueError(
            f"bad {flag} {text!r}; expected comma-separated "
            f"{cast.__name__} values"
        )
    return axis


def _cmd_runner_sweep(args: argparse.Namespace) -> int:
    """`sweep`/`grid` with `--runner NAME`: registry-dispatched fan-out."""
    from repro.scenarios import RUNNER_REGISTRY

    runner = RUNNER_REGISTRY.get(args.runner)
    if runner is None:
        print(f"unknown runner {args.runner!r}; "
              f"known: {', '.join(sorted(RUNNER_REGISTRY))}", file=sys.stderr)
        return 2
    try:
        grid = _parse_param_grid(args.param)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if not grid:
        print("--runner needs at least one --param key=v1,v2,...",
              file=sys.stderr)
        return 2
    accepted = inspect.signature(runner).parameters
    unknown = [name for name in grid if name not in accepted]
    if unknown:
        print(f"runner {args.runner!r} does not accept parameter(s) "
              f"{', '.join(sorted(unknown))}; it takes: "
              f"{', '.join(accepted)}", file=sys.stderr)
        return 2
    fixed = {}
    chaos_profile = getattr(args, "chaos_profile", None)
    if chaos_profile is not None and "chaos_profile" in accepted:
        fixed["chaos_profile"] = chaos_profile
    chaos_seed = getattr(args, "chaos_seed", None)
    if chaos_seed is not None and "chaos_seed" in accepted:
        fixed["chaos_seed"] = chaos_seed
    for flag, param in (
        ("channel", "channel"),
        ("allocator", "allocator"),
        ("num_rbs", "num_rbs"),
        ("shadowing_sigma", "shadowing_sigma_db"),
        ("selection_policy", "selection_policy"),
        ("shards", "shards"),
        ("shard_backend", "shard_backend"),
    ):
        value = getattr(args, flag, None)
        if value is not None and param in accepted and param not in grid:
            fixed[param] = value
    if fixed:
        runner = functools.partial(runner, **fixed)
    try:
        sweep = grid_sweep(
            grid, runner,
            workers=args.workers, cache_dir=args.cache_dir,
            max_retries=args.max_retries,
            on_error="keep-going" if args.keep_going else "raise",
        )
    except SweepFailure as failure:
        return _print_sweep_failure(failure)
    _print_sweep_errors(sweep)
    param_names = list(grid)
    metric_names = sorted({k for p in sweep.points for k in p.metrics})
    print(format_table(
        param_names + metric_names,
        [[p.params.get(n) for n in param_names]
         + [p.metrics.get(m, "n/a") for m in metric_names]
         for p in sweep.points],
        title=f"runner {args.runner!r} over {' × '.join(param_names)}",
    ))
    print(sweep.telemetry.summary())
    return 0 if sweep.ok else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.runner is not None:
        return _cmd_runner_sweep(args)
    ks = list(range(1, args.max_periods + 1))
    runner = functools.partial(relay_savings_runner, n_ues=args.ues,
                               seed=args.seed)
    try:
        sweep = grid_sweep(
            {"periods": ks}, runner,
            workers=args.workers, cache_dir=args.cache_dir,
            max_retries=args.max_retries,
            on_error="keep-going" if args.keep_going else "raise",
        )
    except SweepFailure as failure:
        return _print_sweep_failure(failure)
    _print_sweep_errors(sweep)
    saved_system = [100.0 * v for __, v in sweep.series("periods", "system_saved")]
    saved_ue = [100.0 * v for __, v in sweep.series("periods", "ue_saved")]
    print(format_series(
        "k", ks, {"system saved %": saved_system, "ue saved %": saved_ue},
        title=f"saved energy vs transmission times ({args.ues} UE(s))",
    ))
    print(sweep.telemetry.summary())
    return 0 if sweep.ok else 1


def _print_sweep_errors(sweep) -> None:
    """Tabulate a keep-going sweep's failed points, if any."""
    if not sweep.errors:
        return
    print(format_table(
        ["point", "params", "attempts", "error"],
        [[e.index, str(dict(e.params)), e.attempts, e.error]
         for e in sweep.errors],
        title="FAILED points (kept going; cached points are resumable)",
    ))


def _print_sweep_failure(failure: SweepFailure) -> int:
    """Strict-mode sweep abort: report every failed point, exit nonzero."""
    print(failure, file=sys.stderr)
    for error in failure.errors:
        print(f"  point {error.index} {dict(error.params)}: {error.error} "
              f"(attempts {error.attempts})",
              file=sys.stderr)
    if failure.telemetry is not None:
        print(failure.telemetry.summary(), file=sys.stderr)
    return 1


def _cmd_grid(args: argparse.Namespace) -> int:
    if args.runner is not None:
        return _cmd_runner_sweep(args)

    from repro.experiments import sensitivity_grid

    try:
        distances = _parse_axis("--distances", args.distances, float)
        periods = _parse_axis("--periods", args.periods, int)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        sweep = sensitivity_grid(
            distances=distances, periods=periods, seed=args.seed,
            workers=args.workers, cache_dir=args.cache_dir,
            max_retries=args.max_retries,
            on_error="keep-going" if args.keep_going else "raise",
        )
    except SweepFailure as failure:
        return _print_sweep_failure(failure)
    _print_sweep_errors(sweep)
    pivot = sweep.pivot("distance_m", "periods", "system_saved")
    print(format_table(
        ["distance \\ k"] + [str(k) for k in periods],
        [[f"{d:g} m"] + [pivot.get(d, {}).get(k, "n/a") for k in periods]
         for d in distances],
        title="system energy saved (fraction) over distance × periods",
        float_format="{:+.3f}",
    ))
    if args.timings:
        print(format_table(
            ["point", "params", "seconds", "cached", "attempts"],
            [[t.index, str(t.params), f"{t.seconds:.4f}", t.cached, t.attempts]
             for t in sorted(sweep.telemetry.timings, key=lambda t: t.index)],
            title="per-point wall-clock timings",
        ))
    print(sweep.telemetry.summary())
    return 0 if sweep.ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Differential chaos harness: audited baseline vs audited chaos."""
    from repro.faults.harness import run_differential_suite

    profiles = ([p for p in args.profiles.split(",") if p]
                if args.profiles else None)
    seeds = [int(s) for s in args.seeds.split(",") if s]
    scenarios = tuple(s for s in args.scenarios.split(",") if s)
    suite = run_differential_suite(
        profiles=profiles, seeds=seeds, scenarios=scenarios,
        n_ues=args.ues, periods=args.periods,
        n_devices=args.devices, duration_s=args.duration,
    )
    print(format_table(
        ["scenario", "profile", "seed", "status", "safe", "violations",
         "events", "fallbacks", "failures"],
        [[c.scenario, c.profile, c.seed,
          "PASS" if c.passed else "FAIL",
          c.chaos_deadline_safe, c.audit_violations, c.chaos_events,
          c.fallbacks_fired, "; ".join(c.failures)]
         for c in suite.cases],
        title="differential chaos harness (baseline vs chaos, audited)",
    ))
    print(f"{len(suite.cases) - len(suite.failed_cases)}"
          f"/{len(suite.cases)} cases passed")
    return 0 if suite.passed else 1


def _cmd_ran(args: argparse.Namespace) -> int:
    """Degraded-RAN differential: baseline vs RAN chaos vs replay."""
    import json

    from repro.faults.harness import run_ran_differential

    profiles = [p for p in args.profiles.split(",") if p]
    seeds = [int(s) for s in args.seeds.split(",") if s]
    scenario_names = [s for s in args.scenarios.split(",") if s]
    cases = []
    for scenario in scenario_names:
        for profile in profiles:
            for seed in seeds:
                cases.append(run_ran_differential(
                    scenario=scenario, profile=profile, seed=seed,
                    n_ues=args.ues, periods=args.periods,
                    n_devices=args.devices, duration_s=args.duration,
                ))
    print(format_table(
        ["scenario", "profile", "seed", "status", "safe", "violations",
         "outages", "brownouts", "rejected", "detach/reattach", "dropped",
         "replay", "failures"],
        [[c.scenario, c.profile, c.seed,
          "PASS" if c.passed else "FAIL",
          c.chaos_deadline_safe, c.chaos_violations,
          c.bs_outages, c.bs_brownouts, c.uplinks_rejected,
          f"{c.detaches}/{c.reattaches}", c.beats_dropped,
          "ok" if c.replay_identical else "DIVERGED",
          "; ".join(c.failures)]
         for c in cases],
        title="degraded-RAN differential (baseline vs RAN chaos vs replay)",
    ))
    passed = sum(1 for c in cases if c.passed)
    print(f"{passed}/{len(cases)} cases passed")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "passed": passed == len(cases),
                    "cases": [c.to_dict() for c in cases],
                },
                fh, indent=2, sort_keys=True,
            )
        print(f"wrote {args.report}")
    return 0 if passed == len(cases) else 1


def _cmd_breakeven(args: argparse.Namespace) -> int:
    print("D2D-vs-cellular breakeven distance (UE side):")
    for beats in (1, 2, 3, 5, 7, 10):
        distance = breakeven_distance_m(expected_beats=beats)
        print(f"  {beats:2d} beats/session → {distance:5.1f} m")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    apps = ["wechat", "qq", "whatsapp", "facebook"]
    shares = heartbeat_share_table(
        apps, window_s=args.days * 86_400.0, rng=random.Random(args.seed),
        repeats=3,
    )
    print(format_table(
        ["App", "Paper", "Measured"],
        [
            [name, percent(APP_REGISTRY[name].heartbeat_share),
             percent(shares[name])]
            for name in apps
        ],
        title="Table I — heartbeat share of messages",
    ))
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.viz import render_timeline

    result = run_relay_scenario(
        n_ues=args.ues, distance_m=args.distance, periods=args.periods,
        seed=args.seed, keep_energy_log=True,
    )
    horizon = result.metrics.horizon_s
    print(f"1 relay + {args.ues} UE(s) @ {args.distance} m, "
          f"{args.periods} periods ({horizon:.0f} s)")
    print(render_timeline(result.devices.values(), horizon, width=args.width))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import REGISTRY, run_experiment

    if args.id is None or args.id.lower() == "list":
        print(format_table(
            ["Id", "Artifact"],
            [[exp_id, description] for exp_id, (description, __) in
             sorted(REGISTRY.items())],
            title="Registered paper experiments",
        ))
        return 0
    try:
        description, __ = REGISTRY[args.id.upper()]
    except KeyError:
        print(f"unknown experiment {args.id!r}; try 'experiment list'",
              file=sys.stderr)
        return 2
    print(f"{args.id.upper()}: {description}")
    result = run_experiment(args.id)
    _print_experiment_result(result)
    return 0


def _print_experiment_result(result) -> None:
    """Best-effort tabulation of an experiment's return value."""
    if isinstance(result, dict) and all(
        isinstance(v, (int, float)) for v in result.values()
    ):
        print(format_table(["Key", "Value"], [[k, v] for k, v in result.items()]))
        return
    if isinstance(result, dict) and all(
        isinstance(v, dict) for v in result.values()
    ):
        for key, block in result.items():
            print(format_table(
                ["Key", "Value"], [[k, v] for k, v in block.items()],
                title=str(key),
            ))
        return
    if isinstance(result, dict):  # name → series
        lengths = {len(v) for v in result.values()}
        if len(lengths) == 1:
            n = lengths.pop()
            print(format_series("k", list(range(1, n + 1)), result))
            return
    if isinstance(result, (list, tuple)) and result and all(
        isinstance(v, (int, float)) for v in result
    ):
        print(format_series("k", list(range(1, len(result) + 1)),
                            {"value": list(result)}))
        return
    if (
        isinstance(result, tuple)
        and result
        and all(isinstance(part, (list, dict)) for part in result)
    ):
        for i, part in enumerate(result):
            print(f"-- part {i + 1} --")
            _print_experiment_result(part)
        return
    print(result)


def _cmd_calibration(args: argparse.Namespace) -> int:
    p = DEFAULT_PROFILE
    rows = [
        ["UE discovery", p.ue_discovery_uah, "Table III"],
        ["UE connection", p.ue_connection_uah, "Table III"],
        ["UE forward (per msg)", p.ue_forward_uah, "Table III"],
        ["Relay discovery", p.relay_discovery_uah, "Table III"],
        ["Relay connection", p.relay_connection_uah, "Table III"],
        ["Relay receive (per msg)", p.relay_receive_uah, "Table IV slope"],
        ["Relay receive (coalesced)", p.relay_receive_coalesced_uah,
         "Fig. 10/11 wake analysis"],
        ["Cellular setup", p.cellular_setup_uah, "Fig. 7 decomposition"],
        ["Cellular tx base", p.cellular_tx_base_uah, "Fig. 7 decomposition"],
        ["Cellular tail", p.cellular_tail_uah, "Fig. 7 decomposition"],
        ["Cellular heartbeat (54 B)", p.cellular_heartbeat_uah(),
         "55% UE-saving anchor"],
    ]
    print(format_table(["Quantity (µAh)", "Value", "Provenance"], rows,
                       title="Energy calibration (src/repro/energy/profiles.py)"))
    return 0


def _add_channel_flags(parser: argparse.ArgumentParser) -> None:
    """Channel-layer flags shared by scenario and sweep subcommands."""
    parser.add_argument(
        "--channel", default=None, choices=["fixed", "sinr"],
        help="transfer model: 'fixed' (calibrated constants, default) or "
             "'sinr' (interference-aware Shannon-capacity rates over "
             "shared resource blocks)")
    parser.add_argument(
        "--allocator", default="centralized",
        choices=["centralized", "message-passing"],
        help="resource-block allocator for --channel sinr")
    parser.add_argument(
        "--num-rbs", type=int, default=6,
        help="shared resource blocks for --channel sinr (default 6)")
    parser.add_argument(
        "--shadowing-sigma", type=float, default=None, metavar="DB",
        help="override the link model's lognormal shadowing sigma (dB), "
             "the Zafaruddin et al. fading-regime axis")
    parser.add_argument(
        "--selection-policy", default=None,
        choices=["distance", "rate", "hybrid"],
        help="relay ranking: 'distance' (the paper's shortest-distance "
             "rule, default), 'rate' (highest channel-predicted rate) or "
             "'hybrid' (rate near-tie group, shortest distance inside); "
             "rate/hybrid need --channel sinr")


def _shard_count(text: str) -> int:
    """``--shards`` value: an integer of at least one."""
    shards = int(text)
    if shards < 1:
        raise argparse.ArgumentTypeError(f"need at least one shard, got {shards}")
    return shards


def _add_shard_flags(parser: argparse.ArgumentParser) -> None:
    """Cell-sharded kernel flags shared by crowd and sweep subcommands."""
    parser.add_argument(
        "--shards", type=_shard_count, default=None, metavar="N",
        help="run crowds on the cell-sharded kernel with N shards; "
             "serving cells are packed into load-balanced rectangular "
             "tiles, one per shard. N = 1 runs the unsharded kernel, "
             "which gives the same result as one shard")
    parser.add_argument(
        "--shard-backend", default=None, choices=["serial", "process"],
        help="sharded execution: all shards in-process ('serial', the "
             "reference) or one worker process per shard ('process'); "
             "both produce byte-identical metrics")


def _add_chaos_flags(parser: argparse.ArgumentParser) -> None:
    """Chaos-injection flags shared by scenario and sweep subcommands."""
    parser.add_argument(
        "--chaos-profile", default=None, metavar="NAME",
        help="layer stochastic fault processes on the D2D run and audit "
             "delivery safety (mild | relay-hostile | link-hostile | "
             "adversarial | ran-outage | paging-storm | degraded-ran)")
    parser.add_argument(
        "--chaos-seed", type=int, default=None,
        help="chaos RNG seed (default: the scenario --seed)")


def _add_runner_flags(parser: argparse.ArgumentParser) -> None:
    """Registry-dispatch flags shared by `sweep` and `grid`."""
    parser.add_argument(
        "--runner", default=None, metavar="NAME",
        help="dispatch a registered grid runner instead of the built-in "
             "sweep (see repro.scenarios.RUNNER_REGISTRY); needs --param")
    parser.add_argument(
        "--param", action="append", default=None, metavar="KEY=V1,V2,...",
        help="one grid axis for --runner (repeatable); values are "
             "coerced to int/float where possible")


def _retry_count(text: str) -> int:
    """``--max-retries`` value: a non-negative integer."""
    retries = int(text)
    if retries < 0:
        raise argparse.ArgumentTypeError(
            f"need a retry count of at least 0, got {retries}"
        )
    return retries


def _add_dispatch_flags(parser: argparse.ArgumentParser) -> None:
    """Shared execution-layer flags of the `sweep` and `grid` subcommands."""
    parser.add_argument(
        "--max-retries", type=_retry_count, default=0,
        help="extra attempts per point before it counts as failed")
    parser.add_argument(
        "--keep-going", action="store_true",
        help="report failed points in the result instead of aborting "
             "the sweep")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="D2D heartbeat relaying framework — experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pair = sub.add_parser("pair", help="1 relay + n UEs vs. the original system")
    pair.add_argument("--ues", type=int, default=1)
    pair.add_argument("--distance", type=float, default=1.0)
    pair.add_argument("--periods", type=int, default=7)
    pair.add_argument("--capacity", type=int, default=10)
    pair.add_argument("--seed", type=int, default=0)
    _add_chaos_flags(pair)
    _add_channel_flags(pair)
    pair.set_defaults(func=_cmd_pair)

    crowd = sub.add_parser("crowd", help="clustered-crowd signaling storm")
    crowd.add_argument("--devices", type=int, default=40)
    crowd.add_argument("--relay-fraction", type=float, default=0.2)
    crowd.add_argument("--duration", type=float, default=1800.0)
    crowd.add_argument("--mobile-fraction", type=float, default=0.0,
                       help="fraction of devices random-waypointing "
                            "through the arena")
    crowd.add_argument("--seed", type=int, default=0)
    _add_shard_flags(crowd)
    _add_chaos_flags(crowd)
    _add_channel_flags(crowd)
    crowd.set_defaults(func=_cmd_crowd)

    sweep = sub.add_parser("sweep", help="saved energy vs. transmission times")
    sweep.add_argument("--ues", type=int, default=1)
    sweep.add_argument("--max-periods", type=int, default=8)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--workers", type=int, default=0,
                       help="process-pool size; <=1 runs serially")
    sweep.add_argument("--cache-dir", default=None,
                       help="on-disk sweep result cache directory")
    _add_dispatch_flags(sweep)
    _add_runner_flags(sweep)
    _add_shard_flags(sweep)
    _add_chaos_flags(sweep)
    _add_channel_flags(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    grid = sub.add_parser(
        "grid", help="sensitivity grid over distance × periods (parallel)"
    )
    grid.add_argument("--distances", default="1,8,15,19",
                      help="comma-separated distances in metres")
    grid.add_argument("--periods", default="1,3,7",
                      help="comma-separated transmission counts")
    grid.add_argument("--seed", type=int, default=0)
    grid.add_argument("--workers", type=int, default=0,
                      help="process-pool size; <=1 runs serially")
    grid.add_argument("--cache-dir", default=None,
                      help="on-disk sweep result cache directory")
    grid.add_argument("--timings", action="store_true",
                      help="print the per-point wall-clock timing table")
    _add_dispatch_flags(grid)
    _add_runner_flags(grid)
    _add_shard_flags(grid)
    _add_chaos_flags(grid)
    _add_channel_flags(grid)
    grid.set_defaults(func=_cmd_grid)

    chaos = sub.add_parser(
        "chaos", help="differential chaos harness (delivery-safety gate)"
    )
    chaos.add_argument("--scenarios", default="pair",
                       help="comma-separated scenario names (pair, crowd)")
    chaos.add_argument("--profiles", default=None,
                       help="comma-separated chaos profiles "
                            "(default: all built-ins)")
    chaos.add_argument("--seeds", default="0,1,2,3,4",
                       help="comma-separated seeds per (scenario, profile)")
    chaos.add_argument("--ues", type=int, default=2,
                       help="UEs in the pair scenario")
    chaos.add_argument("--periods", type=int, default=4,
                       help="heartbeat periods in the pair scenario")
    chaos.add_argument("--devices", type=int, default=12,
                       help="devices in the crowd scenario")
    chaos.add_argument("--duration", type=float, default=900.0,
                       help="crowd scenario duration in seconds")
    chaos.set_defaults(func=_cmd_chaos)

    ran = sub.add_parser(
        "ran", help="degraded-RAN differential (no-silent-loss gate)"
    )
    ran.add_argument("--scenarios", default="pair",
                     help="comma-separated scenario names (pair, crowd)")
    ran.add_argument("--profiles", default="ran-outage,paging-storm",
                     help="comma-separated RAN chaos profiles "
                          "(ran-outage | paging-storm | degraded-ran)")
    ran.add_argument("--seeds", default="0,1",
                     help="comma-separated seeds per (scenario, profile)")
    ran.add_argument("--ues", type=int, default=2,
                     help="UEs in the pair scenario")
    ran.add_argument("--periods", type=int, default=4,
                     help="heartbeat periods in the pair scenario")
    ran.add_argument("--devices", type=int, default=12,
                     help="devices in the crowd scenario")
    ran.add_argument("--duration", type=float, default=900.0,
                     help="crowd scenario duration in seconds")
    ran.add_argument("--report", default=None, metavar="PATH",
                     help="write the case list as JSON (CI artifact)")
    ran.set_defaults(func=_cmd_ran)

    breakeven = sub.add_parser("breakeven", help="D2D-vs-cellular distances")
    breakeven.set_defaults(func=_cmd_breakeven)

    table1 = sub.add_parser("table1", help="regenerate Table I")
    table1.add_argument("--days", type=float, default=7.0)
    table1.add_argument("--seed", type=int, default=2017)
    table1.set_defaults(func=_cmd_table1)

    calibration = sub.add_parser("calibration", help="print the energy model")
    calibration.set_defaults(func=_cmd_calibration)

    experiment = sub.add_parser(
        "experiment", help="regenerate a paper table/figure by id (or 'list')"
    )
    experiment.add_argument("id", nargs="?", default="list")
    experiment.set_defaults(func=_cmd_experiment)

    timeline = sub.add_parser(
        "timeline", help="ASCII radio-activity timeline of a session"
    )
    timeline.add_argument("--ues", type=int, default=2)
    timeline.add_argument("--distance", type=float, default=1.0)
    timeline.add_argument("--periods", type=int, default=3)
    timeline.add_argument("--width", type=int, default=72)
    timeline.add_argument("--seed", type=int, default=0)
    timeline.set_defaults(func=_cmd_timeline)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests on main()
    sys.exit(main())
