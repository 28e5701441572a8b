"""Differential chaos harness.

Runs a scenario twice from the same seed — audited baseline versus
audited chaos — and asserts the paper's strict-safety claim: whatever the
fault processes do, delivery-rate and deadline-safety never drop. This is
the acceptance gate the CI ``chaos-smoke`` job and the soak workflow run.

A case **fails** when any of:

- either run's invariant auditor reports a violation;
- the chaos run's audited deadline-safety (on-time fraction of
  adjudicated, non-exempt beats) is below 1.0;
- the chaos run's audited deadline-safety drops below the baseline's.

Raw server-side ``on_time_fraction`` is reported for context but not
gated: chaos legitimately adds *duplicate* fallback deliveries whose
second copy can arrive late, and kills devices whose beats nobody owes.
The audited figure already accounts for both.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Union

from repro.faults.chaos import CHAOS_PROFILES, ChaosProfile, resolve_profile

#: Scenario names the harness knows how to drive.
SCENARIOS = ("pair", "crowd")

#: Default sweep used by the acceptance gate and the CLI ``chaos`` command.
DEFAULT_SEEDS = (0, 1, 2, 3, 4)


@dataclasses.dataclass
class DifferentialCase:
    """Outcome of one (scenario, profile, seed) differential run."""

    scenario: str
    profile: str
    seed: int
    baseline_on_time: float
    chaos_on_time: float
    baseline_deadline_safe: float
    chaos_deadline_safe: float
    audit_violations: int
    baseline_violations: int
    chaos_events: int
    fallbacks_fired: int
    failures: List[str] = dataclasses.field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, object]:
        data = dataclasses.asdict(self)
        data["passed"] = self.passed
        return data

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL " + "; ".join(self.failures)
        return (
            f"{self.scenario}/{self.profile} seed={self.seed}: {status} "
            f"(safe {self.chaos_deadline_safe:.3f}, "
            f"violations {self.audit_violations}, "
            f"chaos events {self.chaos_events}, "
            f"fallbacks {self.fallbacks_fired})"
        )


@dataclasses.dataclass
class DifferentialSuite:
    """All cases of one harness invocation."""

    cases: List[DifferentialCase] = dataclasses.field(default_factory=list)

    @property
    def passed(self) -> bool:
        return bool(self.cases) and all(c.passed for c in self.cases)

    @property
    def failed_cases(self) -> List[DifferentialCase]:
        return [c for c in self.cases if not c.passed]

    def to_dict(self) -> Dict[str, object]:
        return {
            "passed": self.passed,
            "cases": [c.to_dict() for c in self.cases],
        }

    def summary(self) -> str:
        lines = [c.summary() for c in self.cases]
        lines.append(
            f"differential: {len(self.cases) - len(self.failed_cases)}"
            f"/{len(self.cases)} cases passed"
        )
        return "\n".join(lines)


def _run_scenario(
    scenario: str,
    seed: int,
    chaos: Optional[ChaosProfile],
    chaos_seed: Optional[int],
    n_ues: int,
    periods: int,
    n_devices: int,
    duration_s: float,
    channel: Optional[str] = None,
    selection_policy: Optional[str] = None,
):
    from repro import scenarios

    if scenario == "pair":
        return scenarios.run_relay_scenario(
            n_ues=n_ues,
            periods=periods,
            seed=seed,
            chaos=chaos,
            chaos_seed=chaos_seed,
            audit=True,
            channel=channel,
            selection_policy=selection_policy,
        )
    if scenario == "crowd":
        return scenarios.run_crowd_scenario(scenarios.CrowdSpec(
            n_devices=n_devices,
            duration_s=duration_s,
            seed=seed,
            chaos=chaos,
            chaos_seed=chaos_seed,
            audit=True,
            channel=channel,
            selection_policy=selection_policy,
        ))
    raise ValueError(f"unknown scenario {scenario!r}; known: {SCENARIOS}")


def run_differential(
    scenario: str = "pair",
    profile: Union[str, ChaosProfile] = "mild",
    seed: int = 0,
    n_ues: int = 2,
    periods: int = 4,
    n_devices: int = 12,
    duration_s: float = 900.0,
    channel: Optional[str] = None,
    selection_policy: Optional[str] = None,
) -> DifferentialCase:
    """One differential case: audited baseline vs audited chaos run.

    ``channel="sinr"`` runs *both* legs under the interference-aware
    capacity layer, asserting the safety contract also holds when
    capacity-derived transfer durations replace the fixed constants;
    ``selection_policy`` additionally applies one of the matcher's
    relay-selection policies (``"rate"``/``"hybrid"``) to both legs.
    """
    resolved = resolve_profile(profile)
    assert resolved is not None
    baseline = _run_scenario(
        scenario, seed, None, None, n_ues, periods, n_devices, duration_s,
        channel=channel, selection_policy=selection_policy,
    )
    chaotic = _run_scenario(
        scenario, seed, resolved, seed, n_ues, periods, n_devices, duration_s,
        channel=channel, selection_policy=selection_policy,
    )
    baseline_violations = (
        len(baseline.audit_report.violations) if baseline.audit_report else 0
    )
    chaos_violations = (
        len(chaotic.audit_report.violations) if chaotic.audit_report else 0
    )
    baseline_safe = baseline.deadline_safe_fraction()
    chaos_safe = chaotic.deadline_safe_fraction()
    fallbacks = (
        chaotic.metrics.faults.fallbacks_fired
        if chaotic.metrics.faults is not None
        else 0
    )
    case = DifferentialCase(
        scenario=scenario,
        profile=resolved.name,
        seed=seed,
        baseline_on_time=baseline.on_time_fraction(),
        chaos_on_time=chaotic.on_time_fraction(),
        baseline_deadline_safe=baseline_safe,
        chaos_deadline_safe=chaos_safe,
        audit_violations=chaos_violations,
        baseline_violations=baseline_violations,
        chaos_events=(
            chaotic.chaos_report.total_events if chaotic.chaos_report else 0
        ),
        fallbacks_fired=fallbacks,
    )
    if baseline_violations:
        first = baseline.audit_report.first_violation
        case.failures.append(f"baseline audit: {first}")
    if chaos_violations:
        first = chaotic.audit_report.first_violation
        case.failures.append(f"chaos audit: {first}")
    if chaos_safe < 1.0:
        case.failures.append(f"deadline safety {chaos_safe:.4f} < 1.0")
    if chaos_safe < baseline_safe:
        case.failures.append(
            f"deadline safety dropped {baseline_safe:.4f} → {chaos_safe:.4f}"
        )
    return case


@dataclasses.dataclass
class ChannelDifferentialCase:
    """Outcome of one audited fixed-vs-channel comparison run.

    Both legs run the identical scenario and seed; the only difference
    is the transfer model. The safety contract: the invariant auditor
    stays clean in *both* modes and the channel run keeps audited
    deadline safety at 1.0 — RB contention may slow transfers, never
    break delivery.
    """

    scenario: str
    seed: int
    fixed_violations: int
    channel_violations: int
    fixed_deadline_safe: float
    channel_deadline_safe: float
    channel_transfers: int
    channel_peak_live: int
    failures: List[str] = dataclasses.field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, object]:
        data = dataclasses.asdict(self)
        data["passed"] = self.passed
        return data

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL " + "; ".join(self.failures)
        return (
            f"{self.scenario} seed={self.seed} fixed-vs-channel: {status} "
            f"(safe {self.channel_deadline_safe:.3f}, "
            f"violations {self.channel_violations}, "
            f"transfers {self.channel_transfers}, "
            f"peak co-channel leases {self.channel_peak_live})"
        )


def run_channel_differential(
    scenario: str = "crowd",
    seed: int = 0,
    n_ues: int = 2,
    periods: int = 4,
    n_devices: int = 12,
    duration_s: float = 900.0,
    chaos: Optional[Union[str, ChaosProfile]] = None,
    selection_policy: Optional[str] = None,
) -> ChannelDifferentialCase:
    """Audited fixed-cost run vs audited ``channel="sinr"`` run.

    With ``chaos`` set, both legs additionally run under that fault
    profile — the composition case (link flaps + RB contention) the
    chaos/channel interaction tests gate on. ``selection_policy``
    applies a matcher relay-selection policy to the channel leg only
    (the fixed leg has no channel model, so channel-aware policies fall
    back to distance there by construction) — the differential that
    shows channel-aware selection preserves the delivery contract.
    """
    resolved = resolve_profile(chaos) if chaos is not None else None
    fixed = _run_scenario(
        scenario, seed, resolved, seed if resolved else None,
        n_ues, periods, n_devices, duration_s, channel=None,
        selection_policy=selection_policy,
    )
    channel = _run_scenario(
        scenario, seed, resolved, seed if resolved else None,
        n_ues, periods, n_devices, duration_s, channel="sinr",
        selection_policy=selection_policy,
    )
    fixed_violations = (
        len(fixed.audit_report.violations) if fixed.audit_report else 0
    )
    channel_violations = (
        len(channel.audit_report.violations) if channel.audit_report else 0
    )
    stats = channel.metrics.channel or {}
    case = ChannelDifferentialCase(
        scenario=scenario,
        seed=seed,
        fixed_violations=fixed_violations,
        channel_violations=channel_violations,
        fixed_deadline_safe=fixed.deadline_safe_fraction(),
        channel_deadline_safe=channel.deadline_safe_fraction(),
        channel_transfers=int(stats.get("transfers", 0)),
        channel_peak_live=int(stats.get("rb_peak_live", 0)),
    )
    if fixed_violations:
        case.failures.append(
            f"fixed-mode audit: {fixed.audit_report.first_violation}"
        )
    if channel_violations:
        case.failures.append(
            f"channel-mode audit: {channel.audit_report.first_violation}"
        )
    if resolved is None and case.channel_deadline_safe < 1.0:
        case.failures.append(
            f"channel deadline safety {case.channel_deadline_safe:.4f} < 1.0"
        )
    if case.channel_deadline_safe < case.fixed_deadline_safe:
        case.failures.append(
            f"deadline safety dropped {case.fixed_deadline_safe:.4f} → "
            f"{case.channel_deadline_safe:.4f} under channel mode"
        )
    return case


@dataclasses.dataclass
class RanDifferentialCase:
    """Outcome of one audited baseline-vs-RAN-chaos comparison run.

    Three legs from one (scenario, profile, seed): an audited healthy-RAN
    baseline, an audited RAN-chaos run, and a *replay* of the chaos run.
    The contract: zero auditor violations on both distinct legs (every
    beat delivered, buffered, or dropped with a recorded cause; reattach
    within the profile's bound after every outage), outage-aware deadline
    safety at 1.0, and the replay byte-identical — same comparable
    metrics, same chaos event stream.
    """

    scenario: str
    profile: str
    seed: int
    baseline_violations: int
    chaos_violations: int
    baseline_deadline_safe: float
    chaos_deadline_safe: float
    chaos_events: int
    bs_outages: int
    bs_brownouts: int
    rrc_rejections: int
    pages_injected: int
    uplinks_rejected: int
    detaches: int
    reattaches: int
    beats_dropped: int
    beats_buffered_end: int
    replay_identical: bool
    failures: List[str] = dataclasses.field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, object]:
        data = dataclasses.asdict(self)
        data["passed"] = self.passed
        return data

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL " + "; ".join(self.failures)
        return (
            f"{self.scenario}/{self.profile} seed={self.seed} ran-chaos: "
            f"{status} (safe {self.chaos_deadline_safe:.3f}, "
            f"violations {self.chaos_violations}, "
            f"outages {self.bs_outages}, brownouts {self.bs_brownouts}, "
            f"rejected uplinks {self.uplinks_rejected}, "
            f"detach/reattach {self.detaches}/{self.reattaches}, "
            f"replay {'identical' if self.replay_identical else 'DIVERGED'})"
        )


def _chaos_event_tuples(report) -> List[tuple]:
    return [
        (e.time_s, e.seq, e.kind, e.target, e.detail)
        for e in report.events
    ]


def run_ran_differential(
    scenario: str = "pair",
    profile: Union[str, ChaosProfile] = "ran-outage",
    seed: int = 0,
    n_ues: int = 2,
    periods: int = 4,
    n_devices: int = 12,
    duration_s: float = 900.0,
) -> RanDifferentialCase:
    """One RAN-chaos case: audited baseline vs chaos vs replayed chaos.

    Unlike :func:`run_differential`, the chaos leg here degrades the
    *cellular* side — outages, brown-outs, paging storms — so raw
    deadline safety over every beat is unachievable by construction.
    What is gated instead is the degraded-RAN contract: no silent
    heartbeat loss (auditor violations cover it), outage-aware deadline
    safety of the healthy population at 1.0, and deterministic replay
    from the (scenario, profile, seed) triple.
    """
    resolved = resolve_profile(profile)
    assert resolved is not None
    baseline = _run_scenario(
        scenario, seed, None, None, n_ues, periods, n_devices, duration_s
    )
    chaotic = _run_scenario(
        scenario, seed, resolved, seed, n_ues, periods, n_devices, duration_s
    )
    replay = _run_scenario(
        scenario, seed, resolved, seed, n_ues, periods, n_devices, duration_s
    )
    replay_identical = (
        chaotic.metrics.to_comparable_dict() == replay.metrics.to_comparable_dict()
        and _chaos_event_tuples(chaotic.chaos_report)
        == _chaos_event_tuples(replay.chaos_report)
    )
    baseline_violations = (
        len(baseline.audit_report.violations) if baseline.audit_report else 0
    )
    chaos_violations = (
        len(chaotic.audit_report.violations) if chaotic.audit_report else 0
    )
    faults = chaotic.metrics.faults
    case = RanDifferentialCase(
        scenario=scenario,
        profile=resolved.name,
        seed=seed,
        baseline_violations=baseline_violations,
        chaos_violations=chaos_violations,
        baseline_deadline_safe=baseline.deadline_safe_fraction(),
        chaos_deadline_safe=chaotic.deadline_safe_fraction(),
        chaos_events=(
            chaotic.chaos_report.total_events if chaotic.chaos_report else 0
        ),
        bs_outages=faults.bs_outages if faults else 0,
        bs_brownouts=faults.bs_brownouts if faults else 0,
        rrc_rejections=faults.rrc_rejections if faults else 0,
        pages_injected=faults.pages_injected if faults else 0,
        uplinks_rejected=faults.uplinks_rejected if faults else 0,
        detaches=faults.detaches if faults else 0,
        reattaches=faults.reattaches if faults else 0,
        beats_dropped=(
            faults.beats_dropped_stale
            + faults.beats_dropped_overflow
            + faults.beats_dropped_retries
            if faults
            else 0
        ),
        beats_buffered_end=faults.beats_buffered_end if faults else 0,
        replay_identical=replay_identical,
    )
    if baseline_violations:
        case.failures.append(
            f"baseline audit: {baseline.audit_report.first_violation}"
        )
    if chaos_violations:
        case.failures.append(
            f"ran-chaos audit: {chaotic.audit_report.first_violation}"
        )
    if case.chaos_deadline_safe < 1.0:
        case.failures.append(
            f"outage-aware deadline safety {case.chaos_deadline_safe:.4f} < 1.0"
        )
    if case.chaos_deadline_safe < case.baseline_deadline_safe:
        case.failures.append(
            f"deadline safety dropped {case.baseline_deadline_safe:.4f} → "
            f"{case.chaos_deadline_safe:.4f}"
        )
    if not replay_identical:
        case.failures.append(
            "replay diverged: same (scenario, profile, seed) produced "
            "different metrics or chaos events"
        )
    return case


def run_differential_suite(
    profiles: Optional[Sequence[Union[str, ChaosProfile]]] = None,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    scenarios: Sequence[str] = ("pair",),
    n_ues: int = 2,
    periods: int = 4,
    n_devices: int = 12,
    duration_s: float = 900.0,
) -> DifferentialSuite:
    """Every (scenario × profile × seed) differential case.

    Defaults to all built-in profiles over the acceptance seed set on the
    fast pair scenario; pass ``scenarios=("pair", "crowd")`` for the soak.
    """
    if profiles is None:
        profiles = list(CHAOS_PROFILES)
    suite = DifferentialSuite()
    for scenario in scenarios:
        for profile in profiles:
            for seed in seeds:
                suite.cases.append(
                    run_differential(
                        scenario=scenario,
                        profile=profile,
                        seed=seed,
                        n_ues=n_ues,
                        periods=periods,
                        n_devices=n_devices,
                        duration_s=duration_s,
                    )
                )
    return suite
