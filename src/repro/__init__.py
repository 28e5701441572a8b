"""repro — D2D heartbeat relaying framework (ICDCS 2017 reproduction).

Reproduction of "Reducing Cellular Signaling Traffic for Heartbeat
Messages via Energy-Efficient D2D Forwarding" (Jin, Liu, Yi, Chen —
ICDCS 2017): relays collect IM heartbeats from nearby UEs over Wi-Fi
Direct and uplink them in one aggregated cellular transmission, cutting
RRC signaling (the "signaling storm") and device energy.

Quickstart::

    from repro import run_relay_scenario, saved_percent

    d2d = run_relay_scenario(n_ues=1, periods=7, mode="d2d")
    base = run_relay_scenario(n_ues=1, periods=7, mode="original")
    print("system energy saved:",
          saved_percent(base.system_energy_uah(), d2d.system_energy_uah()))
    print("signaling reduction:",
          saved_percent(base.total_l3(), d2d.total_l3()))

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.sim import Simulator
from repro.sim.rng import spawn
from repro.device import Role, Smartphone
from repro.energy import Battery, EnergyModel, EnergyPhase, PowerMonitor
from repro.energy.profiles import DEFAULT_PROFILE, EnergyProfile, STANDARD_HEARTBEAT_BYTES
from repro.cellular import (
    BaseStation,
    CellularModem,
    LTE_PROFILE,
    RrcProfile,
    RrcState,
    SignalingLedger,
    WCDMA_PROFILE,
)
from repro.d2d import BLUETOOTH, D2DMedium, D2DTechnology, LTE_DIRECT, WIFI_DIRECT
from repro.mobility import Arena, RandomWaypointMobility, StaticMobility, place_crowd
from repro.workload import (
    APP_REGISTRY,
    AppProfile,
    HeartbeatMessage,
    IMServer,
    PeriodicMessage,
    STANDARD_APP,
    WECHAT,
)
from repro.core import (
    FrameworkConfig,
    HeartbeatRelayFramework,
    MatchConfig,
    MessageScheduler,
    RelayAgent,
    RewardLedger,
    RewardPolicy,
    SchedulerConfig,
    UEAgent,
    breakeven_distance_m,
)
from repro.core.security import IntegrityError, SealedBeat, SecureChannel, ServerKeyRing
from repro.baseline import (
    FAST_DORMANCY_PROFILE,
    FastDormancySystem,
    OriginalSystem,
    PiggybackSystem,
)
from repro.scenarios import (
    NetworkContext,
    RUNNER_REGISTRY,
    ScenarioResult,
    build_network,
    crowd_metrics_runner,
    relay_savings_runner,
    run_crowd_scenario,
    run_relay_scenario,
)
from repro.metrics import (
    RunMetrics,
    SweepPointTiming,
    SweepTelemetry,
    collect_metrics,
)
from repro.sweep import (
    SweepCache,
    SweepError,
    SweepFailure,
    SweepPoint,
    SweepResult,
    grid_sweep,
)
from repro.experiments import (
    REGISTRY as EXPERIMENT_REGISTRY,
    run_experiment,
    sensitivity_grid,
)
from repro.viz import render_timeline
from repro.faults import (
    CHAOS_PROFILES,
    ChaosEngine,
    ChaosProfile,
    FaultPlan,
    InjectedFault,
    InvariantAuditor,
    run_differential,
    run_differential_suite,
)
from repro.plotting import LineChart, line_chart
from repro.analysis import (
    linear_fit,
    saved_fraction,
    saved_percent,
    signaling_reduction,
    wasted_to_saved_ratio,
)

__version__ = "1.0.0"

__all__ = [
    "Simulator",
    "Role",
    "Smartphone",
    "Battery",
    "EnergyModel",
    "EnergyPhase",
    "PowerMonitor",
    "DEFAULT_PROFILE",
    "EnergyProfile",
    "STANDARD_HEARTBEAT_BYTES",
    "BaseStation",
    "CellularModem",
    "LTE_PROFILE",
    "RrcProfile",
    "RrcState",
    "SignalingLedger",
    "WCDMA_PROFILE",
    "BLUETOOTH",
    "D2DMedium",
    "D2DTechnology",
    "LTE_DIRECT",
    "WIFI_DIRECT",
    "Arena",
    "RandomWaypointMobility",
    "StaticMobility",
    "place_crowd",
    "APP_REGISTRY",
    "AppProfile",
    "HeartbeatMessage",
    "IMServer",
    "PeriodicMessage",
    "STANDARD_APP",
    "WECHAT",
    "FrameworkConfig",
    "HeartbeatRelayFramework",
    "MatchConfig",
    "MessageScheduler",
    "RelayAgent",
    "RewardLedger",
    "RewardPolicy",
    "SchedulerConfig",
    "UEAgent",
    "breakeven_distance_m",
    "IntegrityError",
    "SealedBeat",
    "SecureChannel",
    "ServerKeyRing",
    "OriginalSystem",
    "PiggybackSystem",
    "FastDormancySystem",
    "FAST_DORMANCY_PROFILE",
    "NetworkContext",
    "RUNNER_REGISTRY",
    "ScenarioResult",
    "build_network",
    "crowd_metrics_runner",
    "relay_savings_runner",
    "run_crowd_scenario",
    "run_relay_scenario",
    "RunMetrics",
    "SweepPointTiming",
    "SweepTelemetry",
    "collect_metrics",
    "SweepCache",
    "SweepError",
    "SweepFailure",
    "SweepPoint",
    "SweepResult",
    "grid_sweep",
    "spawn",
    "EXPERIMENT_REGISTRY",
    "run_experiment",
    "sensitivity_grid",
    "render_timeline",
    "FaultPlan",
    "InjectedFault",
    "CHAOS_PROFILES",
    "ChaosEngine",
    "ChaosProfile",
    "InvariantAuditor",
    "run_differential",
    "run_differential_suite",
    "LineChart",
    "line_chart",
    "linear_fit",
    "saved_fraction",
    "saved_percent",
    "signaling_reduction",
    "wasted_to_saved_ratio",
    "__version__",
]
