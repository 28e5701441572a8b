"""The benchmark's four workloads and the calls that run them.

Each workload is one public entry point of the simulator with fixed
parameters; only the seed comes from the command line. The workloads are
chosen so that each loads a different mix of layers (see README.md):

- ``discovery-storm``: every device scans every 10 s, so discovery
  (``d2d/base.py`` and ``mobility/index.py``) dominates.
- ``heartbeat-steady``: the paper's steady state, dominated by the event
  kernel, per-connection link polling and the framework.
- ``sharded-city``: the only parallel workload; loads the shard layer.
- ``degraded-ran``: the only workload that loads ``channel/``, the
  cellular fallback path, RAN admission and ``faults/``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Optional


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark input: an entry point, its parameters and a seed."""

    name: str
    entry: str  # "scenarios" or "shard"
    params: Dict[str, Any]
    #: overrides that shrink the workload about 20-fold for ``--smoke``
    smoke: Dict[str, Any]
    default_seed: int = 0
    #: scan period of the storm hook; ``None`` runs without it
    storm_scan_period_s: Optional[float] = None

    def kwargs(self, seed: int, smoke: bool) -> Dict[str, Any]:
        """Keyword arguments for the entry point."""
        params = dict(self.params)
        if smoke:
            params.update(self.smoke)
        params["seed"] = seed
        return params

    def drain_after_s(self, smoke: bool) -> float:
        """Beat emission stops here; any later ``run_until`` is the drain."""
        return self.kwargs(0, smoke)["duration_s"] - 1.0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="discovery-storm",
            entry="scenarios",
            # 24 hotspots, not 12: the scan cost follows how many hotspots
            # overlap, which the seed decides; over random sets of ten
            # seeds the quartile spread of wall time was 21% at the 90th
            # percentile with 12 hotspots and 15% with 24
            params=dict(
                n_devices=3000, arena_m=1200.0, hotspots=24,
                hotspot_spread_m=60.0, mobile_fraction=0.1, duration_s=60.0,
            ),
            smoke=dict(n_devices=150, arena_m=270.0, hotspots=3),
            storm_scan_period_s=10.0,
        ),
        Workload(
            name="heartbeat-steady",
            entry="scenarios",
            params=dict(
                n_devices=2000, arena_m=1500.0, hotspots=100,
                hotspot_spread_m=8.0, mobile_fraction=0.1, duration_s=3600.0,
            ),
            smoke=dict(n_devices=100, arena_m=335.0, hotspots=5),
        ),
        Workload(
            name="sharded-city",
            entry="shard",
            params=dict(
                n_devices=8000, arena_m=2400.0, cells_x=10, cells_y=4,
                hotspots=12, hotspot_spread_m=60.0, mobile_fraction=0.1,
                shards=2, shard_plan="tiles", backend="process",
                sync_window_s=5.0, duration_s=240.0,
            ),
            smoke=dict(n_devices=400, arena_m=540.0),
            # seed 2: the 12 hotspots land unevenly, so the tile planner
            # has a skew to balance (seed 0 spreads them almost uniformly)
            default_seed=2,
        ),
        Workload(
            name="degraded-ran",
            entry="scenarios",
            params=dict(
                n_devices=1000, arena_m=350.0, hotspots=24,
                heartbeat_period_s=45.0, duration_s=900.0, channel="sinr",
                chaos="paging-storm", chaos_seed=2, audit=True,
            ),
            smoke=dict(n_devices=50, arena_m=80.0, hotspots=2),
        ),
    )
}


def storm_hook(scan_period_s: float) -> Callable:
    """``pre_run`` hook: every device advertises and scans periodically."""

    def pre_run(context, devices) -> None:
        medium, sim = context.medium, context.sim
        for device_id in devices:
            endpoint = medium.endpoint(device_id)
            endpoint.advertising = True
            endpoint.advertisement.setdefault("storm", 1)

            def tick(did: str = device_id) -> None:
                if medium.endpoint(did).powered_on:
                    medium.discover(did, lambda peers: None)

            sim.every(scan_period_s, tick, name=f"storm-{device_id}")

    return pre_run


def run(workload: Workload, seed: int, smoke: bool):
    """Call the workload's public entry point; returns its result object.

    Imports the simulator lazily so the benchmark runner itself never
    loads it (only the per-run child processes do).
    """
    from repro.mobility.space import Arena

    kwargs = workload.kwargs(seed, smoke)
    arena_m = kwargs.pop("arena_m")
    kwargs["arena"] = Arena(arena_m, arena_m)
    if workload.entry == "shard":
        from repro.shard import run_crowd_scenario_sharded

        return run_crowd_scenario_sharded(relay_fraction=0.2, **kwargs)
    from repro.scenarios import run_crowd_scenario
    from repro.workload.apps import STANDARD_APP

    period = kwargs.pop("heartbeat_period_s", None)
    if period is not None:
        kwargs["app"] = dataclasses.replace(
            STANDARD_APP, heartbeat_period_s=period
        )
    if workload.storm_scan_period_s is not None:
        kwargs["pre_run"] = storm_hook(workload.storm_scan_period_s)
    return run_crowd_scenario(relay_fraction=0.2, **kwargs)
