"""City-scale gates on the cell-sharded kernel.

Two crowds, both too large for the tier-1 suite (about 1 and 10 minutes
on a 2-core host):

- **5000 devices, 2 shards** — the serial and process backends must
  merge to byte-identical metrics (the sharded kernel's determinism
  contract at a scale with real handover and ghost traffic).
- **20000 devices, 4 shards** — column bands vs load-balanced tiles on a
  hotspot crowd. Both plans must deliver near-identical heartbeat counts,
  the tile plan must keep the device skew (max/mean devices per shard)
  within its documented bound, and it must shorten the critical path.

The critical path is the sum over sync windows of the slowest shard's
work: a **projection** of the wall time on a machine with one core per
shard, not wall time measured here. It is core-count independent, which
is why it, and not the measured wall, is gated.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_shard_gates.py``.
"""

from __future__ import annotations

import pytest

from repro.mobility.space import Arena
from repro.shard import run_crowd_scenario_sharded

#: Allowed relative bands-vs-tiles delivery difference. Shard borders
#: restrict D2D matching, so a few horizon-edge beats legitimately ride
#: the direct uplink under one plan and a relay buffer under the other;
#: anything beyond half a percent means the partition changed simulation
#: outcomes for real.
DELIVERY_TOLERANCE = 0.005

#: Documented max/mean devices-per-shard bound of the tile planner.
TILES_MAX_SKEW = 1.25

#: Floor on the bands/tiles critical-path ratio (projected speedup of
#: tiles over bands with one core per shard).
MIN_CRITICAL_PATH_SPEEDUP = 1.3


def _storm_crowd(**overrides):
    params = dict(
        relay_fraction=0.2,
        hotspots=12,
        hotspot_spread_m=60.0,
        mobile_fraction=0.1,
        sync_window_s=10.0,
        storm_scan_period_s=10.0,
    )
    params.update(overrides)
    return run_crowd_scenario_sharded(**params)


def _sharded_5000(backend):
    return _storm_crowd(
        n_devices=5000, duration_s=90.0, arena=Arena(1200.0, 1200.0),
        seed=0, shards=2, backend=backend,
    )


def _balanced_20000(plan):
    return _storm_crowd(
        n_devices=20_000, duration_s=60.0, arena=Arena(2400.0, 2400.0),
        # seed 2, not 0: the 12-hotspot draw must land unevenly across
        # the column bands or the comparison shows nothing
        seed=2, shards=4, cells_x=10, cells_y=4, shard_plan=plan,
    )


@pytest.fixture(scope="module")
def plans():
    return {plan: _balanced_20000(plan) for plan in ("bands", "tiles")}


def test_serial_and_process_backends_merge_identically():
    serial = _sharded_5000("serial")
    process = _sharded_5000("process")
    assert (
        process.metrics.to_comparable_dict()
        == serial.metrics.to_comparable_dict()
    )


def test_bands_and_tiles_deliver_alike(plans):
    bands = plans["bands"].metrics.delivery
    tiles = plans["tiles"].metrics.delivery
    rel_diff = max(
        abs(bands.received - tiles.received) / max(1, bands.received),
        abs(bands.on_time - tiles.on_time) / max(1, bands.on_time),
    )
    assert rel_diff <= DELIVERY_TOLERANCE, rel_diff


def test_tiles_device_skew_within_bound(plans):
    skew = plans["tiles"].device_skew
    assert skew <= TILES_MAX_SKEW, skew


def test_tiles_shorten_the_projected_critical_path(plans):
    # projection for one core per shard, not measured wall time
    projected_speedup = (
        plans["bands"].critical_path_s / plans["tiles"].critical_path_s
    )
    assert projected_speedup >= MIN_CRITICAL_PATH_SPEEDUP, projected_speedup
