"""Behaviour gates on the 500-device interference-aware crowd.

A dense crowd (500 devices, 250 m arena, 12 hotspots, 45 s heartbeats,
240 s) runs with ``channel="sinr"`` so concurrent transfers contend for
the shared resource blocks. Two properties are gated here:

- **contention** — every concurrent-transfer density bucket gets a lower
  mean granted rate than the interference-free (solo) bucket, and the run
  replays byte-identically from ``(scenario, seed)``;
- **channel-aware selection** — under 8 dB log-normal shadowing, ranking
  relays by the channel model's predicted rate (``rate``) grants a higher
  mean rate than ranking by RSSI-estimated distance (``distance``), the
  shadowed relay-selection setting of Zafaruddin et al.; both runs audit
  clean and the ``rate`` run replays byte-identically.
"""

import dataclasses

import pytest

from repro.mobility.space import Arena
from repro.scenarios import run_crowd_scenario
from repro.workload.apps import STANDARD_APP


def _crowd(**overrides):
    params = dict(
        n_devices=500,
        relay_fraction=0.2,
        duration_s=240.0,
        arena=Arena(250.0, 250.0),
        hotspots=12,
        seed=0,
        app=dataclasses.replace(STANDARD_APP, heartbeat_period_s=45.0),
        channel="sinr",
    )
    params.update(overrides)
    return run_crowd_scenario(**params)


def _shadowed(policy):
    return _crowd(
        shadowing_sigma_db=8.0, selection_policy=policy, audit=True
    )


@pytest.fixture(scope="module")
def rate_run():
    return _shadowed("rate")


class TestChannelContention:
    def test_rate_falls_with_density_and_the_run_replays(self):
        first = _crowd()
        assert (
            _crowd().metrics.to_comparable_dict()
            == first.metrics.to_comparable_dict()
        )
        density = first.metrics.channel["density"]
        solo = density["0"]["mean_rate_bps"]
        contended = [
            bucket["mean_rate_bps"] for k, bucket in density.items() if k != "0"
        ]
        assert contended
        assert all(rate < solo for rate in contended), (solo, contended)


class TestShadowedSelection:
    def test_rate_beats_distance(self, rate_run):
        distance_run = _shadowed("distance")
        rate_bps = rate_run.metrics.channel["mean_rate_bps"]
        distance_bps = distance_run.metrics.channel["mean_rate_bps"]
        assert rate_bps > distance_bps
        assert len(rate_run.audit_report.violations) == 0
        assert len(distance_run.audit_report.violations) == 0

    def test_rate_run_replays(self, rate_run):
        assert (
            _shadowed("rate").metrics.to_comparable_dict()
            == rate_run.metrics.to_comparable_dict()
        )
