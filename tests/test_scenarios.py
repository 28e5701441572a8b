"""Tests for the canned scenarios (the bench workhorses)."""

import dataclasses
import pickle

import pytest

from repro.scenarios import (
    CrowdSpec,
    build_network,
    run_crowd_scenario,
    run_relay_scenario,
)
from repro.shard import run_crowd_scenario_sharded
from repro.workload.apps import STANDARD_APP

T = STANDARD_APP.heartbeat_period_s


class TestBuildNetwork:
    def test_wiring_complete(self):
        context = build_network(seed=1)
        assert context.medium is not None
        assert context.basestation.ledger is context.ledger

    def test_no_d2d_for_baseline(self):
        context = build_network(technology=None)
        assert context.medium is None


class TestRelayScenario:
    def test_d2d_mode_aggregates(self):
        result = run_relay_scenario(n_ues=1, periods=3, mode="d2d")
        assert result.framework is not None
        assert result.framework.total_aggregated_uplinks() == 3
        assert result.on_time_fraction() == 1.0
        assert len(result.context.server.records) == 6  # 3 own + 3 forwarded

    def test_original_mode_sends_individually(self):
        result = run_relay_scenario(n_ues=1, periods=3, mode="original")
        assert result.original is not None
        assert result.original.total_sends == 6
        assert result.on_time_fraction() == 1.0

    def test_equal_beat_counts_across_modes(self):
        """Both modes must deliver the same workload — else comparisons lie."""
        d2d = run_relay_scenario(n_ues=2, periods=4, mode="d2d")
        base = run_relay_scenario(n_ues=2, periods=4, mode="original")
        assert len(d2d.context.server.records) == len(base.context.server.records)

    def test_signaling_halved_with_one_ue(self):
        """The paper's headline: >50% signaling reduction (Fig. 15)."""
        d2d = run_relay_scenario(n_ues=1, periods=5, mode="d2d")
        base = run_relay_scenario(n_ues=1, periods=5, mode="original")
        assert d2d.total_l3() <= base.total_l3() * 0.5

    def test_ue_energy_saving_massive(self):
        d2d = run_relay_scenario(n_ues=1, periods=7, mode="d2d")
        base = run_relay_scenario(n_ues=1, periods=7, mode="original")
        assert d2d.ue_energy_uah() < base.ue_energy_uah() * 0.5

    def test_system_energy_saving_grows_with_periods(self):
        savings = []
        for periods in (1, 4, 7):
            d2d = run_relay_scenario(n_ues=1, periods=periods, mode="d2d")
            base = run_relay_scenario(n_ues=1, periods=periods, mode="original")
            savings.append(1 - d2d.system_energy_uah() / base.system_energy_uah())
        assert savings[0] < savings[1] < savings[2]
        assert abs(savings[0]) < 0.1  # ≈ break-even at one transmission

    def test_heartbeat_bytes_override(self):
        result = run_relay_scenario(n_ues=1, periods=2, heartbeat_bytes=108)
        assert result.app.heartbeat_bytes == 108

    def test_deterministic_under_seed(self):
        a = run_relay_scenario(n_ues=2, periods=3, seed=5)
        b = run_relay_scenario(n_ues=2, periods=3, seed=5)
        assert a.system_energy_uah() == b.system_energy_uah()
        assert a.total_l3() == b.total_l3()

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            run_relay_scenario(n_ues=-1)
        with pytest.raises(ValueError):
            run_relay_scenario(periods=0)
        with pytest.raises(ValueError):
            run_relay_scenario(mode="hybrid")

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError, match="distance_m"):
            run_relay_scenario(distance_m=-1.0)
        assert run_relay_scenario(distance_m=0.0, periods=1).total_l3() > 0

    def test_custom_ue_phases(self):
        result = run_relay_scenario(
            n_ues=2, periods=2, ue_phases=[0.4, 0.6], mode="d2d"
        )
        assert result.framework.total_beats_forwarded() == 4

    def test_zero_ues_relay_only(self):
        result = run_relay_scenario(n_ues=0, periods=2, mode="d2d")
        assert result.framework.total_aggregated_uplinks() == 2
        assert result.ue_energy_uah() == 0.0


class TestCrowdScenario:
    def test_crowd_runs_and_delivers(self):
        result = run_crowd_scenario(
            n_devices=12, relay_fraction=0.25, duration_s=600.0, seed=3
        )
        assert result.metrics.delivery.received > 0
        assert result.on_time_fraction() == 1.0
        assert len(result.relay_ids) == 3
        assert len(result.ue_ids) == 9

    def test_original_crowd(self):
        result = run_crowd_scenario(
            n_devices=12, relay_fraction=0.25, duration_s=600.0, mode="original",
            seed=3,
        )
        assert result.original is not None
        assert result.relay_ids == []

    def test_crowd_cuts_signaling(self):
        d2d = run_crowd_scenario(n_devices=16, relay_fraction=0.25,
                                 duration_s=600.0, seed=4)
        base = run_crowd_scenario(n_devices=16, relay_fraction=0.25,
                                  duration_s=600.0, mode="original", seed=4)
        assert d2d.total_l3() < base.total_l3()

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            run_crowd_scenario(relay_fraction=1.5)
        with pytest.raises(ValueError):
            run_crowd_scenario(mode="x")


#: both crowd kernels, each fed the same keyword fields
CROWD_KERNELS = pytest.mark.parametrize(
    "run", [run_crowd_scenario, run_crowd_scenario_sharded],
    ids=["unsharded", "sharded"],
)


class TestCrowdSpec:
    """One spec describes a crowd run on either kernel."""

    @CROWD_KERNELS
    def test_negative_drain_fails_before_the_run(self, run):
        # it used to raise SimulationError only after the whole run
        with pytest.raises(ValueError, match="drain_s must be non-negative"):
            run(n_devices=12, duration_s=60.0, drain_s=-4.0)

    @CROWD_KERNELS
    def test_negative_hotspot_spread_is_rejected(self, run):
        # it used to be accepted without a word
        with pytest.raises(ValueError, match="hotspot_spread_m"):
            run(n_devices=12, duration_s=60.0, hotspot_spread_m=-1.0)

    def test_spec_and_fields_give_one_run(self):
        spec = CrowdSpec(n_devices=12, relay_fraction=0.25, duration_s=300.0)
        by_spec = run_crowd_scenario(dataclasses.replace(spec, seed=3))
        by_fields = run_crowd_scenario(spec, seed=3)
        assert (
            by_spec.metrics.to_comparable_dict()
            == by_fields.metrics.to_comparable_dict()
        )

    def test_spec_pickles(self):
        spec = CrowdSpec(n_devices=12, chaos="mild", selection_policy="rate")
        assert pickle.loads(pickle.dumps(spec)) == spec
