"""Unit tests for per-device energy accounting."""

import pytest

from repro.energy.battery import Battery
from repro.energy.model import CELLULAR_PHASES, D2D_PHASES, EnergyModel, EnergyPhase


class TestCharging:
    def test_total_accumulates(self, energy):
        energy.charge(EnergyPhase.CELLULAR_TX, 10.0)
        energy.charge(EnergyPhase.CELLULAR_TX, 5.0)
        assert energy.total_uah == pytest.approx(15.0)

    def test_phase_breakdown(self, energy):
        energy.charge(EnergyPhase.D2D_FORWARD, 7.0)
        energy.charge(EnergyPhase.CELLULAR_TAIL, 3.0)
        assert energy.phase_uah(EnergyPhase.D2D_FORWARD) == pytest.approx(7.0)
        assert energy.phase_uah(EnergyPhase.CELLULAR_TAIL) == pytest.approx(3.0)
        assert energy.phase_uah(EnergyPhase.IDLE) == 0.0

    def test_negative_charge_rejected(self, energy):
        with pytest.raises(ValueError):
            energy.charge(EnergyPhase.OTHER, -1.0)

    def test_zero_charge_is_noop(self, energy):
        energy.charge(EnergyPhase.OTHER, 0.0)
        assert energy.total_uah == 0.0

    def test_d2d_and_cellular_aggregates(self, energy):
        energy.charge(EnergyPhase.D2D_DISCOVERY, 1.0)
        energy.charge(EnergyPhase.D2D_FORWARD, 2.0)
        energy.charge(EnergyPhase.CELLULAR_SETUP, 4.0)
        energy.charge(EnergyPhase.IDLE, 8.0)
        assert energy.d2d_uah == pytest.approx(3.0)
        assert energy.cellular_uah == pytest.approx(4.0)
        assert energy.total_uah == pytest.approx(15.0)

    def test_phase_partitions_are_disjoint(self):
        assert not (D2D_PHASES & CELLULAR_PHASES)

    def test_breakdown_contains_every_phase(self, energy):
        breakdown = energy.breakdown()
        assert set(breakdown) == {phase.value for phase in EnergyPhase}

    def test_reset_zeroes_counters(self, energy):
        energy.charge(EnergyPhase.OTHER, 5.0)
        energy.reset()
        assert energy.total_uah == 0.0


class TestHooksAndBattery:
    def test_on_charge_hook_receives_event(self):
        seen = []
        model = EnergyModel(on_charge=lambda t, p, u, d: seen.append((t, p, u, d)))
        model.charge(EnergyPhase.D2D_FORWARD, 2.5, time_s=10.0, duration_s=0.4)
        assert seen == [(10.0, EnergyPhase.D2D_FORWARD, 2.5, 0.4)]

    def test_battery_is_drained(self):
        battery = Battery(capacity_mah=1.0)
        model = EnergyModel(battery=battery)
        model.charge(EnergyPhase.OTHER, 500.0)  # 0.5 mAh
        assert battery.remaining_mah == pytest.approx(0.5)

    def test_log_kept_only_when_enabled(self, energy):
        energy.charge(EnergyPhase.OTHER, 1.0, time_s=1.0)
        assert energy.log() == []
        energy.keep_log = True
        energy.charge(EnergyPhase.OTHER, 2.0, time_s=2.0)
        assert energy.log() == [(2.0, EnergyPhase.OTHER, 2.0)]

    def test_snapshot_is_a_copy(self, energy):
        energy.charge(EnergyPhase.OTHER, 1.0)
        snap = energy.snapshot()
        snap[EnergyPhase.OTHER] = 999.0
        assert energy.phase_uah(EnergyPhase.OTHER) == pytest.approx(1.0)
