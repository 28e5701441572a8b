"""The cellular fault domain: RAN state machine, rejection paths, replay.

Pins the tentpole contracts end to end:

- the :class:`BaseStation` RAN health machine (outage / brown-out /
  restore) and its admission control;
- the modem's two rejection paths — synchronous admission rejection
  (no RRC, no energy) and mid-flight loss when the cell dies during
  promotion/transmit;
- :class:`ChaosEvent` tie-order: events at identical timestamps keep
  their injection order via the explicit ``seq`` key (regression for
  the time_s-only sort ambiguity);
- the differential gate: seeded ``ran-outage`` and ``paging-storm``
  runs audit clean and replay byte-identically.
"""

import random

import pytest

from repro.cellular.basestation import BaseStation, RanState
from repro.cellular.modem import CellularModem
from repro.faults.chaos import ChaosEngine, ChaosEvent
from repro.faults.harness import run_ran_differential
from repro.scenarios import run_crowd_scenario, run_relay_scenario
from repro.sim.engine import Simulator


class TestRanStateMachine:
    def test_outage_restore_cycle_records_interval(self, sim, ledger):
        basestation = BaseStation(sim, ledger=ledger)
        assert basestation.ran_state is RanState.UP
        assert basestation.accepts_signaling()
        sim.schedule(10.0, basestation.outage)
        sim.schedule(25.0, basestation.restore)
        sim.run_until(30.0)
        assert basestation.ran_state is RanState.UP
        assert basestation.outage_intervals == [[10.0, 25.0]]
        assert basestation.outage_time_s == pytest.approx(15.0)
        assert basestation.outage_count == 1

    def test_brownout_degrades_but_stays_attachable(self, sim, ledger):
        basestation = BaseStation(sim, ledger=ledger)
        basestation.brownout(capacity_factor=0.5, extra_setup_s=2.0)
        assert basestation.ran_state is RanState.BROWNOUT
        assert basestation.accepts_signaling()
        assert basestation.extra_setup_delay_s() == 2.0
        basestation.restore()
        assert basestation.extra_setup_delay_s() == 0.0
        assert basestation.brownout_capacity_factor == 1.0

    def test_brownout_never_preempts_outage(self, sim, ledger):
        basestation = BaseStation(sim, ledger=ledger)
        basestation.outage()
        basestation.brownout(capacity_factor=0.5)
        assert basestation.ran_state is RanState.DOWN
        assert not basestation.accepts_signaling()

    def test_listeners_see_old_and_new_state(self, sim, ledger):
        basestation = BaseStation(sim, ledger=ledger)
        seen = []
        basestation.subscribe_ran(
            lambda time_s, old, new: seen.append((time_s, old, new))
        )
        sim.schedule(5.0, basestation.outage)
        sim.schedule(8.0, basestation.restore)
        sim.run_until(10.0)
        assert seen == [
            (5.0, RanState.UP, RanState.DOWN),
            (8.0, RanState.DOWN, RanState.UP),
        ]


class TestAdmissionControl:
    def test_up_always_admits(self, sim, ledger):
        basestation = BaseStation(sim, ledger=ledger)
        assert basestation.admit_uplink("dev") is None
        assert basestation.uplinks_rejected == 0

    def test_down_rejects_every_uplink(self, sim, ledger):
        basestation = BaseStation(sim, ledger=ledger)
        basestation.outage()
        assert basestation.admit_uplink("dev") == "ran-down"
        assert basestation.uplinks_rejected == 1
        assert basestation.rejections_by_cause == {"ran-down": 1}

    def test_brownout_rrc_reject_gate(self, sim, ledger):
        basestation = BaseStation(sim, ledger=ledger)
        basestation.brownout(capacity_factor=1.0)
        basestation.rrc_reject_gate = lambda device_id: True
        assert basestation.admit_uplink("dev") == "rrc-reject"
        assert basestation.rrc_rejections == 1

    def test_brownout_windowed_congestion(self, sim, ledger):
        basestation = BaseStation(
            sim, ledger=ledger, control_channel_capacity_msgs_per_s=2.0
        )
        basestation.brownout(capacity_factor=0.5)  # cap: 1 admit per window
        assert basestation.admit_uplink("a") is None
        assert basestation.admit_uplink("b") == "ran-congested"
        sim.schedule(2.0, lambda: None)
        sim.run_until(2.0)  # the admission window has slid past
        assert basestation.admit_uplink("c") is None


class TestModemRejectionPaths:
    def test_admission_rejection_is_synchronous_and_free(self, sim, ledger):
        """A rejected uplink spends no RRC signaling and no energy."""
        basestation = BaseStation(sim, ledger=ledger)
        basestation.outage()
        modem = CellularModem(sim, "dev", ledger=ledger, basestation=basestation)
        causes = []
        result = modem.send(54, on_rejected=lambda r: causes.append(r.reject_cause))
        assert result.rejected
        assert causes == ["ran-down"]
        sim.run_until(60.0)
        assert ledger.cycles_for("dev") == 0
        assert basestation.uplinks == 0

    def test_mid_flight_outage_rejects_after_admission(self, sim, ledger):
        """The cell dying during promotion loses the payload, accounted."""
        basestation = BaseStation(sim, ledger=ledger)
        modem = CellularModem(sim, "dev", ledger=ledger, basestation=basestation)
        causes = []
        result = modem.send(54, on_rejected=lambda r: causes.append(r.reject_cause))
        assert not result.rejected  # admitted while the cell was up
        sim.schedule(1.0, basestation.outage)  # delivery would land at 2.0
        sim.run_until(60.0)
        assert result.rejected
        assert not result.delivered
        assert causes == ["ran-down"]
        assert basestation.uplinks == 0


class TestChaosEventTieOrder:
    def test_identical_timestamps_keep_injection_order(self):
        """Regression: time_s-only sorting is ambiguous at shared instants."""
        engine = ChaosEngine("ran-outage", seed=0)
        engine.sim = Simulator(seed=0)  # clock pinned at 0.0
        for i in range(5):
            engine._record("bs-outage", f"cell-{i}")
        events = engine.report.events
        assert all(e.time_s == 0.0 for e in events)
        assert [e.seq for e in events] == [1, 2, 3, 4, 5]
        shuffled = list(events)
        random.Random(7).shuffle(shuffled)
        assert sorted(shuffled, key=lambda e: e.sort_key) == events

    def test_sort_key_orders_time_first_then_seq(self):
        early_late_seq = ChaosEvent(time_s=1.0, kind="a", target="x", seq=9)
        late_early_seq = ChaosEvent(time_s=2.0, kind="b", target="x", seq=1)
        assert early_late_seq.sort_key < late_early_seq.sort_key

    def test_ordered_events_survive_report_roundtrip(self):
        engine = ChaosEngine("ran-outage", seed=0)
        engine.sim = Simulator(seed=0)
        engine._record("bs-outage", "cell")
        engine._record("bs-restore", "cell")
        ordered = engine.report.ordered_events()
        assert [(e.kind, e.seq) for e in ordered] == [
            ("bs-outage", 1), ("bs-restore", 2),
        ]


class TestRanReplayDeterminism:
    def test_degraded_ran_replays_byte_identically(self):
        def run():
            return run_relay_scenario(
                n_ues=2, periods=4, seed=3,
                chaos="degraded-ran", chaos_seed=5,
            )

        first, second = run(), run()
        tuples = lambda r: [
            (e.time_s, e.seq, e.kind, e.target, e.detail)
            for e in r.chaos_report.events
        ]
        assert tuples(first) == tuples(second)
        assert (first.metrics.to_comparable_dict()
                == second.metrics.to_comparable_dict())
        assert (first.metrics.faults.to_dict()
                == second.metrics.faults.to_dict())


class TestLedgerTimeOrder:
    def test_audited_paging_storm_records_in_time_order(self):
        # Paging occupancy bisects the ledger by time, which is only
        # sound while every message is recorded at a non-decreasing time.
        result = run_crowd_scenario(
            n_devices=150, duration_s=900.0, chaos="paging-storm",
            chaos_seed=2, audit=True, seed=0,
        )
        assert result.metrics.faults.to_dict()["audit_violations"] == 0
        ledger, paging = result.context.ledger, result.context.paging
        times = [m.time_s for m in ledger.messages()]
        assert times and times == sorted(times)
        assert paging.attempts
        window = paging.config.window_s
        for attempt in paging.attempts:
            at = attempt.requested_at_s
            assert ledger.count_between(at - window, at) == sum(
                1 for t in times if at - window <= t <= at
            )


class TestRanDifferentialGate:
    @pytest.mark.parametrize("profile", ["ran-outage", "paging-storm"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_pair_scenario_passes(self, profile, seed):
        case = run_ran_differential(
            scenario="pair", profile=profile, seed=seed,
        )
        assert case.passed, case.summary()
        assert case.replay_identical
        assert case.chaos_violations == 0
        assert case.chaos_deadline_safe == 1.0

    def test_crowd_scenario_passes_under_paging_storm(self):
        case = run_ran_differential(
            scenario="crowd", profile="paging-storm", seed=1,
            n_devices=12, duration_s=900.0,
        )
        assert case.passed, case.summary()
        assert case.replay_identical
