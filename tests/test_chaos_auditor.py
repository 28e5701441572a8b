"""Tests for the runtime delivery-safety auditor.

Two families:

- clean runs are audited OK (the auditor never cries wolf);
- rigged protocol bugs are each caught as the right violation kind — the
  auditor actually detects sabotage, it is not a rubber stamp.

Also carries the pre-fix regression for the mid-drain link-death crash in
``UEAgent._forward`` that the chaos engine's link gate uncovered.
"""

import dataclasses
import types

import pytest

from repro.cellular.basestation import BaseStation
from repro.cellular.signaling import SignalingLedger
from repro.core.framework import HeartbeatRelayFramework
from repro.core.scheduler import CollectedBeat
from repro.d2d.base import D2DMedium
from repro.d2d.wifi_direct import WIFI_DIRECT
from repro.device import Role, Smartphone
from repro.faults.auditor import InvariantAuditor
from repro.mobility.models import StaticMobility
from repro.mobility.space import Arena
from repro.scenarios import run_crowd_scenario, run_relay_scenario
from repro.sim.engine import Simulator
from repro.workload.apps import STANDARD_APP
from repro.workload.messages import PeriodicMessage
from repro.workload.server import IMServer

T = STANDARD_APP.heartbeat_period_s


def build_rig(n_ues=1, seed=0):
    sim = Simulator(seed=seed)
    ledger = SignalingLedger()
    basestation = BaseStation(sim, ledger=ledger)
    server = IMServer(sim)
    basestation.attach_sink(server.uplink_sink)
    medium = D2DMedium(sim, WIFI_DIRECT)
    framework = HeartbeatRelayFramework([], app=STANDARD_APP)
    devices = {}
    relay = Smartphone(sim, "relay-0", mobility=StaticMobility((0.0, 0.0)),
                       role=Role.RELAY, ledger=ledger, basestation=basestation,
                       d2d_medium=medium)
    devices[relay.device_id] = relay
    framework.add_device(relay, phase_fraction=0.0)
    for i in range(n_ues):
        ue = Smartphone(sim, f"ue-{i}", mobility=StaticMobility((1.0, i)),
                        role=Role.UE, ledger=ledger, basestation=basestation,
                        d2d_medium=medium)
        devices[ue.device_id] = ue
        framework.add_device(ue, phase_fraction=0.5)
    return sim, medium, server, framework, devices


def make_beat(created=0.0, expiry=270.0, origin="ue-0"):
    return PeriodicMessage(
        app="standard", origin_device=origin, size_bytes=54,
        created_at_s=created, period_s=270.0, expiry_s=expiry,
    )


class TestCleanRuns:
    def test_baseline_pair_audits_ok(self):
        result = run_relay_scenario(n_ues=2, periods=3, seed=0, audit=True)
        report = result.audit_report
        assert report.ok, report.summary()
        assert report.beats_adjudicated > 0
        assert report.beats_on_time == report.beats_adjudicated
        assert result.deadline_safe_fraction() == 1.0

    def test_original_mode_audits_ok(self):
        result = run_relay_scenario(
            n_ues=2, periods=3, seed=0, mode="original", audit=True
        )
        assert result.audit_report.ok, result.audit_report.summary()

    def test_finalize_is_idempotent(self):
        result = run_relay_scenario(n_ues=1, periods=2, seed=0, audit=True)
        report = result.audit_report
        adjudicated = report.beats_adjudicated
        # _fault_metrics already finalized; a second finalize must not
        # double-count or re-adjudicate
        sim_horizon = report.horizon_s
        assert report.finalized
        assert report.beats_adjudicated == adjudicated
        assert report.horizon_s == sim_horizon


class TestRiggedViolations:
    def test_undelivered_beat_detected(self):
        # sabotage: the relay silently drops every aggregated uplink and
        # the UE's cellular fallback is disabled — beats vanish.
        sim, medium, server, framework, devices = build_rig()
        auditor = InvariantAuditor(sim, server=server,
                                   rewards=framework.rewards)
        auditor.attach_framework(framework, devices)
        scheduler = framework.relays["relay-0"].scheduler
        scheduler.on_flush = lambda own, collected, reason: None
        agent = framework.ues["ue-0"]
        agent.feedback.on_fallback = lambda message: None
        sim.run_until(T + 60.0)
        report = auditor.finalize(T + 60.0)
        assert not report.ok
        assert report.violations_of("undelivered")

    def test_phantom_credit_detected(self):
        # sabotage: the relay books credit for beats the server never saw
        sim, medium, server, framework, devices = build_rig()
        auditor = InvariantAuditor(sim, server=server,
                                   rewards=framework.rewards)
        auditor.attach_framework(framework, devices)
        framework.rewards.credit_collection(0.0, "relay-0", beats=3)
        sim.run_until(5.0)
        assert auditor.report.violations_of("phantom-credit")

    def test_phantom_credit_settles_after_transport_slack(self):
        # honest credit: the uplink clears the air interface first, the
        # server sink runs a core latency later — no false positive.
        result = run_relay_scenario(n_ues=2, periods=3, seed=0, audit=True)
        assert not result.audit_report.violations_of("phantom-credit")

    def test_credit_in_flight_at_another_relays_check_is_not_phantom(self):
        # Regression: each relay's deferred check used to compare the
        # global credit total with the global relayed count, so another
        # relay's aggregate credited < CREDIT_SETTLE_S earlier and still
        # in the core network counted as phantom (two false positives in
        # this crowd, at 84.98 s and 89.56 s).
        result = run_crowd_scenario(
            n_devices=500, relay_fraction=0.2, duration_s=300.0,
            arena=Arena(250.0, 250.0), hotspots=12, seed=0,
            app=dataclasses.replace(STANDARD_APP, heartbeat_period_s=45.0),
            channel="sinr", selection_policy="rate", audit=True,
        )
        report = result.audit_report
        assert result.metrics.delivery.relayed > 0
        assert not report.violations_of("phantom-credit"), report.summary()

    def test_over_credited_relay_flagged_despite_surplus_elsewhere(self):
        # relay-0 relays four beats but is credited for two; a second
        # relay is credited two beats it never delivered. The global
        # totals balance (4 == 4), the second relay's books do not.
        sim, medium, server, framework, devices = build_rig()
        auditor = InvariantAuditor(sim, server=server,
                                   rewards=framework.rewards)
        auditor.attach_framework(framework, devices)
        for _ in range(4):
            server.receive(make_beat(), "relay-0")
        framework.rewards.credit_collection(0.0, "relay-0", beats=2)
        framework.rewards.credit_collection(0.0, "relay-1", beats=2)
        sim.run_until(5.0)
        flagged = auditor.report.violations_of("phantom-credit")
        assert [v.subject for v in flagged] == ["relay-1"]

    def test_over_credit_flagged_at_end_of_run(self):
        # a credit whose deferred check would land past the horizon is
        # still settled by finalize
        sim, medium, server, framework, devices = build_rig()
        auditor = InvariantAuditor(sim, server=server,
                                   rewards=framework.rewards)
        auditor.attach_framework(framework, devices)
        framework.rewards.credit_collection(0.0, "relay-0", beats=1)
        report = auditor.finalize(0.0)
        assert [v.subject for v in report.violations_of("phantom-credit")] == [
            "relay-0"
        ]

    def test_capacity_breach_detected(self):
        # sabotage: an admission path that ignores the capacity bound
        sim, medium, server, framework, devices = build_rig()
        scheduler = framework.relays["relay-0"].scheduler
        capacity = scheduler.config.capacity

        def leaky_offer(beat):
            scheduler._collected.append(beat)
            scheduler.beats_accepted += 1
            return True

        scheduler.offer = leaky_offer
        auditor = InvariantAuditor(sim, server=server)
        auditor.attach_framework(framework, devices)
        for i in range(capacity + 1):
            scheduler.offer(CollectedBeat(
                message=make_beat(expiry=10_000.0), arrived_at_s=0.0,
                from_device="ue-0",
            ))
        breaches = auditor.report.violations_of("capacity-exceeded")
        assert len(breaches) == 1
        assert f"M={capacity}" in breaches[0].detail

    def test_ack_and_fallback_needs_two_deliveries(self):
        sim = Simulator(seed=0)
        auditor = InvariantAuditor(sim)
        message = make_beat(expiry=100.0)
        auditor._observe_beat(message)
        record = auditor._beats[message.seq]
        record.acked = True
        record.fallback_fired = True
        record.on_time_deliveries = 1  # duplicate was silently collapsed
        report = auditor.finalize(1000.0)
        assert report.violations_of("ack-and-fallback")
        assert report.ack_and_fallback_beats == 1

    def test_deadline_miss_detected(self):
        sim = Simulator(seed=0)
        server = IMServer(sim)
        auditor = InvariantAuditor(sim, server=server)
        auditor.attach_server(server)
        message = make_beat(expiry=50.0)
        auditor._observe_beat(message)
        server.receive(message, via_device="ue-0", time_s=60.0)
        misses = auditor.report.violations_of("deadline-missed")
        assert len(misses) == 1
        assert misses[0].trace  # carries the event trace

    def test_deadline_miss_exempt_when_origin_was_down(self):
        sim, medium, server, framework, devices = build_rig()
        auditor = InvariantAuditor(sim, server=server)
        auditor.attach_framework(framework, devices)
        message = make_beat(expiry=50.0)
        auditor._observe_beat(message)
        devices["ue-0"].power_off()  # downtime overlaps the beat's window
        server.receive(message, via_device="ue-0", time_s=60.0)
        assert not auditor.report.violations_of("deadline-missed")

    def test_negative_energy_detected(self):
        sim, medium, server, framework, devices = build_rig()
        auditor = InvariantAuditor(sim, server=server)
        auditor.attach_framework(framework, devices)
        relay = devices["relay-0"]
        relay.battery = types.SimpleNamespace(remaining_mah=-0.5)
        relay.power_off()  # any audited transition re-checks the battery
        assert auditor.report.violations_of("negative-energy")


class TestForwardLinkDeathRegression:
    """Pre-fix failing case the chaos link gate uncovered.

    Draining a buffer of 2+ beats when the first send kills the link used
    to crash on ``assert self.connection is not None`` — the first send's
    synchronous link-loss cleanup nulled the connection before the second
    ``_forward`` ran. Post-fix, later beats go out via cellular.
    """

    def test_mid_drain_link_death_falls_back_to_cellular(self):
        sim, medium, server, framework, devices = build_rig()
        agent = framework.ues["ue-0"]
        sim.run_until(0.6 * T)  # first UE beat → search → connect
        assert agent.state.value == "connected"
        medium.link_gate = lambda a, b: False  # chaos-style link down
        now = sim.now
        first = make_beat(created=now, expiry=270.0)
        second = make_beat(created=now, expiry=270.0)
        agent._buffer_beat(first)
        agent._buffer_beat(second)
        before = agent.cellular_sends
        agent._drain_buffer()  # pre-fix: AssertionError on `second`
        # both drained beats went cellular (the link-loss cleanup may
        # also fall back earlier unacked forwards, hence >=)
        assert agent.cellular_sends >= before + 2
        assert agent.connection is None
