"""Unit tests for the Message Scheduler (Algorithm 1)."""

import pytest

from repro.core.scheduler import CollectedBeat, MessageScheduler, SchedulerConfig
from repro.workload.messages import PeriodicMessage

T = 270.0


def beat(created, expiry=T, device="ue-0", size=54):
    return PeriodicMessage(
        app="standard",
        origin_device=device,
        size_bytes=size,
        created_at_s=created,
        period_s=T,
        expiry_s=expiry,
    )


class SchedulerHarness:
    """Records every flush the scheduler performs."""

    def __init__(self, sim, capacity=10, guard=3.0):
        self.flushes = []
        self.scheduler = MessageScheduler(
            sim,
            relay_period_s=T,
            on_flush=lambda own, collected, reason: self.flushes.append(
                (sim.now, own, list(collected), reason)
            ),
            config=SchedulerConfig(capacity=capacity, uplink_guard_s=guard),
        )


@pytest.fixture
def harness(sim):
    return SchedulerHarness(sim)


class TestPeriodLifecycle:
    def test_not_accepting_before_first_period(self, sim, harness):
        assert not harness.scheduler.accepting
        collected = CollectedBeat(beat(0.0), 0.0, "ue-0")
        assert harness.scheduler.offer(collected) is False
        assert harness.scheduler.beats_rejected == 1

    def test_own_beat_opens_period(self, sim, harness):
        harness.scheduler.begin_period(beat(0.0, device="relay"))
        assert harness.scheduler.accepting
        assert harness.scheduler.capacity_remaining == 10

    def test_flush_at_period_end_minus_guard(self, sim, harness):
        """Constraint t <= T: the own beat is delayed at most one period,
        minus the uplink guard so it still lands in time."""
        harness.scheduler.begin_period(beat(0.0, device="relay"))
        sim.run_until(1000.0)
        assert len(harness.flushes) == 1
        time, own, collected, reason = harness.flushes[0]
        assert time == pytest.approx(T - 3.0)
        assert own.origin_device == "relay"
        assert collected == []
        assert reason == "period"

    def test_not_accepting_after_flush_until_next_period(self, sim, harness):
        harness.scheduler.begin_period(beat(0.0, device="relay"))
        sim.run_until(T - 1.0)  # flushed at T-3
        assert not harness.scheduler.accepting
        assert harness.scheduler.offer(CollectedBeat(beat(sim.now), sim.now, "u")) is False
        harness.scheduler.begin_period(beat(T, device="relay"))
        assert harness.scheduler.accepting

    def test_rollover_flushes_leftovers_defensively(self, sim, harness):
        harness.scheduler.begin_period(beat(0.0, device="relay"))
        # begin a new period before the timer fired (should not happen in
        # normal operation, but must not lose the pending own beat)
        harness.scheduler.begin_period(beat(0.0, device="relay"))
        assert len(harness.flushes) == 1
        assert harness.flushes[0][3] == "period rollover"


class TestCapacityConstraint:
    def test_k_equals_m_sends_now(self, sim):
        harness = SchedulerHarness(sim, capacity=3)
        harness.scheduler.begin_period(beat(0.0, device="relay"))
        sim.run_until(10.0)
        for i in range(3):
            accepted = harness.scheduler.offer(
                CollectedBeat(beat(10.0, device=f"ue-{i}"), 10.0, f"ue-{i}")
            )
            assert accepted
        assert len(harness.flushes) == 1
        assert harness.flushes[0][3] == "capacity"
        assert len(harness.flushes[0][2]) == 3

    def test_beat_finding_full_buffer_is_rejected_and_triggers_send(self, sim):
        harness = SchedulerHarness(sim, capacity=2)
        harness.scheduler.begin_period(beat(0.0, device="relay"))
        sim.run_until(5.0)
        assert harness.scheduler.offer(CollectedBeat(beat(5.0), 5.0, "a"))
        # capacity reached on the second offer → immediate flush
        assert harness.scheduler.offer(CollectedBeat(beat(5.0), 5.0, "b"))
        assert len(harness.flushes) == 1

    def test_capacity_remaining_decrements(self, sim):
        harness = SchedulerHarness(sim, capacity=5)
        harness.scheduler.begin_period(beat(0.0, device="relay"))
        sim.run_until(1.0)
        harness.scheduler.offer(CollectedBeat(beat(1.0), 1.0, "a"))
        assert harness.scheduler.capacity_remaining == 4
        assert harness.scheduler.pending_count == 1


class TestExpirationConstraint:
    def test_flush_before_collected_beat_expires(self, sim, harness):
        """Constraint t - t_k < T_k: a short-expiry beat pulls the send in."""
        harness.scheduler.begin_period(beat(0.0, device="relay"))
        sim.run_until(10.0)
        urgent = beat(10.0, expiry=30.0)  # deadline at t=40
        harness.scheduler.offer(CollectedBeat(urgent, 10.0, "ue-0"))
        sim.run_until(1000.0)
        time, __, collected, reason = harness.flushes[0]
        assert time == pytest.approx(40.0 - 3.0)  # deadline minus guard
        assert reason == "expiration"
        assert len(collected) == 1

    def test_stale_beat_rejected_outright(self, sim, harness):
        harness.scheduler.begin_period(beat(0.0, device="relay"))
        sim.run_until(100.0)
        stale = beat(0.0, expiry=101.0)  # deadline t=101, guard makes it late
        assert harness.scheduler.offer(CollectedBeat(stale, 100.0, "u")) is False

    def test_earliest_deadline_governs(self, sim, harness):
        harness.scheduler.begin_period(beat(0.0, device="relay"))
        sim.run_until(10.0)
        harness.scheduler.offer(CollectedBeat(beat(10.0, expiry=200.0), 10.0, "a"))
        harness.scheduler.offer(CollectedBeat(beat(10.0, expiry=50.0), 10.0, "b"))
        sim.run_until(1000.0)
        assert harness.flushes[0][0] == pytest.approx(60.0 - 3.0)

    def test_own_beat_expiry_caps_period(self, sim, harness):
        short_own = beat(0.0, expiry=100.0, device="relay")
        harness.scheduler.begin_period(short_own)
        sim.run_until(1000.0)
        assert harness.flushes[0][0] == pytest.approx(97.0)

    def test_expiry_cap_uses_absolute_deadline(self, sim, harness):
        """Regression: the cap re-anchored `expiry_s` at `sim.now`, so an
        own beat created before `begin_period` got its already-consumed
        budget back and flushed after the real deadline (created at 0 with
        100 s expiry, period opened at 50 → flush was at 147, not 97)."""
        sim.run_until(50.0)
        harness.scheduler.begin_period(beat(0.0, expiry=100.0, device="relay"))
        sim.run_until(1000.0)
        assert harness.flushes[0][0] == pytest.approx(97.0)

    def test_expiry_cap_never_schedules_in_the_past(self, sim, harness):
        """An own beat whose guarded deadline already passed flushes
        immediately rather than at a negative delay."""
        sim.run_until(99.0)
        harness.scheduler.begin_period(beat(0.0, expiry=100.0, device="relay"))
        sim.run_until(1000.0)
        assert harness.flushes[0][0] == pytest.approx(99.0)


class TestNoBeatIsEverLate:
    def test_every_flushed_beat_meets_guarded_deadline(self, sim):
        """Scheduler invariant: flush time <= deadline - guard, all beats."""
        harness = SchedulerHarness(sim, capacity=8)
        harness.scheduler.begin_period(beat(0.0, device="relay"))
        arrivals = [(20.0, 250.0), (50.0, 90.0), (80.0, 400.0), (120.0, 60.0)]
        for arrive, expiry in arrivals:
            sim.run_until(arrive)
            harness.scheduler.offer(
                CollectedBeat(beat(arrive, expiry=expiry), arrive, "u")
            )
        sim.run_until(2000.0)
        for time, own, collected, __ in harness.flushes:
            if own is not None:
                assert time <= own.deadline_s - 3.0 + 1e-9
            for item in collected:
                assert time <= item.message.deadline_s - 3.0 + 1e-9


class TestForcedFlush:
    def test_flush_now_sends_pending(self, sim, harness):
        harness.scheduler.begin_period(beat(0.0, device="relay"))
        sim.run_until(10.0)
        harness.scheduler.offer(CollectedBeat(beat(10.0), 10.0, "u"))
        harness.scheduler.flush_now("shutdown")
        assert len(harness.flushes) == 1
        assert harness.flushes[0][3] == "shutdown"

    def test_flush_now_with_nothing_pending_is_noop(self, sim, harness):
        harness.scheduler.flush_now()
        assert harness.flushes == []

    def test_no_double_flush_after_forced(self, sim, harness):
        harness.scheduler.begin_period(beat(0.0, device="relay"))
        harness.scheduler.flush_now("shutdown")
        sim.run_until(1000.0)
        assert len(harness.flushes) == 1


class TestStatistics:
    def test_flush_records_and_counters(self, sim, harness):
        harness.scheduler.begin_period(beat(0.0, device="relay"))
        sim.run_until(5.0)
        harness.scheduler.offer(CollectedBeat(beat(5.0), 5.0, "a"))
        sim.run_until(1000.0)
        assert harness.scheduler.beats_accepted == 1
        record = harness.scheduler.flushes[0]
        assert record.collected == 1
        assert record.total_bytes == 108  # own 54 + collected 54

    def test_config_validation(self, sim):
        with pytest.raises(ValueError):
            SchedulerConfig(capacity=0)
        with pytest.raises(ValueError):
            SchedulerConfig(uplink_guard_s=-1.0)
        with pytest.raises(ValueError):
            MessageScheduler(sim, 0.0, lambda *a: None)


class TestTimerCoalescing:
    """Re-arm requests with an unchanged binding deadline keep the timer."""

    def test_identical_deadline_rearm_is_skipped(self, sim, harness):
        harness.scheduler.begin_period(beat(0.0, device="relay"))
        assert harness.scheduler.offer(CollectedBeat(beat(0.0), 0.0, "ue-1"))
        skipped = harness.scheduler.rearms_skipped
        # same expiry -> same send-by -> the armed wakeup already fits
        assert harness.scheduler.offer(CollectedBeat(beat(0.0), 0.0, "ue-2"))
        assert harness.scheduler.rearms_skipped == skipped + 1
        sim.run_until(1000.0)
        # the kept timer still flushes once with both collected beats
        # aboard; it keeps its earlier seq, so same-instant order (and
        # hence run outputs) differs from a cancel + re-push
        assert len(harness.flushes) == 1
        assert len(harness.flushes[0][2]) == 2

    def test_tighter_deadline_still_rearms(self, sim, harness):
        harness.scheduler.begin_period(beat(0.0, device="relay"))
        harness.scheduler.offer(CollectedBeat(beat(0.0), 0.0, "ue-1"))
        skipped = harness.scheduler.rearms_skipped
        harness.scheduler.offer(
            CollectedBeat(beat(0.0, expiry=50.0), 0.0, "ue-2")
        )
        assert harness.scheduler.rearms_skipped == skipped  # real re-arm
        sim.run_until(1000.0)
        assert harness.flushes[0][0] < T - 3.0  # the tighter send-by won
