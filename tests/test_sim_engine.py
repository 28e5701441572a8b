"""Unit tests for the discrete-event simulator driver."""

import pytest

from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_schedule_fires_at_relative_delay(self, sim):
        fired = []
        sim.schedule(5.0, lambda: fired.append(sim.now))
        sim.run_until(10.0)
        assert fired == [5.0]

    def test_schedule_at_fires_at_absolute_time(self, sim):
        fired = []
        sim.schedule_at(7.0, lambda: fired.append(sim.now))
        sim.run_until(10.0)
        assert fired == [7.0]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self, sim):
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(4.0, lambda: None)

    def test_cancel_prevents_firing(self, sim):
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(1))
        sim.cancel(event)
        sim.run_until(5.0)
        assert fired == []

    def test_cancel_none_is_safe(self, sim):
        sim.cancel(None)

    def test_events_fire_in_order_with_nested_scheduling(self, sim):
        order = []

        def outer():
            order.append("outer")
            sim.schedule(1.0, lambda: order.append("nested"))

        sim.schedule(1.0, outer)
        sim.schedule(3.0, lambda: order.append("later"))
        sim.run_until(10.0)
        assert order == ["outer", "nested", "later"]

    def test_args_passed_to_callback(self, sim):
        got = []
        sim.schedule(1.0, lambda a, b: got.append((a, b)), 1, 2)
        sim.run_until(2.0)
        assert got == [(1, 2)]


class TestRunUntil:
    def test_clock_lands_exactly_on_horizon(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run_until(100.0)
        assert sim.now == 100.0

    def test_event_at_horizon_fires(self, sim):
        fired = []
        sim.schedule(10.0, lambda: fired.append(1))
        sim.run_until(10.0)
        assert fired == [1]

    def test_event_beyond_horizon_does_not_fire(self, sim):
        fired = []
        sim.schedule(10.1, lambda: fired.append(1))
        sim.run_until(10.0)
        assert fired == []
        assert sim.pending == 1

    def test_resume_after_horizon(self, sim):
        fired = []
        sim.schedule(10.1, lambda: fired.append(sim.now))
        sim.run_until(10.0)
        sim.run_until(20.0)
        assert fired == [10.1]

    def test_horizon_before_now_rejected(self, sim):
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.run_until(4.0)

    def test_returns_events_fired(self, sim):
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        assert sim.run_until(3.0) == 3
        assert sim.run_until(10.0) == 2

    def test_max_events_guard(self, sim):
        def rearm():
            sim.schedule(0.0, rearm)

        sim.schedule(0.0, rearm)
        with pytest.raises(SimulationError):
            sim.run_until(1.0, max_events=100)

    def test_reentrancy_rejected(self, sim):
        def nested():
            sim.run_until(10.0)

        sim.schedule(1.0, nested)
        with pytest.raises(SimulationError):
            sim.run_until(5.0)

    def test_stop_halts_run(self, sim):
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run_until(10.0)
        assert fired == [1]
        # a stopped run leaves the clock at the stop point, not the horizon
        assert sim.now == 1.0


class TestDrainToHorizon:
    """A finite horizon past the last event drains the whole queue."""

    def test_drains_entire_queue_before_a_far_horizon(self, sim):
        fired = []
        sim.schedule(5.0, lambda: fired.append(sim.now))
        sim.schedule(5000.0, lambda: fired.append(sim.now))
        count = sim.run_until(10_000.0)
        assert count == 2
        assert fired == [5.0, 5000.0]
        assert sim.pending == 0

    def test_follows_nested_scheduling(self, sim):
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 3:
                sim.schedule(100.0, chain, depth + 1)

        sim.schedule(1.0, chain, 0)
        sim.run_until(10_000.0)
        assert fired == [0, 1, 2, 3]
        assert sim.pending == 0

    def test_max_events_guard(self, sim):
        def rearm():
            sim.schedule(1.0, rearm)

        sim.schedule(1.0, rearm)
        with pytest.raises(SimulationError):
            sim.run_until(10_000.0, max_events=50)

    def test_empty_queue_returns_zero(self, sim):
        assert sim.run_until(10_000.0) == 0


class TestTrace:
    def test_event_log_populated_when_tracing(self):
        sim = Simulator(seed=1, trace=True)
        sim.schedule(1.0, lambda: None, name="hello")
        sim.run_until(2.0)
        assert sim.event_log == [(1.0, "hello")]

    def test_event_log_empty_without_tracing(self, sim):
        sim.schedule(1.0, lambda: None, name="hello")
        sim.run_until(2.0)
        assert sim.event_log == []


class TestPeriodicProcess:
    def test_fires_every_period(self, sim):
        times = []
        sim.every(10.0, lambda: times.append(sim.now))
        sim.run_until(35.0)
        assert times == [10.0, 20.0, 30.0]

    def test_custom_start_after(self, sim):
        times = []
        sim.every(10.0, lambda: times.append(sim.now), start_after=0.0)
        sim.run_until(25.0)
        assert times == [0.0, 10.0, 20.0]

    def test_stop_halts_future_firings(self, sim):
        times = []
        process = sim.every(10.0, lambda: times.append(sim.now))
        sim.run_until(15.0)
        process.stop()
        sim.run_until(50.0)
        assert times == [10.0]
        assert process.stopped

    def test_stop_is_idempotent(self, sim):
        process = sim.every(10.0, lambda: None)
        process.stop()
        process.stop()

    def test_nonpositive_period_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.every(0.0, lambda: None)

    def test_stop_from_inside_callback(self, sim):
        times = []

        def tick():
            times.append(sim.now)
            if len(times) == 2:
                process.stop()

        process = sim.every(5.0, tick)
        sim.run_until(100.0)
        assert times == [5.0, 10.0]


class TestDeterminism:
    def test_same_seed_same_stream(self):
        def draws(seed):
            sim = Simulator(seed=seed)
            rng = sim.rng.get("test")
            return [rng.random() for _ in range(10)]

        assert draws(7) == draws(7)
        assert draws(7) != draws(8)
