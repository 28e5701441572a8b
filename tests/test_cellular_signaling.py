"""Unit tests for layer-3 signaling taxonomy and ledger."""

import pytest

from repro.cellular.signaling import (
    Direction,
    L3MessageType,
    RECONFIG_PAYLOAD_STEP_BYTES,
    RELEASE_SEQUENCE,
    SETUP_SEQUENCE,
    SignalingLedger,
    reconfiguration_count,
)


class TestSequences:
    def test_setup_is_five_messages(self):
        assert len(SETUP_SEQUENCE) == 5

    def test_release_is_three_messages(self):
        assert len(RELEASE_SEQUENCE) == 3

    def test_cycle_is_eight_messages_matching_fig15_slope(self):
        """Fig. 15: ~8 layer-3 messages per heartbeat transmission."""
        assert len(SETUP_SEQUENCE) + len(RELEASE_SEQUENCE) == 8

    def test_setup_starts_with_connection_request_uplink(self):
        msg_type, direction = SETUP_SEQUENCE[0]
        assert msg_type == L3MessageType.RRC_CONNECTION_REQUEST
        assert direction == Direction.UPLINK


class TestReconfigurationCount:
    def test_small_payload_needs_none(self):
        assert reconfiguration_count(54) == 0
        assert reconfiguration_count(RECONFIG_PAYLOAD_STEP_BYTES - 1) == 0

    def test_one_step_payload_needs_one(self):
        assert reconfiguration_count(RECONFIG_PAYLOAD_STEP_BYTES) == 1

    def test_grows_with_payload(self):
        assert reconfiguration_count(3 * RECONFIG_PAYLOAD_STEP_BYTES + 10) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            reconfiguration_count(-1)

    def test_two_ue_aggregate_costs_more_than_one_ue(self):
        """The Fig. 15 effect: 3 beats + header crosses the step, 2 don't."""
        one_ue = 2 * 54 + 24
        two_ue = 3 * 54 + 24
        assert reconfiguration_count(one_ue) < reconfiguration_count(two_ue)


class TestLedger:
    def test_record_counts(self):
        ledger = SignalingLedger()
        ledger.record(1.0, "a", L3MessageType.RRC_CONNECTION_REQUEST, Direction.UPLINK)
        ledger.record(2.0, "a", L3MessageType.RRC_CONNECTION_SETUP, Direction.DOWNLINK)
        ledger.record(3.0, "b", L3MessageType.RRC_CONNECTION_REQUEST, Direction.UPLINK)
        assert ledger.total == 3
        assert len(ledger) == 3
        assert ledger.count_for("a") == 2
        assert ledger.count_for("b") == 1
        assert ledger.count_for("missing") == 0
        assert ledger.count_for_type(L3MessageType.RRC_CONNECTION_REQUEST) == 2

    def test_record_sequence(self):
        ledger = SignalingLedger()
        n = ledger.record_sequence(0.0, "a", SETUP_SEQUENCE)
        assert n == 5
        assert ledger.count_for("a") == 5

    def test_cycles(self):
        ledger = SignalingLedger()
        ledger.record_cycle("a")
        ledger.record_cycle("a")
        ledger.record_cycle("b")
        assert ledger.cycles_for("a") == 2
        assert ledger.total_cycles == 3

    def test_messages_filter_by_device(self):
        ledger = SignalingLedger()
        ledger.record(1.0, "a", L3MessageType.RRC_CONNECTION_REQUEST, Direction.UPLINK)
        ledger.record(2.0, "b", L3MessageType.RRC_CONNECTION_REQUEST, Direction.UPLINK)
        assert len(ledger.messages()) == 2
        assert [m.device_id for m in ledger.messages("a")] == ["a"]

    def test_rate_per_second(self):
        ledger = SignalingLedger()
        for t in (0.0, 1.0, 2.0, 3.0):
            ledger.record(t, "a", L3MessageType.RRC_CONNECTION_REQUEST, Direction.UPLINK)
        assert ledger.rate_per_second(0.0, 4.0) == pytest.approx(1.0)
        assert ledger.rate_per_second(0.0, 2.0) == pytest.approx(1.0)

    def test_rate_rejects_empty_window(self):
        with pytest.raises(ValueError):
            SignalingLedger().rate_per_second(1.0, 1.0)

    def test_rate_requires_kept_messages(self):
        ledger = SignalingLedger(keep_messages=False)
        ledger.record(0.0, "a", L3MessageType.RRC_CONNECTION_REQUEST, Direction.UPLINK)
        with pytest.raises(RuntimeError):
            ledger.rate_per_second(0.0, 1.0)

    def test_keep_messages_false_still_counts(self):
        ledger = SignalingLedger(keep_messages=False)
        ledger.record(0.0, "a", L3MessageType.RRC_CONNECTION_REQUEST, Direction.UPLINK)
        assert ledger.total == 1
        assert ledger.messages() == []

    def test_count_between_matches_a_scan(self):
        ledger = SignalingLedger()
        times = [0.0, 0.5, 0.5, 1.0, 2.0, 2.0, 2.0, 3.5, 5.0]
        for t in times:
            ledger.record(t, "a", L3MessageType.RRC_CONNECTION_REQUEST, Direction.UPLINK)
        # bounds on, between and around messages, including start > end
        edges = (-1.0, 0.0, 0.25, 0.5, 1.0, 2.0, 2.5, 3.5, 5.0, 6.0)
        for start in edges:
            for end in edges:
                expected = sum(1 for t in times if start <= t <= end)
                assert ledger.count_between(start, end) == expected, (start, end)

    def test_count_between_without_kept_messages_is_zero(self):
        ledger = SignalingLedger(keep_messages=False)
        ledger.record(1.0, "a", L3MessageType.RRC_CONNECTION_REQUEST, Direction.UPLINK)
        assert ledger.count_between(0.0, 2.0) == 0

    def test_by_device_mapping(self):
        ledger = SignalingLedger()
        ledger.record_sequence(0.0, "x", SETUP_SEQUENCE)
        assert ledger.by_device() == {"x": 5}
