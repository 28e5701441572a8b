"""Unit tests for the D2D medium: discovery, connection, transfer, breaks."""

import pytest

from repro.d2d.base import D2DEndpoint, D2DMedium, D2DTransferError, PeerInfo
from repro.d2d.wifi_direct import WIFI_DIRECT
from repro.energy.model import EnergyModel, EnergyPhase
from repro.energy.profiles import DEFAULT_PROFILE
from repro.mobility.models import LinearMobility, StaticMobility
from repro.mobility.space import distance_between
from repro.sim.engine import Simulator


def make_endpoint(device_id, position=(0.0, 0.0), advertising=False, role=None):
    endpoint = D2DEndpoint(
        device_id,
        StaticMobility(position),
        energy=EnergyModel(owner=device_id),
        advertisement={"role": role} if role else {},
    )
    endpoint.advertising = advertising
    return endpoint


@pytest.fixture
def medium(sim):
    return D2DMedium(sim, WIFI_DIRECT)


class TestRegistration:
    def test_register_and_lookup(self, medium):
        endpoint = make_endpoint("a")
        medium.register(endpoint)
        assert medium.endpoint("a") is endpoint

    def test_duplicate_rejected(self, medium):
        medium.register(make_endpoint("a"))
        with pytest.raises(ValueError):
            medium.register(make_endpoint("a"))

    def test_unknown_lookup_raises(self, medium):
        with pytest.raises(KeyError):
            medium.endpoint("ghost")

    def test_undeployed_technology_gated(self, sim):
        from repro.d2d.lte_direct import LTE_DIRECT

        with pytest.raises(ValueError):
            D2DMedium(sim, LTE_DIRECT)
        # explicit opt-in works
        D2DMedium(sim, LTE_DIRECT, allow_undeployed=True)


class TestDiscovery:
    def test_finds_advertising_peers_in_range(self, sim, medium):
        medium.register(make_endpoint("ue"))
        medium.register(make_endpoint("relay", (3.0, 0.0), advertising=True, role="relay"))
        found = []
        medium.discover("ue", found.extend)
        sim.run_until(10.0)
        assert [p.device_id for p in found] == ["relay"]
        assert found[0].advertisement["role"] == "relay"

    def test_non_advertising_peers_invisible(self, sim, medium):
        medium.register(make_endpoint("ue"))
        medium.register(make_endpoint("silent", (3.0, 0.0), advertising=False))
        found = []
        medium.discover("ue", found.extend)
        sim.run_until(10.0)
        assert found == []

    def test_out_of_range_peers_invisible(self, sim, medium):
        medium.register(make_endpoint("ue"))
        medium.register(
            make_endpoint("far", (WIFI_DIRECT.max_range_m + 10, 0.0), advertising=True)
        )
        found = []
        medium.discover("ue", found.extend)
        sim.run_until(10.0)
        assert found == []

    def test_discovery_takes_latency(self, sim, medium):
        medium.register(make_endpoint("ue"))
        done_at = []
        medium.discover("ue", lambda peers: done_at.append(sim.now))
        sim.run_until(10.0)
        assert done_at == [WIFI_DIRECT.discovery_latency_s]

    def test_discovery_energy_charged_to_requester_only(self, sim, medium):
        """A probe response is free; the responder's discovery-phase cost
        is deferred to connection time (find-phase participation)."""
        ue = make_endpoint("ue")
        relay = make_endpoint("relay", (3.0, 0.0), advertising=True)
        medium.register(ue)
        medium.register(relay)
        medium.discover("ue", lambda peers: None)
        sim.run_until(10.0)
        assert ue.energy.phase_uah(EnergyPhase.D2D_DISCOVERY) == pytest.approx(
            DEFAULT_PROFILE.ue_discovery_uah
        )
        assert relay.energy.phase_uah(EnergyPhase.D2D_DISCOVERY) == 0.0
        # after pairing, the relay has paid its Table III discovery charge
        medium.connect("ue", "relay", lambda conn: None)
        sim.run_until(20.0)
        assert relay.energy.phase_uah(EnergyPhase.D2D_DISCOVERY) == pytest.approx(
            DEFAULT_PROFILE.relay_discovery_uah
        )

    def test_third_party_scans_do_not_drain_relays(self, sim, medium):
        """A crowd of scanning UEs must not multiply-bill every relay in
        range — the artifact that motivated deferring the responder cost."""
        relay = make_endpoint("relay", (3.0, 0.0), advertising=True)
        medium.register(relay)
        for i in range(5):
            scanner = make_endpoint(f"scanner-{i}")
            medium.register(scanner)
            medium.discover(f"scanner-{i}", lambda peers: None)
        sim.run_until(30.0)
        assert relay.energy.total_uah == 0.0

    def test_peers_sorted_strongest_first(self, sim, medium):
        medium.register(make_endpoint("ue"))
        medium.register(make_endpoint("near", (1.0, 0.0), advertising=True))
        medium.register(make_endpoint("far", (15.0, 0.0), advertising=True))
        found = []
        medium.discover("ue", found.extend, rssi_noise=False)
        sim.run_until(10.0)
        assert [p.device_id for p in found] == ["near", "far"]

    def test_distance_estimate_exact_without_noise(self, sim, medium):
        medium.register(make_endpoint("ue"))
        medium.register(make_endpoint("relay", (4.0, 0.0), advertising=True))
        found = []
        medium.discover("ue", found.extend, rssi_noise=False)
        sim.run_until(10.0)
        assert found[0].estimated_distance_m == pytest.approx(4.0, rel=1e-9)

    def test_powered_off_requester_rejected(self, medium):
        endpoint = make_endpoint("ue")
        endpoint.powered_on = False
        medium.register(endpoint)
        with pytest.raises(D2DTransferError):
            medium.discover("ue", lambda peers: None)


class TestConnection:
    def _pair(self, sim, medium, distance=3.0):
        ue = make_endpoint("ue")
        relay = make_endpoint("relay", (distance, 0.0), advertising=True)
        medium.register(ue)
        medium.register(relay)
        result = []
        medium.connect("ue", "relay", result.append)
        sim.run_until(10.0)
        return ue, relay, result[0]

    def test_connect_succeeds_in_range(self, sim, medium):
        __, __, connection = self._pair(sim, medium)
        assert connection is not None and connection.alive
        assert medium.connections_established == 1

    def test_connect_energy_both_sides(self, sim, medium):
        ue, relay, __ = self._pair(sim, medium)
        assert ue.energy.phase_uah(EnergyPhase.D2D_CONNECTION) == pytest.approx(
            DEFAULT_PROFILE.ue_connection_uah
        )
        assert relay.energy.phase_uah(EnergyPhase.D2D_CONNECTION) == pytest.approx(
            DEFAULT_PROFILE.relay_connection_uah
        )

    def test_self_connect_rejected(self, sim, medium):
        medium.register(make_endpoint("narcissist"))
        with pytest.raises(D2DTransferError):
            medium.connect("narcissist", "narcissist", lambda c: None)

    def test_connect_fails_out_of_range(self, sim, medium):
        __, __, connection = self._pair(sim, medium, distance=WIFI_DIRECT.max_range_m + 5)
        assert connection is None
        assert medium.connections_failed == 1

    def test_connect_fails_if_responder_powers_off_mid_handshake(self, sim, medium):
        ue = make_endpoint("ue")
        relay = make_endpoint("relay", (2.0, 0.0), advertising=True)
        medium.register(ue)
        medium.register(relay)
        result = []
        medium.connect("ue", "relay", result.append)
        relay.powered_on = False
        sim.run_until(10.0)
        assert result == [None]

    def test_transfer_delivers_payload(self, sim, medium):
        ue, relay, connection = self._pair(sim, medium)
        inbox = []
        relay.on_message = lambda conn, sender, payload, size: inbox.append(
            (sender, payload, size)
        )
        outcomes = []
        connection.send("ue", 78, "beat", on_result=outcomes.append)
        sim.run_until(20.0)
        assert inbox == [("ue", "beat", 78)]
        assert outcomes == [True]
        assert connection.messages_delivered == 1
        assert connection.bytes_transferred == 78

    def test_transfer_energy_tx_rx_split(self, sim, medium):
        ue, relay, connection = self._pair(sim, medium, distance=1.0)
        connection.send("ue", 54, "beat")
        sim.run_until(20.0)
        assert ue.energy.phase_uah(EnergyPhase.D2D_FORWARD) == pytest.approx(
            DEFAULT_PROFILE.ue_forward_cost_uah(54, 1.0)
        )
        assert relay.energy.phase_uah(EnergyPhase.D2D_RECEIVE) == pytest.approx(
            DEFAULT_PROFILE.relay_receive_cost_uah(54)
        )

    def test_transfer_energy_scales_with_distance(self, sim):
        costs = []
        for distance in (1.0, 10.0):
            from repro.sim.engine import Simulator

            sim2 = Simulator(seed=1)
            medium2 = D2DMedium(sim2, WIFI_DIRECT)
            ue = make_endpoint("ue")
            relay = make_endpoint("relay", (distance, 0.0), advertising=True)
            medium2.register(ue)
            medium2.register(relay)
            holder = []
            medium2.connect("ue", "relay", holder.append)
            sim2.run_until(5.0)
            holder[0].send("ue", 54, "x")
            sim2.run_until(10.0)
            costs.append(ue.energy.phase_uah(EnergyPhase.D2D_FORWARD))
        assert costs[1] > costs[0] * 2

    def test_channel_mode_scales_base_charge_not_per_byte_slope(self, sim):
        # Channel-mode billing: airtime scales only the time-dependent
        # base cost; the per-byte component stays unscaled. Scaling the
        # full cost would compound two size-dependent factors (slope and
        # grant duration) into energy quadratic in payload size.
        from repro.channel.model import ChannelModel

        channel = ChannelModel()
        medium = D2DMedium(sim, WIFI_DIRECT, channel=channel)
        ue = make_endpoint("ue")
        relay = make_endpoint("relay", (1.0, 0.0), advertising=True)
        medium.register(ue)
        medium.register(relay)
        holder = []
        medium.connect("ue", "relay", holder.append)
        sim.run_until(5.0)
        size = 5000
        holder[0].send("ue", size, "x")
        duration = channel.config.overhead_s + channel.stats.sum_airtime_s
        scale = duration / DEFAULT_PROFILE.d2d_transfer_s
        tx_base = DEFAULT_PROFILE.ue_forward_cost_uah(0, 1.0)
        tx_full = DEFAULT_PROFILE.ue_forward_cost_uah(size, 1.0)
        expected = (tx_base * scale + (tx_full - tx_base)) * WIFI_DIRECT.tx_scale
        assert ue.energy.phase_uah(EnergyPhase.D2D_FORWARD) == pytest.approx(expected)

    def test_control_messages_use_ack_charge(self, sim, medium):
        ue, relay, connection = self._pair(sim, medium)
        connection.send("relay", 24, "ack", control=True)
        sim.run_until(20.0)
        assert relay.energy.phase_uah(EnergyPhase.D2D_ACK) == pytest.approx(
            DEFAULT_PROFILE.relay_ack_uah
        )
        assert ue.energy.phase_uah(EnergyPhase.D2D_ACK) == pytest.approx(
            DEFAULT_PROFILE.relay_ack_uah
        )

    def test_send_from_non_member_raises(self, sim, medium):
        __, __, connection = self._pair(sim, medium)
        with pytest.raises(D2DTransferError):
            connection.send("stranger", 10, "x")

    def test_close_notifies_both_sides(self, sim, medium):
        ue, relay, connection = self._pair(sim, medium)
        reasons = []
        ue.on_disconnect = lambda conn, reason: reasons.append(("ue", reason))
        relay.on_disconnect = lambda conn, reason: reasons.append(("relay", reason))
        connection.close("done")
        assert not connection.alive
        assert set(reasons) == {("ue", "done"), ("relay", "done")}

    def test_send_on_closed_connection_fails(self, sim, medium):
        __, __, connection = self._pair(sim, medium)
        connection.close()
        outcomes = []
        assert connection.send("ue", 10, "x", on_result=outcomes.append) is False
        assert outcomes == [False]


class TestMobilityBreaks:
    def test_link_breaks_when_peer_walks_away(self, sim, medium):
        ue = D2DEndpoint(
            "ue",
            LinearMobility((0.0, 0.0), (2.0, 0.0)),  # 2 m/s away
            energy=EnergyModel(owner="ue"),
        )
        relay = make_endpoint("relay", (0.0, 0.0), advertising=True)
        medium.register(ue)
        medium.register(relay)
        holder = []
        medium.connect("ue", "relay", holder.append)
        sim.run_until(5.0)
        connection = holder[0]
        assert connection.alive
        breaks = []
        ue.on_disconnect = lambda conn, reason: breaks.append((reason, sim.now))
        # after ~25 s the UE is past the 50 m Wi-Fi Direct range
        sim.run_until(60.0)
        assert not connection.alive
        assert medium.connections_broken == 1
        # the monitor catches it on the first tick established + k·period
        # (by repeated addition, as the periodic process re-arms) at which
        # the pair is out of range
        tick = connection.established_at_s + medium.link_check_period_s
        while True:
            distance = distance_between(ue.position(tick), relay.position(tick))
            if distance > WIFI_DIRECT.max_range_m or not WIFI_DIRECT.link.in_range(
                distance
            ):
                break
            tick += medium.link_check_period_s
        assert breaks == [("out of range", tick)]

    def test_send_beyond_range_breaks_link(self, sim, medium):
        ue = D2DEndpoint("ue", LinearMobility((0.0, 0.0), (30.0, 0.0)))
        relay = make_endpoint("relay", advertising=True)
        medium.register(ue)
        medium.register(relay)
        holder = []
        medium.connect("ue", "relay", holder.append)
        sim.run_until(WIFI_DIRECT.connection_latency_s)
        connection = holder[0]
        sim.run_until(4.0)  # 120 m away now, before the first link check
        outcomes = []
        assert connection.send("ue", 10, "x", on_result=outcomes.append) is False
        assert outcomes == [False]
        assert not connection.alive

    def test_power_off_breaks_connections(self, sim, medium):
        ue = make_endpoint("ue")
        relay = make_endpoint("relay", (2.0, 0.0), advertising=True)
        medium.register(ue)
        medium.register(relay)
        holder = []
        medium.connect("ue", "relay", holder.append)
        sim.run_until(5.0)
        medium.power_off("relay")
        assert not holder[0].alive
        assert medium.connections_of("ue") == []


class TestLinkSupervision:
    """Only links that can change between sends are polled.

    A pair of fixed endpoints formed in range stays in range, so its
    link check could never fire a break; a gate can veto any pair at any
    time, so installing one polls every live link on the ticks its
    monitor would have had all along.
    """

    @staticmethod
    def _connect(sim, medium, ue_mobility):
        medium.register(D2DEndpoint("ue", ue_mobility, energy=EnergyModel(owner="ue")))
        medium.register(make_endpoint("relay", (3.0, 0.0), advertising=True))
        holder = []
        medium.connect("ue", "relay", holder.append)
        sim.run_until(WIFI_DIRECT.connection_latency_s)
        return holder[0]

    def test_fixed_pair_has_no_monitor(self, sim, medium):
        connection = self._connect(sim, medium, StaticMobility((0.0, 0.0)))
        assert connection.alive
        assert connection._monitor is None

    def test_pair_with_a_mover_has_a_monitor(self, sim, medium):
        connection = self._connect(
            sim, medium, LinearMobility((0.0, 0.0), (0.1, 0.0))
        )
        assert connection._monitor is not None

    @staticmethod
    def _check_times(gate_at_s):
        """``d2d_link_check`` times of a fixed pair whose gate goes in at
        ``gate_at_s`` (``None``: before the connection forms)."""
        sim = Simulator(seed=0, trace=True)
        # 0.7 is not a binary fraction: repeated addition drifts from
        # established + k·0.7, so the ticks must be re-derived exactly
        medium = D2DMedium(sim, WIFI_DIRECT, link_check_period_s=0.7)
        if gate_at_s is None:
            medium.link_gate = lambda a, b: True
        connection = TestLinkSupervision._connect(
            sim, medium, StaticMobility((0.0, 0.0))
        )
        if gate_at_s is not None:
            sim.run_until(gate_at_s)
            assert connection._monitor is None
            medium.link_gate = lambda a, b: True
            assert connection._monitor is not None
        sim.run_until(60.0)
        return [t for t, name in sim.event_log if name == "d2d_link_check"]

    def test_gate_installed_mid_run_keeps_the_original_ticks(self):
        from_start = self._check_times(None)
        mid_run = self._check_times(23.45)  # between two ticks
        assert mid_run
        assert mid_run == [t for t in from_start if t > 23.45]

    def test_gate_veto_breaks_a_fixed_pair_at_the_next_tick(self, sim, medium):
        connection = self._connect(sim, medium, StaticMobility((0.0, 0.0)))
        breaks = []
        medium.endpoint("ue").on_disconnect = lambda conn, reason: breaks.append(
            (reason, sim.now)
        )
        sim.run_until(12.0)
        medium.link_gate = lambda a, b: False
        sim.run_until(30.0)
        period = medium.link_check_period_s
        tick = connection.established_at_s + period
        while tick <= 12.0:
            tick += period
        assert breaks == [("link down", tick)]


class TestFixedPairSends:
    """A pair of endpoints with a zero speed bound is priced once.

    ``connect`` records the pair's distance, packet error rate and
    positions, so its sends read no position and evaluate no path loss;
    the gate and power checks still run on every send, and a pair with
    a mover is re-measured on every send as before.
    """

    @staticmethod
    def _counted_pair(sim, medium, calls):
        class CountingStatic(StaticMobility):
            def position(self, t):
                calls["position"] += 1
                return super().position(t)

        for device_id, position in (("ue", (0.0, 0.0)), ("relay", (3.0, 0.0))):
            medium.register(
                D2DEndpoint(
                    device_id, CountingStatic(position),
                    energy=EnergyModel(owner=device_id),
                )
            )
        holder = []
        medium.connect("ue", "relay", holder.append)
        sim.run_until(WIFI_DIRECT.connection_latency_s)
        return holder[0]

    @pytest.mark.parametrize("channel", [False, True])
    def test_send_reads_no_position_and_no_path_loss(
        self, sim, monkeypatch, channel
    ):
        from repro.channel.model import ChannelModel
        from repro.d2d import link as link_module

        medium = D2DMedium(
            sim, WIFI_DIRECT, channel=ChannelModel() if channel else None
        )
        calls = {"position": 0, "rssi_at": 0}
        connection = self._counted_pair(sim, medium, calls)
        assert connection._fixed_link is not None
        rssi_at = link_module.rssi_at

        def counting_rssi_at(*args):
            calls["rssi_at"] += 1
            return rssi_at(*args)

        monkeypatch.setattr(link_module, "rssi_at", counting_rssi_at)
        calls.update(position=0, rssi_at=0)
        outcomes = []
        for i in range(4):
            sender = "ue" if i % 2 == 0 else "relay"
            assert connection.send(sender, 100, i, on_result=outcomes.append)
            sim.run_until(sim.now + 1.0)
        assert outcomes == [True] * 4
        assert calls["position"] == 0
        if channel:
            # the channel prices the grant's SINR from the fixed positions
            lease = medium.channel.pool.get("relay->ue")
            assert (lease.tx_pos, lease.rx_pos) == ((3.0, 0.0), (0.0, 0.0))
        else:
            assert calls["rssi_at"] == 0

    def test_a_mover_pair_still_breaks_out_of_range_on_send(self, sim, medium):
        ue = D2DEndpoint("ue", LinearMobility((0.0, 0.0), (30.0, 0.0)))
        medium.register(ue)
        medium.register(make_endpoint("relay", advertising=True))
        holder = []
        medium.connect("ue", "relay", holder.append)
        sim.run_until(WIFI_DIRECT.connection_latency_s)
        connection = holder[0]
        assert connection._fixed_link is None
        breaks = []
        ue.on_disconnect = lambda conn, reason: breaks.append(reason)
        assert connection.send("ue", 10, "near")
        sim.run_until(4.0)  # 120 m apart, before the first link check
        assert connection.send("ue", 10, "far") is False
        assert breaks == ["out of range"]

    def test_a_gate_breaks_a_fixed_pair_on_its_next_send(self, sim, medium):
        calls = {"position": 0}
        connection = self._counted_pair(sim, medium, calls)
        breaks = []
        medium.endpoint("ue").on_disconnect = lambda conn, reason: breaks.append(
            reason
        )
        assert connection.send("ue", 10, "open")
        medium.link_gate = lambda a, b: False
        outcomes = []
        assert connection.send("ue", 10, "vetoed", on_result=outcomes.append) is False
        assert outcomes == [False]
        assert breaks == ["link down"]

    def test_a_power_off_breaks_a_fixed_pair_on_its_next_send(self, sim, medium):
        calls = {"position": 0}
        connection = self._counted_pair(sim, medium, calls)
        breaks = []
        medium.endpoint("ue").on_disconnect = lambda conn, reason: breaks.append(
            reason
        )
        # the radio dies without telling the medium
        medium.endpoint("relay").powered_on = False
        assert connection.send("ue", 10, "lost") is False
        assert breaks == ["peer unavailable"]

    def test_a_cleared_static_memo_keeps_the_lease_fixed(self, sim):
        from repro.channel.model import ChannelModel

        medium = D2DMedium(sim, WIFI_DIRECT, channel=ChannelModel())
        connection = self._counted_pair(sim, medium, {"position": 0})
        medium._static_pos.clear()
        assert connection.send("ue", 100, "x")
        assert medium.channel.pool.get("ue->relay").fixed is True


class TestAdvertisementSafety:
    """Peers see a live read-only view of the advertiser's record — no
    per-scan copies, and no way for a consumer to corrupt the source."""

    def test_peer_view_is_read_only(self, sim, medium):
        medium.register(make_endpoint("ue"))
        medium.register(make_endpoint("relay", (3.0, 0.0), advertising=True, role="relay"))
        found = []
        medium.discover("ue", found.extend)
        sim.run_until(10.0)
        peer = found[0]
        with pytest.raises(TypeError):
            peer.advertisement["role"] = "hacked"
        with pytest.raises(TypeError):
            del peer.advertisement["role"]

    def test_peer_info_is_an_immutable_record(self):
        view = {"role": "relay"}
        by_keyword = PeerInfo(
            device_id="relay",
            rssi_dbm=-40.0,
            estimated_distance_m=2.0,
            advertisement=view,
        )
        by_position = PeerInfo("relay", -40.0, 2.0, view)
        assert by_keyword == by_position
        assert by_position.device_id == "relay"
        assert by_position.rssi_dbm == -40.0
        assert by_position.estimated_distance_m == 2.0
        assert by_position.advertisement is view
        with pytest.raises(AttributeError):
            by_position.rssi_dbm = 0.0

    def test_consumer_snapshot_leaves_source_intact(self, sim, medium):
        medium.register(make_endpoint("ue"))
        relay = make_endpoint("relay", (3.0, 0.0), advertising=True, role="relay")
        medium.register(relay)
        found = []
        medium.discover("ue", found.extend)
        sim.run_until(10.0)
        snapshot = dict(found[0].advertisement)
        snapshot["role"] = "edited-copy"
        assert relay.advertisement == {"role": "relay"}

    def test_view_tracks_in_place_advertiser_updates(self, sim, medium):
        medium.register(make_endpoint("ue"))
        relay = make_endpoint("relay", (3.0, 0.0), advertising=True, role="relay")
        medium.register(relay)
        found = []
        medium.discover("ue", found.extend)
        sim.run_until(10.0)
        # The advertiser mutates its record in place; the already-handed-out
        # view reflects it (it is a proxy, not a frozen copy).
        relay.advertisement["load"] = 0.7
        assert found[0].advertisement["load"] == 0.7
