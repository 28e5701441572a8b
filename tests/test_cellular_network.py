"""Tests for the multi-cell network."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cellular.network import (
    CellularNetwork,
    CombinedLedger,
    cell_distances,
    nearest_cell,
    nearest_cells,
)
from repro.cellular.signaling import Direction, L3MessageType, SignalingLedger
from repro.core.framework import HeartbeatRelayFramework
from repro.d2d.base import D2DMedium
from repro.d2d.wifi_direct import WIFI_DIRECT
from repro.device import Role, Smartphone
from repro.mobility.models import StaticMobility
from repro.mobility.space import distance_between
from repro.sim.engine import Simulator
from repro.workload.apps import STANDARD_APP
from repro.workload.server import IMServer

T = STANDARD_APP.heartbeat_period_s


class TestAttachment:
    def test_nearest_cell_wins(self, sim):
        network = CellularNetwork(sim, [(0.0, 0.0), (100.0, 0.0)])
        assert network.attach("a", (10.0, 0.0)).cell_id == "cell-0"
        assert network.attach("b", (90.0, 0.0)).cell_id == "cell-1"
        assert network.cell_of("a").cell_id == "cell-0"

    def test_first_of_equidistant_cells_wins(self, sim):
        # one rule for build-time attachment, handover and the shard plan
        cells = [(0.0, 0.0), (100.0, 0.0)]
        assert nearest_cell(cells, (50.0, 0.0)) == 0
        network = CellularNetwork(sim, cells)
        assert network.attach("a", (50.0, 0.0)).cell_id == "cell-0"
        assert network.reattach("a", (50.0, 0.0)) == (network.cells[0], False)

    def test_nearest_cells_on_an_empty_crowd(self):
        assert nearest_cells([(0.0, 0.0), (1.0, 0.0)], []) == []


    def test_unattached_lookup_raises(self, sim):
        network = CellularNetwork(sim, [(0.0, 0.0)])
        with pytest.raises(KeyError):
            network.cell_of("ghost")

    def test_empty_network_rejected(self, sim):
        with pytest.raises(ValueError):
            CellularNetwork(sim, [])

    def test_attached_by_cell(self, sim):
        network = CellularNetwork(sim, [(0.0, 0.0), (100.0, 0.0)])
        network.attach("a", (1.0, 0.0))
        network.attach("b", (2.0, 0.0))
        network.attach("c", (99.0, 0.0))
        assert network.attached_by_cell() == {"cell-0": 2, "cell-1": 1}


# whole metres make equidistant ties common; the float arm covers the rest
_coord = st.one_of(
    st.integers(-60, 60).map(float),
    st.floats(min_value=-5000.0, max_value=5000.0, allow_nan=False),
)
_point = st.tuples(_coord, _coord)


class TestNearestCellsMatchTheScalarRule:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        cells=st.lists(_point, min_size=1, max_size=12),
        positions=st.lists(_point, max_size=20),
    )
    # the midpoint of two cells, on and off their axis
    @example(cells=[(0.0, 0.0), (100.0, 0.0)], positions=[(50.0, 0.0), (50.0, 7.0)])
    # the corner shared by four grid cells: a four-way tie
    @example(
        cells=[(25.0, 10.0), (75.0, 10.0), (25.0, 30.0), (75.0, 30.0)],
        positions=[(50.0, 20.0), (50.0, 10.0), (25.0, 20.0)],
    )
    # duplicate cells: every distance ties
    @example(cells=[(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)], positions=[(0.0, 0.0)])
    def test_same_cell_and_same_distances(self, cells, positions):
        assert nearest_cells(cells, positions) == [
            nearest_cell(cells, position) for position in positions
        ]
        assert cell_distances(cells, positions).tolist() == [
            [distance_between(cell, position) for cell in cells]
            for position in positions
        ]


class TestCombinedLedger:
    def test_aggregates_counts(self):
        a, b = SignalingLedger(), SignalingLedger()
        a.record(1.0, "dev", L3MessageType.RRC_CONNECTION_REQUEST,
                 Direction.UPLINK)
        b.record(2.0, "dev", L3MessageType.RRC_CONNECTION_REQUEST,
                 Direction.UPLINK)
        b.record_cycle("dev")
        combined = CombinedLedger([a, b])
        assert combined.total == 2
        assert len(combined) == 2
        assert combined.count_for("dev") == 2
        assert combined.cycles_for("dev") == 1
        assert combined.total_cycles == 1

    def test_messages_merged_in_time_order(self):
        a, b = SignalingLedger(), SignalingLedger()
        b.record(1.0, "x", L3MessageType.RRC_CONNECTION_REQUEST, Direction.UPLINK)
        a.record(2.0, "y", L3MessageType.RRC_CONNECTION_REQUEST, Direction.UPLINK)
        combined = CombinedLedger([a, b])
        assert [m.time_s for m in combined.messages()] == [1.0, 2.0]
        assert [m.device_id for m in combined.messages("x")] == ["x"]


class TestMultiCellEndToEnd:
    def _build(self, mode="d2d", seed=0):
        sim = Simulator(seed=seed)
        network = CellularNetwork(sim, [(0.0, 0.0), (300.0, 0.0)])
        server = IMServer(sim)
        network.attach_sink_everywhere(server.uplink_sink)
        medium = D2DMedium(sim, WIFI_DIRECT)
        framework = HeartbeatRelayFramework([], app=STANDARD_APP)
        # a 5-phone cluster near each cell; first phone of each is a relay
        for c, center in enumerate((0.0, 300.0)):
            for i in range(5):
                device_id = f"c{c}-dev{i}"
                position = (center + float(i), 1.0)
                cell = network.attach(device_id, position)
                is_relay = i == 0 and mode == "d2d"
                phone = Smartphone(
                    sim, device_id, mobility=StaticMobility(position),
                    role=(Role.RELAY if is_relay
                          else (Role.UE if mode == "d2d" else Role.STANDALONE)),
                    ledger=cell.ledger, basestation=cell.basestation,
                    d2d_medium=medium,
                )
                framework.add_device(
                    phone, phase_fraction=0.0 if is_relay else 0.3 + 0.1 * i
                )
        sim.run_until(3 * T + 30.0)
        return network, server, framework

    def test_load_lands_in_the_right_cells(self):
        network, server, framework = self._build(mode="original")
        load = network.load_by_cell()
        assert load["cell-0"] > 0 and load["cell-1"] > 0
        # symmetric clusters → symmetric load
        assert load["cell-0"] == load["cell-1"]

    def test_framework_relieves_each_cell(self):
        base_net, __, __ = self._build(mode="original")
        d2d_net, server, framework = self._build(mode="d2d")
        for cell_id in ("cell-0", "cell-1"):
            assert d2d_net.load_by_cell()[cell_id] < (
                0.6 * base_net.load_by_cell()[cell_id]
            )
        assert framework.total_beats_forwarded() >= 8 * 3  # 8 UEs × 3 periods

    def test_combined_ledger_feeds_metrics(self):
        network, server, framework = self._build(mode="d2d")
        from repro.metrics import collect_metrics

        metrics = collect_metrics(
            framework.devices.values(), network.combined_ledger, server
        )
        assert metrics.total_l3_messages == sum(
            network.load_by_cell().values()
        )
        # UEs added no signaling in either cell
        for device_id, device in metrics.devices.items():
            if device.role == "ue":
                assert device.l3_messages == 0

    def test_hottest_cell_and_storm_flags(self):
        network, server, framework = self._build(mode="original")
        hottest_id, hottest_load = network.hottest_cell()
        assert hottest_id in ("cell-0", "cell-1")
        assert hottest_load == max(network.load_by_cell().values())
        assert isinstance(network.storming_cells(), list)
