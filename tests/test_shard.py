"""Unit tests for the cell-sharded kernel (repro.shard)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cellular.network import (
    CellularNetwork,
    cell_distances,
    grid_cell_positions,
    nearest_cell,
    nearest_cells,
)
from repro.cli import main
from repro.mobility.models import StaticMobility
from repro.mobility.space import Arena
from repro.scenarios import crowd_metrics_runner, run_crowd_scenario
from repro.shard import (
    CrowdShardParams,
    ShardPlan,
    _route_reports,
    _ShardState,
    _tile_partition,
    cell_occupancy,
    run_crowd_scenario_sharded,
)
from repro.sim.engine import Simulator


class TestGridCellPositions:
    def test_row_major_x_fastest(self):
        positions = grid_cell_positions(100.0, 40.0, 2, 2)
        assert positions == [
            (25.0, 10.0), (75.0, 10.0),
            (25.0, 30.0), (75.0, 30.0),
        ]

    def test_rejects_degenerate_grid(self):
        with pytest.raises(ValueError):
            grid_cell_positions(100.0, 40.0, 0, 2)


def _home_shard(plan, position):
    """Scalar oracle: the shard owning the cell nearest ``position``."""
    return plan.cell_shards[nearest_cell(plan.cell_positions, position)]


class TestShardPlan:
    def test_home_shard_by_position(self):
        # uniform weights on a 4x2 grid: the tie-break prefers the x cut,
        # so columns 0-1 go to shard 0 and columns 2-3 to shard 1
        plan = ShardPlan(2, 4, 2, 400.0, 100.0)
        assert plan.cell_shards == [0, 0, 1, 1, 0, 0, 1, 1]
        assert _home_shard(plan, (10.0, 50.0)) == 0
        assert _home_shard(plan, (390.0, 50.0)) == 1

    def test_home_cells_follow_the_scalar_attachment_rule(self):
        params = CrowdShardParams(
            n_devices=60, arena_w=400.0, arena_h=100.0, hotspots=4,
            hotspot_spread_m=40.0, mobile_fraction=0.2, n_shards=2,
        )
        layout = params.layout()
        home_cells = params.home_cells(layout)
        plan = params.plan(home_cells)
        assert home_cells == [
            nearest_cell(plan.cell_positions, m.position(0.0))
            for m in layout.mobilities
        ]
        assert params.plan().cell_shards == plan.cell_shards
        # each shard builds exactly the devices the scalar rule homes in it
        for shard_index in range(params.n_shards):
            shard = _ShardState(shard_index, params)
            assert {
                int(device_id.rsplit("-", 1)[1]) for device_id in shard.devices
            } == {
                i for i, m in enumerate(layout.mobilities)
                if _home_shard(plan, m.position(0.0)) == shard_index
            }

    def test_border_shards_near_and_far(self, border_oracle):
        plan = ShardPlan(2, 4, 2, 400.0, 100.0)
        # standing right on the column boundary: both shards' nearest
        # cells are equidistant, so the foreign shard is within margin
        assert border_oracle(plan, (200.0, 50.0), 0, 50.0) == [1]
        # deep inside shard 0's territory: no foreign shard in reach
        assert border_oracle(plan, (50.0, 50.0), 0, 50.0) == []
        distances = cell_distances(plan.cell_positions, [(200.0, 50.0), (50.0, 50.0)])
        assert plan.border_targets(distances, 0, 50.0) == [[1], []]

    def test_rejects_unknown_plan_name(self):
        # the entry point keeps its shard_plan keyword; tiles is its one value
        with pytest.raises(ValueError, match="only partition"):
            run_crowd_scenario_sharded(shard_plan="hexagons")

    def test_tiles_need_a_cell_per_shard(self):
        with pytest.raises(ValueError):
            ShardPlan(5, 2, 2, 400.0, 100.0)

    def test_rejects_mismatched_cell_weights(self):
        with pytest.raises(ValueError, match="one entry per cell"):
            ShardPlan(2, 4, 2, 400.0, 100.0, cell_weights=[1.0] * 3)


class TestCellOccupancy:
    def test_counts_nearest_cell_first_wins_ties(self):
        cells = [(25.0, 10.0), (75.0, 10.0)]
        points = [
            (10.0, 10.0),   # nearest cell 0
            (80.0, 10.0),   # nearest cell 1
            (50.0, 10.0),   # equidistant -> first cell wins
        ]
        assert cell_occupancy(nearest_cells(cells, points), len(cells)) == [2, 1]

    def test_empty_crowd_gives_zero_weights(self):
        assert cell_occupancy(nearest_cells([(1.0, 1.0), (2.0, 2.0)], []), 2) == [0, 0]


def _shards_are_rectangles(cell_shards, cells_x, cells_y):
    """Each shard's cells must form one axis-aligned grid rectangle."""
    by_shard = {}
    for c, shard in enumerate(cell_shards):
        by_shard.setdefault(shard, set()).add((c % cells_x, c // cells_x))
    for cells in by_shard.values():
        xs = [x for x, _ in cells]
        ys = [y for _, y in cells]
        rect = {
            (x, y)
            for x in range(min(xs), max(xs) + 1)
            for y in range(min(ys), max(ys) + 1)
        }
        if cells != rect:
            return False
    return True


class TestTilePartition:
    def test_lifts_the_column_band_limit(self):
        # 4 shards on a 2x2 grid: impossible as column bands, one cell
        # per shard as tiles
        plan = ShardPlan(4, 2, 2, 400.0, 100.0)
        assert sorted(plan.cell_shards) == [0, 1, 2, 3]

    def test_every_shard_is_a_rectangle(self):
        for n_shards, cells_x, cells_y in [(3, 4, 4), (5, 6, 3), (7, 4, 5)]:
            assignment = _tile_partition(
                n_shards, cells_x, cells_y, [1.0] * (cells_x * cells_y)
            )
            assert set(assignment) == set(range(n_shards))
            assert _shards_are_rectangles(assignment, cells_x, cells_y)

    def test_cut_follows_the_weight(self):
        # weight concentrated left: the lone heavy column becomes its own
        # shard; spread evenly, the cut lands in the middle
        assert _tile_partition(2, 4, 1, [10.0, 1.0, 1.0, 1.0]) == [0, 1, 1, 1]
        assert _tile_partition(2, 4, 1, [1.0, 1.0, 1.0, 1.0]) == [0, 0, 1, 1]

    def test_partition_is_deterministic(self):
        weights = [float((7 * c) % 5 + 1) for c in range(24)]
        first = _tile_partition(5, 6, 4, weights)
        second = _tile_partition(5, 6, 4, weights)
        assert first == second


class TestBorderTargets:
    """The vector border rule against the scalar oracle in conftest."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_vector_targets_equal_the_oracle(self, border_oracle, data):
        cells_x = data.draw(st.integers(1, 5), label="cells_x")
        cells_y = data.draw(st.integers(1, 4), label="cells_y")
        n_shards = data.draw(
            st.integers(1, min(4, cells_x * cells_y)), label="n_shards"
        )
        plan = ShardPlan(n_shards, cells_x, cells_y, 400.0, 120.0)
        # whole metres land on cell midlines and tile borders, where the
        # rule's distances tie
        coord = st.one_of(
            st.integers(-20, 420).map(float),
            st.floats(min_value=-20.0, max_value=420.0),
        )
        points = data.draw(st.lists(st.tuples(coord, coord), max_size=25))
        own = data.draw(st.integers(0, n_shards - 1), label="own")
        margin = data.draw(st.sampled_from([0.0, 7.5, 50.0, 300.0]))
        distances = cell_distances(plan.cell_positions, points)
        assert plan.border_targets(distances, own, margin) == [
            border_oracle(plan, point, own, margin) for point in points
        ]


class TestWindowPasses:
    """Statics are settled at build; every window re-checks the movers."""

    PARAMS = CrowdShardParams(
        n_devices=60, arena_w=400.0, arena_h=120.0, hotspots=6,
        mobile_fraction=0.3, seed=3, storm_scan_period_s=10.0,
    )

    def test_windows_never_ask_a_static_for_its_position(self):
        shard = _ShardState(0, self.PARAMS)
        statics = [
            device for device in shard.devices.values()
            if device.mobility.max_speed_m_s() == 0.0
        ]
        assert 0 < len(statics) < len(shard.devices)
        # count only the window's own bookkeeping: the simulation itself
        # may ask any device where it stands
        calls = []
        simulating = []
        run_until = shard.sim.run_until

        def run_until_uncounted(t):
            simulating.append(True)
            try:
                return run_until(t)
            finally:
                simulating.pop()

        shard.sim.run_until = run_until_uncounted

        class CountingStatic(StaticMobility):
            def position(self, t):
                if not simulating:
                    calls.append(t)
                return super().position(t)

        for device in statics:
            device.mobility = CountingStatic(device.mobility.position(0.0))
        for t_end in (5.0, 10.0, 15.0):
            shard.run_window(t_end, [])
        assert calls == []

    def test_handovers_and_reports_equal_the_scalar_rules(self, border_oracle):
        for index in range(self.PARAMS.n_shards):
            shard = _ShardState(index, self.PARAMS)
            network = shard.network
            kinds = set()
            for t_end in (5.0, 30.0, 60.0, 120.0):
                report, _work = shard.run_window(t_end, [])
                expected = []
                for device_id, device in shard.devices.items():
                    x, y = device.mobility.position(t_end)
                    nearest = nearest_cell(network._cell_positions, (x, y))
                    assert network.cell_of(device_id) is network.cells[nearest]
                    endpoint = shard.medium.endpoint(device_id)
                    if not (endpoint.advertising and endpoint.powered_on):
                        continue
                    targets = border_oracle(
                        shard.plan, (x, y), index, self.PARAMS.ghost_margin_m
                    )
                    if targets:
                        expected.append((device_id, x, y, device.role.value, targets))
                        kinds.add(device.mobility.max_speed_m_s() == 0.0)
                assert sorted(report) == sorted(expected)
            # both statics and movers sat on the border
            assert kinds == {True, False}


class TestGhostMobility:
    def test_ghosts_are_indexable_statics(self):
        # max speed 0.0 -> the spatial index may home a ghost in one cell
        # for its whole registration: apply_ghosts re-registers a moved
        # device's ghost, so the frozen position really is constant. The
        # old None (exact-check every scan) made every border device a
        # per-scan tax on the receiving shard.
        shard = _ShardState(0, CrowdShardParams(n_devices=4))
        shard.apply_ghosts([("dev-99", 3.0, 4.0, "ue")])
        ghost = shard.medium.endpoint("dev-99")
        assert ghost.mobility.max_speed_m_s() == 0.0
        assert ghost.position(123.0) == (3.0, 4.0)


class TestReattach:
    def test_reattach_reports_cell_change(self):
        sim = Simulator(seed=0)
        network = CellularNetwork(
            sim, grid_cell_positions(400.0, 100.0, 2, 1)
        )
        cell, changed = network.reattach("dev-0", (10.0, 50.0))
        assert changed and cell.cell_id == "cell-0"
        cell, changed = network.reattach("dev-0", (20.0, 50.0))
        assert not changed and cell.cell_id == "cell-0"
        cell, changed = network.reattach("dev-0", (390.0, 50.0))
        assert changed and cell.cell_id == "cell-1"
        assert network.cell_of("dev-0") is cell


class TestRouteReports:
    def test_routes_sorted_by_device_id(self):
        reports = [
            [("dev-9", 1.0, 2.0, "ue", [1]), ("dev-1", 3.0, 4.0, "relay", [1])],
            [("dev-5", 5.0, 6.0, "ue", [0])],
        ]
        routed = _route_reports(reports, 2)
        assert routed[0] == [("dev-5", 5.0, 6.0, "ue")]
        assert routed[1] == [
            ("dev-1", 3.0, 4.0, "relay"),
            ("dev-9", 1.0, 2.0, "ue"),
        ]


class TestUnsupportedCombinations:
    def test_rejects_global_state_features(self):
        with pytest.raises(ValueError):
            run_crowd_scenario_sharded(mode="original")
        with pytest.raises(ValueError):
            run_crowd_scenario_sharded(channel="sinr")
        with pytest.raises(ValueError):
            run_crowd_scenario_sharded(chaos="mild")
        with pytest.raises(ValueError):
            run_crowd_scenario_sharded(audit=True)
        with pytest.raises(ValueError):
            run_crowd_scenario_sharded(backend="threads")
        with pytest.raises(ValueError):
            run_crowd_scenario_sharded(shards=0)

    def test_rejects_shard_counts_below_one(self):
        for bad in ("-3", "0"):
            with pytest.raises(SystemExit) as err:
                main(["crowd", "--devices", "20", "--duration", "120",
                      "--shards", bad])
            assert err.value.code == 2
        with pytest.raises(ValueError, match="at least one shard"):
            crowd_metrics_runner(n_devices=20, duration_s=120.0, shards=0)

    def test_error_lists_every_blocker_at_once(self):
        # a config with four bad knobs needs one round trip to fix, not four
        with pytest.raises(ValueError) as err:
            run_crowd_scenario_sharded(
                mode="original", channel="sinr", chaos="mild", audit=True
            )
        message = str(err.value)
        for blocker in (
            "mode='original'", "channel='sinr'", "chaos='mild'", "audit=True"
        ):
            assert blocker in message

    def test_rejects_channel_options_instead_of_dropping_them(self):
        # shadowing and the selection policy used to be dropped on the
        # way to the shards, which then ran the defaults without a word
        with pytest.raises(ValueError) as err:
            run_crowd_scenario_sharded(
                shadowing_sigma_db=12.0, selection_policy="rate"
            )
        message = str(err.value)
        assert "shadowing_sigma_db=12.0" in message
        assert "selection_policy='rate'" in message
        with pytest.raises(ValueError, match="shadowing_sigma_db=12.0"):
            crowd_metrics_runner(
                n_devices=60, duration_s=120.0, shards=2, seed=1,
                shadowing_sigma_db=12.0,
            )
        assert main([
            "crowd", "--shards", "2", "--duration", "60",
            "--selection-policy", "rate",
        ]) == 2


@pytest.fixture(scope="module")
def small_sharded_run():
    return run_crowd_scenario_sharded(
        n_devices=20, relay_fraction=0.25, duration_s=60.0,
        arena=Arena(200.0, 80.0), hotspots=4, seed=1, shards=2,
    )


class TestSmallShardedRun:
    def test_merged_metrics_cover_every_device(self, small_sharded_run):
        result = small_sharded_run
        assert len(result.metrics.devices) == 20
        assert sum(result.devices_per_shard) == 20
        assert result.windows == 12  # 59 s horizon / 5 s windows, ceil
        assert result.metrics.total_l3_messages > 0

    def test_perf_dict_carries_what_the_benchmark_reads(self, small_sharded_run):
        # python -m bench (bench/layers.py) reads these merged counters
        perf = small_sharded_run.metrics.perf
        assert perf["timer_shard-sync_s"] > 0
        for key in (
            "scans", "scan_candidates_examined", "scan_peers_returned",
            "vectorized_scans", "index_queries",
        ):
            assert key in perf, key
        assert perf["scans"] > 0
        # the per-phase sections nothing reads any more stay gone
        for phase in ("discover", "transfer", "energy"):
            assert f"timer_{phase}_s" not in perf, phase

    def test_params_round_trip(self):
        params = CrowdShardParams(n_shards=3, cells_x=6)
        plan = params.plan()
        assert plan.n_shards == 3
        assert {shard for shard in plan.cell_shards} == {0, 1, 2}

    def test_tiles_params_round_trip_beyond_the_band_limit(self):
        params = CrowdShardParams(n_shards=3, cells_x=2, cells_y=2)
        plan = params.plan()
        assert {shard for shard in plan.cell_shards} == {0, 1, 2}


class TestOneCrowdLayout:
    """Both kernels build their devices from one crowd layout."""

    @pytest.mark.parametrize("relay_selection", ["roundrobin", "greedy", "random"])
    def test_shards_partition_the_unsharded_crowd(self, relay_selection):
        crowd = dict(
            n_devices=60, relay_fraction=0.25, hotspots=6,
            mobile_fraction=0.3, seed=3, relay_selection=relay_selection,
        )

        def layout(devices):
            return {
                device_id: (device.role, device.mobility.position(0.0))
                for device_id, device in devices.items()
            }

        # snapshot the unsharded crowd before its clock starts
        unsharded = {}
        run_crowd_scenario(
            arena=Arena(400.0, 120.0), duration_s=1.0, drain_s=0.0,
            pre_run=lambda _context, devices: unsharded.update(layout(devices)),
            **crowd,
        )
        params = CrowdShardParams(arena_w=400.0, arena_h=120.0, **crowd)
        sharded = {}
        for i in range(params.n_shards):
            shard_devices = layout(_ShardState(i, params).devices)
            assert not set(shard_devices) & set(sharded), "device in two shards"
            sharded.update(shard_devices)
        assert len(unsharded) == 60
        assert sharded == unsharded


class TestHotspotCrowdBalance:
    """The tile planner's reason to exist: hotspot crowds skew bands.

    Uses the 20000-device geometry of ``benchmarks/test_shard_gates.py``.
    The comparison is planner-level (device counts per shard from the t=0
    placements, the planner's own cost model) — no simulation needed to
    show the column bands (the ``band_partition`` oracle) concentrate
    hotspot load while the weighted tiles spread it.
    """

    GEOMETRY = dict(
        n_devices=20_000, arena_w=2400.0, arena_h=2400.0,
        hotspots=12, hotspot_spread_m=60.0, mobile_fraction=0.1,
        seed=2, n_shards=4, cells_x=10, cells_y=4,
    )

    def _device_skew(self):
        params = CrowdShardParams(**self.GEOMETRY)
        layout = params.layout()
        home_cells = params.home_cells(layout)
        plan = params.plan(home_cells)
        weights = cell_occupancy(home_cells, len(plan.cell_positions))
        per_shard = [0.0] * plan.n_shards
        for cell, shard in enumerate(plan.cell_shards):
            per_shard[shard] += weights[cell]
        mean = sum(per_shard) / len(per_shard)
        return max(per_shard) / mean

    def test_tiles_meet_the_skew_bound_where_bands_do_not(self, band_partition):
        # 1.25 is the documented max/mean bound benchmarks/test_shard_gates.py
        # enforces
        assert self._device_skew() <= 1.25
        with band_partition():
            assert self._device_skew() > 1.25
