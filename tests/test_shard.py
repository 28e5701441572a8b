"""Unit tests for the cell-sharded kernel (repro.shard)."""

import pytest

from repro.cellular.network import CellularNetwork, grid_cell_positions
from repro.mobility.models import place_crowd
from repro.mobility.space import Arena
from repro.shard import (
    CrowdShardParams,
    GhostMobility,
    ShardPlan,
    _route_reports,
    _tile_partition,
    cell_occupancy,
    run_crowd_scenario_sharded,
)
from repro.sim.engine import Simulator
from repro.sim.rng import make_rng


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


class TestShardPlan:
    def test_column_band_partition(self):
        plan = ShardPlan(2, 4, 2, 400.0, 100.0)
        # columns 0-1 -> shard 0, columns 2-3 -> shard 1, on both rows
        assert plan.cell_shards == [0, 0, 1, 1, 0, 0, 1, 1]

    def test_home_shard_by_position(self):
        plan = ShardPlan(2, 4, 2, 400.0, 100.0)
        assert plan.shard_of_position((10.0, 50.0)) == 0
        assert plan.shard_of_position((390.0, 50.0)) == 1

    def test_border_shards_near_and_far(self):
        plan = ShardPlan(2, 4, 2, 400.0, 100.0)
        # standing right on the column boundary: both shards' nearest
        # cells are equidistant, so the foreign shard is within margin
        assert plan.border_shards((200.0, 50.0), 0, 50.0) == [1]
        # deep inside shard 0's territory: no foreign shard in reach
        assert plan.border_shards((50.0, 50.0), 0, 50.0) == []

    def test_requires_a_column_per_shard(self):
        with pytest.raises(ValueError):
            ShardPlan(4, 2, 2, 400.0, 100.0)

    def test_band_error_names_the_tiles_escape_hatch(self):
        with pytest.raises(ValueError, match="--shard-plan tiles"):
            ShardPlan(4, 2, 2, 400.0, 100.0)

    def test_rejects_unknown_plan_name(self):
        with pytest.raises(ValueError, match="bands.*tiles"):
            ShardPlan(2, 4, 2, 400.0, 100.0, plan="hexagons")

    def test_tiles_need_a_cell_per_shard(self):
        with pytest.raises(ValueError):
            ShardPlan(5, 2, 2, 400.0, 100.0, plan="tiles")

    def test_rejects_mismatched_cell_weights(self):
        with pytest.raises(ValueError, match="one entry per cell"):
            ShardPlan(
                2, 4, 2, 400.0, 100.0, plan="tiles", cell_weights=[1.0] * 3
            )


class TestCellOccupancy:
    def test_counts_nearest_cell_first_wins_ties(self):
        cells = [(25.0, 10.0), (75.0, 10.0)]
        points = [
            (10.0, 10.0),   # nearest cell 0
            (80.0, 10.0),   # nearest cell 1
            (50.0, 10.0),   # equidistant -> first cell wins
        ]
        assert cell_occupancy(cells, points) == [2, 1]

    def test_empty_crowd_gives_zero_weights(self):
        assert cell_occupancy([(1.0, 1.0), (2.0, 2.0)], []) == [0, 0]


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
        plan = ShardPlan(4, 2, 2, 400.0, 100.0, plan="tiles")
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


class TestGhostMobility:
    def test_ghosts_are_indexable_statics(self):
        # max speed 0.0 -> the spatial index may home a ghost in one cell
        # for its whole registration: apply_ghosts re-registers a moved
        # device's ghost, so the frozen position really is constant. The
        # old None (exact-check every scan) made every border device a
        # per-scan tax on the receiving shard.
        ghost = GhostMobility((3.0, 4.0))
        assert ghost.max_speed_m_s() == 0.0
        assert ghost.position(123.0) == (3.0, 4.0)
        assert ghost.velocity(0.0) == (0.0, 0.0)


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
            "vectorized_scans", "index_queries", "index_updates",
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
        params = CrowdShardParams(
            n_shards=3, cells_x=2, cells_y=2, shard_plan="tiles"
        )
        plan = params.plan()
        assert plan.plan_kind == "tiles"
        assert {shard for shard in plan.cell_shards} == {0, 1, 2}


class TestHotspotCrowdBalance:
    """The tile planner's reason to exist: hotspot crowds skew bands.

    Uses the 20000-device geometry of ``benchmarks/test_shard_gates.py``.
    The comparison is planner-level (device counts per shard from the t=0
    placements, the planner's own cost model) — no simulation needed to
    show the column bands concentrate hotspot load while the weighted
    tiles spread it.
    """

    GEOMETRY = dict(
        n_devices=20_000, arena_w=2400.0, arena_h=2400.0,
        hotspots=12, hotspot_spread_m=60.0, mobile_fraction=0.1,
        seed=2, n_shards=4, cells_x=10, cells_y=4,
    )

    def _device_skew(self, shard_plan):
        params = CrowdShardParams(shard_plan=shard_plan, **self.GEOMETRY)
        plan = params.plan()
        weights = cell_occupancy(
            plan.cell_positions,
            [
                m.position(0.0)
                for m in place_crowd(
                    params.n_devices,
                    Arena(params.arena_w, params.arena_h),
                    make_rng(params.seed, "crowd-placement"),
                    hotspots=params.hotspots,
                    spread_m=params.hotspot_spread_m,
                    mobile_fraction=params.mobile_fraction,
                )
            ],
        )
        per_shard = [0.0] * plan.n_shards
        for cell, shard in enumerate(plan.cell_shards):
            per_shard[shard] += weights[cell]
        mean = sum(per_shard) / len(per_shard)
        return max(per_shard) / mean

    def test_tiles_meet_the_skew_bound_where_bands_do_not(self):
        # 1.25 is the documented max/mean bound benchmarks/test_shard_gates.py
        # enforces
        assert self._device_skew("tiles") <= 1.25
        assert self._device_skew("bands") > 1.25
