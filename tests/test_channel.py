"""Unit and integration tests for the interference-aware channel layer.

Covers the pieces individually — PHY arithmetic, the resource-block
pool's bookkeeping, both allocators — and then the assembled
:class:`ChannelModel` inside real scenarios: channel-mode runs produce
per-run aggregates, fixed mode stays byte-identical to the pre-channel
implementation, and capacity-derived transfer durations reshape (but
never break) delivery and energy accounting.
"""

import collections
import math

import pytest

from repro.channel.allocator import (
    ALLOCATORS,
    CentralizedAllocator,
    LinkRequest,
    MessagePassingAllocator,
    make_allocator,
    total_penalty_mw,
)
from repro.channel.model import ChannelConfig, ChannelModel, TransferGrant
from repro.channel.phy import (
    dbm_to_mw,
    mw_to_dbm,
    shannon_capacity_bps,
    sinr_db,
    thermal_noise_dbm,
)
from repro.channel.rb import RBLease, ResourceBlockPool
from repro.d2d.base import D2DEndpoint, D2DMedium
from repro.d2d.link import LinkModel
from repro.d2d.wifi_direct import WIFI_DIRECT
from repro.energy.model import EnergyModel
from repro.mobility.models import LinearMobility, StaticMobility
from repro.scenarios import build_network, run_crowd_scenario, run_relay_scenario


class TestPhy:
    def test_dbm_mw_round_trip(self):
        for dbm in (-120.0, -60.0, 0.0, 23.0):
            assert mw_to_dbm(dbm_to_mw(dbm)) == pytest.approx(dbm)

    def test_mw_to_dbm_of_zero_is_negative_infinity(self):
        assert mw_to_dbm(0.0) == float("-inf")

    def test_thermal_noise_matches_ktb(self):
        # -174 dBm/Hz over one LTE PRB (180 kHz) plus a 7 dB noise figure.
        noise = thermal_noise_dbm(180_000.0, noise_figure_db=7.0)
        assert noise == pytest.approx(-174.0 + 10 * math.log10(180_000.0) + 7.0)

    def test_thermal_noise_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            thermal_noise_dbm(0.0)

    def test_sinr_without_interference_is_snr(self):
        assert sinr_db(-60.0, (), -114.0) == pytest.approx(-60.0 - (-114.0))

    def test_interference_sums_in_linear_domain(self):
        # Two equal interferers cost exactly 3 dB more than one when the
        # noise floor is negligible next to them.
        one = sinr_db(-60.0, [-80.0], -200.0)
        two = sinr_db(-60.0, [-80.0, -80.0], -200.0)
        assert one - two == pytest.approx(10 * math.log10(2.0), abs=1e-9)

    def test_shannon_capacity_is_b_log2_one_plus_snr(self):
        # SINR of exactly 0 dB (linear 1.0) → B * log2(2) = B.
        assert shannon_capacity_bps(180_000.0, 0.0) == pytest.approx(180_000.0)

    def test_shannon_capacity_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            shannon_capacity_bps(-1.0, 10.0)


def _lease(lease_id, rb, pos=(0.0, 0.0), now=0.0):
    return RBLease(
        lease_id=lease_id, rb=rb, tx_id="t", rx_id="r",
        tx_pos=pos, rx_pos=pos, created_s=now, busy_until_s=now,
    )


def _pool(num_rbs, *leases):
    pool = ResourceBlockPool(num_rbs)
    for lease in leases:
        pool.grant(lease, now=0.0)
    return pool


class TestResourceBlockPool:
    def test_grant_and_release_round_trip(self):
        pool = ResourceBlockPool(4)
        pool.grant(_lease("a->b", 2), now=0.0)
        assert "a->b" in pool
        assert pool.occupancy() == [0, 0, 1, 0]
        pool.release("a->b", now=1.0)
        assert "a->b" not in pool
        assert pool.occupancy() == [0, 0, 0, 0]
        assert (pool.grants, pool.releases) == (1, 1)

    def test_double_booking_rejected(self):
        pool = ResourceBlockPool(4)
        pool.grant(_lease("a->b", 0), now=0.0)
        with pytest.raises(ValueError, match="already live"):
            pool.grant(_lease("a->b", 1), now=0.0)

    def test_out_of_range_block_rejected(self):
        pool = ResourceBlockPool(4)
        with pytest.raises(ValueError, match="out of range"):
            pool.grant(_lease("a->b", 4), now=0.0)

    def test_release_is_idempotent(self):
        pool = ResourceBlockPool(2)
        assert pool.release("ghost", now=0.0) is None
        assert pool.releases == 0

    def test_reap_idle_expires_only_stale_leases(self):
        pool = ResourceBlockPool(2)
        stale = _lease("old", 0)
        stale.busy_until_s = 1.0
        fresh = _lease("new", 1)
        fresh.busy_until_s = 9.0
        pool.grant(stale, now=0.0)
        pool.grant(fresh, now=0.0)
        reaped = pool.reap_idle(now=7.0, idle_timeout_s=5.0)
        assert [lease.lease_id for lease in reaped] == ["old"]
        assert "new" in pool and "old" not in pool

    def test_utilization_integrates_busy_time(self):
        pool = ResourceBlockPool(2)
        pool.grant(_lease("a", 0), now=0.0)
        pool.release("a", now=5.0)
        # One of two blocks held for half a 10 s horizon → 25%.
        assert pool.utilization(10.0) == pytest.approx(0.25)

    def test_audit_clean_after_churn(self):
        pool = ResourceBlockPool(3)
        for i in range(9):
            pool.grant(_lease(f"l{i}", i % 3), now=float(i))
        for i in range(0, 9, 2):
            pool.release(f"l{i}", now=10.0)
        ok, reason = pool.audit()
        assert ok, reason
        assert sum(pool.occupancy()) == len(pool)

    def test_lease_arrays_follow_grant_move_and_release(self):
        pool = _pool(
            3,
            _lease("a", 0, pos=(1.0, 2.0)),
            _lease("b", 1, pos=(3.0, 4.0)),
            _lease("c", 2, pos=(5.0, 6.0)),
        )
        geom, blocks = pool.lease_arrays()
        assert blocks.tolist() == [0, 1, 2]
        # rows tx_x, rx_x, tx_y, rx_y
        assert geom[:, 1].tolist() == [3.0, 3.0, 4.0, 4.0]
        pool.release("b", now=1.0)
        assert pool.lease_arrays()[1].tolist() == [0, 3, 2]  # sentinel bin
        pool.grant(_lease("d", 2, pos=(7.0, 8.0)), now=1.0)
        geom, blocks = pool.lease_arrays()
        assert blocks.tolist() == [0, 2, 2]  # d took b's freed slot
        assert geom[:, 1].tolist() == [7.0, 7.0, 8.0, 8.0]
        lease = pool.get("d")
        pool.move(lease, (9.0, 10.0), (11.0, 12.0))
        assert (lease.tx_pos, lease.rx_pos) == ((9.0, 10.0), (11.0, 12.0))
        assert pool.lease_arrays()[0][:, 1].tolist() == [9.0, 11.0, 10.0, 12.0]
        assert pool.audit() == (True, "")

    def test_lease_arrays_double_when_full(self):
        pool = _pool(4, *(_lease(f"l{i}", i % 4, pos=(i, i)) for i in range(65)))
        geom, blocks = pool.lease_arrays()
        assert geom.shape == (4, 65)
        assert pool._slot_rb.size == 128
        assert blocks.tolist() == [i % 4 for i in range(65)]
        assert pool.audit() == (True, "")

    def test_audit_catches_arrays_out_of_step(self):
        pool = _pool(2, _lease("a", 0), _lease("b", 1))
        pool.get("a").tx_pos = (5.0, 5.0)  # moved without the pool
        ok, reason = pool.audit()
        assert not ok and "stale coordinates" in reason
        pool.move(pool.get("a"), (5.0, 5.0), (0.0, 0.0))
        assert pool.audit() == (True, "")
        pool.release("b", now=1.0)
        pool._slot_rb[1] = 1  # a freed slot left on its block
        ok, reason = pool.audit()
        assert not ok and "sentinel" in reason

    def test_rejects_empty_pool(self):
        with pytest.raises(ValueError):
            ResourceBlockPool(0)


def _requests(*positions):
    """LinkRequests with 1 m tx→rx offsets at the given anchor points."""
    return [
        LinkRequest(f"l{i}", (x, y), (x + 1.0, y))
        for i, (x, y) in enumerate(positions)
    ]


class TestAllocators:
    link = LinkModel()

    def test_make_allocator_resolves_names_and_instances(self):
        assert make_allocator(None).name == "centralized"
        assert make_allocator("message-passing").name == "message-passing"
        instance = CentralizedAllocator()
        assert make_allocator(instance) is instance
        with pytest.raises(ValueError, match="unknown allocator"):
            make_allocator("psychic")
        assert sorted(ALLOCATORS) == ["centralized", "message-passing"]

    def test_two_close_links_get_distinct_blocks(self):
        requests = _requests((0.0, 0.0), (3.0, 0.0))
        for name in ALLOCATORS:
            assignment = make_allocator(name).allocate(requests, 2, self.link)
            assert assignment["l0"] != assignment["l1"], name

    def test_far_links_may_share_but_near_pair_split_first(self):
        # Two colocated pairs far apart: the cheap split puts each
        # colocated pair on different blocks.
        requests = _requests(
            (0.0, 0.0), (2.0, 0.0), (500.0, 0.0), (502.0, 0.0)
        )
        assignment = CentralizedAllocator().allocate(requests, 2, self.link)
        assert assignment["l0"] != assignment["l1"]
        assert assignment["l2"] != assignment["l3"]

    def test_exhaustive_and_message_passing_agree_on_objective(self):
        requests = _requests((0.0, 0.0), (5.0, 5.0), (40.0, 10.0))
        exact = CentralizedAllocator().allocate(requests, 3, self.link)
        distributed = MessagePassingAllocator().allocate(requests, 3, self.link)
        assert total_penalty_mw(distributed, requests, self.link) == pytest.approx(
            total_penalty_mw(exact, requests, self.link), rel=1e-9, abs=1e-18
        )

    def test_message_passing_reports_iterations(self):
        allocator = MessagePassingAllocator()
        allocator.allocate(_requests((0.0, 0.0), (4.0, 0.0)), 2, self.link)
        assert allocator.last_iterations >= 1

    def test_contended_instance_iterates_and_matches_exhaustive(self):
        # Six clustered links over three blocks — a regression for the
        # broken min-sum update that collapsed every message to zero:
        # messages must actually propagate (more than one iteration) and
        # the settled assignment must reach the exhaustive optimum, which
        # pure 1-opt repair from an all-zeros start provably does not
        # (~2.5x the optimal objective on this geometry).
        requests = _requests(
            (0.0, 0.0), (3.0, 0.0), (6.0, 0.0),
            (0.0, 3.0), (3.0, 3.0), (6.0, 3.0),
        )
        allocator = MessagePassingAllocator()
        distributed = allocator.allocate(requests, 3, self.link)
        assert allocator.last_iterations > 1
        exact = CentralizedAllocator().allocate(requests, 3, self.link)
        assert total_penalty_mw(distributed, requests, self.link) == pytest.approx(
            total_penalty_mw(exact, requests, self.link), rel=1e-9, abs=1e-18
        )

    def test_centralized_pick_avoids_the_occupied_block(self):
        pool = _pool(2, _lease("busy", 0, pos=(0.0, 0.0)))
        request = LinkRequest("new", (1.0, 0.0), (2.0, 0.0))
        rb = CentralizedAllocator().pick(request, pool, self.link)
        assert rb == 1

    def test_message_passing_pick_joins_a_separating_consensus(self):
        # The distributed pick re-runs the joint consensus with live
        # leases pinned to their actual blocks, so the newcomer is the
        # node routed off the shared block.
        pool = _pool(2, _lease("zz->zz", 0, pos=(0.0, 0.0)))
        request = LinkRequest("aa->bb", (1.0, 0.0), (2.0, 0.0))
        allocator = MessagePassingAllocator()
        rb = allocator.pick(request, pool, self.link)
        assert rb == 1
        # And with no incumbents at all, the lowest block wins.
        assert allocator.pick(request, _pool(2), self.link) == 0

    def test_allocators_are_deterministic(self):
        requests = _requests((0.0, 0.0), (7.0, 3.0), (20.0, 8.0))
        for name in ALLOCATORS:
            first = make_allocator(name).allocate(requests, 3, self.link)
            second = make_allocator(name).allocate(requests, 3, self.link)
            assert first == second, name


class TestChannelModel:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChannelConfig(num_rbs=0)
        with pytest.raises(ValueError):
            ChannelConfig(min_rate_bps=0.0)
        with pytest.raises(ValueError):
            ChannelConfig(overhead_s=-1.0)

    def test_solo_transfer_runs_at_the_interference_free_bound(self):
        model = ChannelModel()
        grant = model.begin_transfer("a", "b", (0.0, 0.0), (5.0, 0.0), 100, 0.0)
        assert isinstance(grant, TransferGrant)
        assert grant.interferers == 0
        assert grant.rate_bps == pytest.approx(model.solo_rate_bps(5.0))
        assert grant.duration_s == pytest.approx(
            model.config.overhead_s + grant.airtime_s
        )

    def test_repeat_transfer_reuses_the_lease(self):
        model = ChannelModel()
        first = model.begin_transfer("a", "b", (0.0, 0.0), (5.0, 0.0), 100, 0.0)
        second = model.begin_transfer("a", "b", (0.0, 0.0), (5.0, 0.0), 100, 1.0)
        assert first.lease_id == second.lease_id
        assert model.pool.grants == 1

    def test_co_channel_interference_cuts_the_rate(self):
        # Force both directed links onto the same block with num_rbs=1.
        model = ChannelModel(ChannelConfig(num_rbs=1))
        solo = model.begin_transfer("a", "b", (0.0, 0.0), (5.0, 0.0), 100, 0.0)
        contended = model.begin_transfer(
            "c", "d", (10.0, 0.0), (15.0, 0.0), 100, 0.1
        )
        assert contended.interferers == 1
        assert contended.rate_bps < solo.rate_bps
        assert contended.sinr_db < model.solo_sinr_db(5.0)

    def test_rate_floor_terminates_hopeless_transfers(self):
        model = ChannelModel(ChannelConfig(num_rbs=1, min_rate_bps=1000.0))
        model.begin_transfer("a", "b", (0.0, 0.0), (5.0, 0.0), 100, 0.0)
        # Interferer transmitting right on top of the victim receiver.
        grant = model.begin_transfer(
            "c", "d", (1000.0, 0.0), (0.05, 0.0), 100, 0.1
        )
        assert grant.rate_bps >= 1000.0
        assert math.isfinite(grant.duration_s)

    def test_idle_leases_are_reaped_on_the_next_transfer(self):
        model = ChannelModel(ChannelConfig(lease_idle_timeout_s=2.0))
        model.begin_transfer("a", "b", (0.0, 0.0), (5.0, 0.0), 100, 0.0)
        model.begin_transfer("c", "d", (50.0, 0.0), (55.0, 0.0), 100, 10.0)
        assert model.pool.get("a->b") is None
        assert model.pool.releases == 1

    def test_stats_snapshot_shape(self):
        model = ChannelModel()
        model.begin_transfer("a", "b", (0.0, 0.0), (5.0, 0.0), 100, 0.0)
        model.end_of_run(10.0)
        snap = model.stats_snapshot(10.0)
        assert snap["mode"] == "sinr"
        assert snap["allocator"] == "centralized"
        assert snap["transfers"] == 1
        assert snap["rb_grants"] == 1
        assert 0.0 <= snap["rb_utilization"] <= 1.0
        assert snap["density"]["0"]["transfers"] == 1

    def test_empty_run_snapshot_uses_nulls_not_nan(self):
        snap = ChannelModel().stats_snapshot(10.0)
        assert snap["transfers"] == 0
        assert snap["mean_sinr_db"] is None
        assert snap["mean_rate_bps"] is None


class TestScenarioIntegration:
    def test_build_network_rejects_unknown_channel(self):
        with pytest.raises(ValueError, match="channel must be"):
            build_network(channel="magic")

    def test_fixed_mode_is_byte_identical_to_default(self):
        default = run_relay_scenario(n_ues=2, periods=3, seed=5)
        fixed = run_relay_scenario(n_ues=2, periods=3, seed=5, channel="fixed")
        assert (
            default.metrics.to_comparable_dict()
            == fixed.metrics.to_comparable_dict()
        )
        assert default.metrics.channel is None
        assert fixed.metrics.channel is None

    def test_channel_mode_attaches_aggregates_and_delivers(self):
        result = run_relay_scenario(n_ues=2, periods=3, seed=5, channel="sinr")
        stats = result.metrics.channel
        assert stats is not None and stats["mode"] == "sinr"
        assert stats["transfers"] > 0
        assert result.on_time_fraction() == 1.0

    def test_channel_mode_appears_in_comparable_dict(self):
        result = run_relay_scenario(n_ues=1, periods=2, seed=0, channel="sinr")
        comparable = result.metrics.to_comparable_dict()
        assert comparable["channel"]["mode"] == "sinr"

    def test_short_transfers_bill_less_forwarding_energy_than_fixed(self):
        # At 1 m the Shannon airtime is microseconds; the capacity-billed
        # forwarding charge must undercut the fixed 0.8 s constant.
        fixed = run_relay_scenario(n_ues=1, periods=3, seed=0)
        sinr = run_relay_scenario(n_ues=1, periods=3, seed=0, channel="sinr")
        fixed_fwd = fixed.metrics.devices["ue-0"].energy_breakdown["d2d_forward"]
        sinr_fwd = sinr.metrics.devices["ue-0"].energy_breakdown["d2d_forward"]
        assert 0.0 < sinr_fwd < fixed_fwd

    def test_message_passing_allocator_runs_the_crowd(self):
        result = run_crowd_scenario(
            n_devices=16, duration_s=300.0, seed=1,
            channel="sinr", allocator="message-passing", num_rbs=3,
        )
        stats = result.metrics.channel
        assert stats["allocator"] == "message-passing"
        assert stats["num_rbs"] == 3
        assert stats["transfers"] > 0

    def test_shadowing_sigma_knob_reshapes_discovery(self):
        calm = run_crowd_scenario(
            n_devices=12, duration_s=300.0, seed=3, shadowing_sigma_db=0.0
        )
        stormy = run_crowd_scenario(
            n_devices=12, duration_s=300.0, seed=3, shadowing_sigma_db=12.0
        )
        # Same seed, different lognormal regime: the RSSI draws differ.
        assert (
            calm.metrics.to_comparable_dict()
            != stormy.metrics.to_comparable_dict()
        )
        # And each regime is individually replayable.
        again = run_crowd_scenario(
            n_devices=12, duration_s=300.0, seed=3, shadowing_sigma_db=12.0
        )
        assert (
            stormy.metrics.to_comparable_dict()
            == again.metrics.to_comparable_dict()
        )

    def test_shadowing_sigma_applied_to_link_model(self):
        context = build_network(shadowing_sigma_db=9.5)
        assert context.medium.technology.link.shadowing_sigma_db == 9.5
        sinr_ctx = build_network(channel="sinr", shadowing_sigma_db=9.5)
        # The channel model shares the (overridden) link curve.
        assert sinr_ctx.medium.channel.link.shadowing_sigma_db == 9.5


class TestLinkEstimate:
    """`estimate_link` — the pure query feeding channel-aware selection."""

    def test_empty_channel_estimate_matches_the_solo_bound(self):
        model = ChannelModel()
        est = model.estimate_link((0.0, 0.0), (5.0, 0.0), 100)
        assert est.interferers == 0
        assert est.sinr_db == pytest.approx(model.solo_sinr_db(5.0))
        assert est.rate_bps == pytest.approx(model.solo_rate_bps(5.0))
        assert est.solo_rate_bps == pytest.approx(est.rate_bps)
        bits = (100 + model.config.protocol_overhead_bytes) * 8
        assert est.airtime_s == pytest.approx(bits / est.rate_bps)
        assert est.duration_s == pytest.approx(
            model.config.overhead_s + est.airtime_s
        )

    def test_estimate_sees_live_co_channel_interference(self):
        # One block only: the live lease must show up as an interferer.
        model = ChannelModel(ChannelConfig(num_rbs=1))
        model.begin_transfer("a", "b", (0.0, 0.0), (5.0, 0.0), 100, 0.0)
        est = model.estimate_link((10.0, 0.0), (15.0, 0.0), 100)
        assert est.interferers == 1
        assert est.sinr_db < est.solo_sinr_db
        assert est.rate_bps < est.solo_rate_bps

    def test_estimate_prefers_an_empty_block(self):
        # Six blocks, one occupied: the estimate lands on a free one and
        # predicts the interference-free figure.
        model = ChannelModel()
        model.begin_transfer("a", "b", (0.0, 0.0), (5.0, 0.0), 100, 0.0)
        est = model.estimate_link((10.0, 0.0), (15.0, 0.0), 100)
        assert est.interferers == 0
        assert est.rate_bps == pytest.approx(est.solo_rate_bps)

    def test_estimate_rate_never_below_the_floor(self):
        model = ChannelModel(ChannelConfig(num_rbs=1, min_rate_bps=1000.0))
        model.begin_transfer("a", "b", (0.0, 0.0), (5.0, 0.0), 100, 0.0)
        # victim receiver right next to the live transmitter
        est = model.estimate_link((1000.0, 0.0), (0.05, 0.0), 100)
        assert est.rate_bps >= 1000.0
        assert math.isfinite(est.duration_s)

    def test_estimate_is_pure(self):
        # Any number of estimates must not lease, reap, bill, or record.
        model = ChannelModel(ChannelConfig(lease_idle_timeout_s=2.0))
        model.begin_transfer("a", "b", (0.0, 0.0), (5.0, 0.0), 100, 0.0)
        before = (
            model.pool.grants,
            model.pool.releases,
            len(model.pool.live_leases()),
            model.stats.transfers,
        )
        for i in range(25):
            # far past the idle timeout: a stateful path would reap the lease
            model.estimate_link((10.0, 0.0), (15.0, 0.0), 100, now=100.0 + i)
        after = (
            model.pool.grants,
            model.pool.releases,
            len(model.pool.live_leases()),
            model.stats.transfers,
        )
        assert after == before


class TestLeasePositionRefresh:
    """Regression: interferer SINR used positions frozen at *their* last
    transfer. With a position resolver installed, live-lease endpoints
    follow the devices, so a later transfer sees co-channel transmitters
    where they are now — and `begin_transfer` refreshes the victim's own
    stale lease the same way."""

    @staticmethod
    def _tracked(model, positions):
        model.position_resolver = lambda device_id, now: positions.get(device_id)
        return model

    def test_interferer_position_tracks_the_resolver(self):
        positions = {"a": (0.0, 0.0), "b": (5.0, 0.0)}
        stale = ChannelModel(ChannelConfig(num_rbs=1))
        fresh = self._tracked(ChannelModel(ChannelConfig(num_rbs=1)), positions)
        for model in (stale, fresh):
            model.begin_transfer("a", "b", (0.0, 0.0), (5.0, 0.0), 100, 0.0)
        # "a" wanders right next to the new victim receiver "d"...
        positions["a"] = (100.0, 0.0)
        grant_stale = stale.begin_transfer(
            "c", "d", (95.0, 0.0), (100.0, 1.0), 100, 1.0
        )
        grant_fresh = fresh.begin_transfer(
            "c", "d", (95.0, 0.0), (100.0, 1.0), 100, 1.0
        )
        # ...so the refreshed model sees a much louder interferer.
        assert grant_fresh.sinr_db < grant_stale.sinr_db

    def test_estimate_link_resolves_interferer_positions(self):
        positions = {"a": (0.0, 0.0), "b": (5.0, 0.0)}
        model = self._tracked(ChannelModel(ChannelConfig(num_rbs=1)), positions)
        model.begin_transfer("a", "b", (0.0, 0.0), (5.0, 0.0), 100, 0.0)
        far = model.estimate_link((95.0, 0.0), (100.0, 1.0), 100, now=1.0)
        positions["a"] = (100.0, 0.0)
        near = model.estimate_link((95.0, 0.0), (100.0, 1.0), 100, now=1.0)
        assert near.sinr_db < far.sinr_db
        # without `now` the estimate reads the lease as-is (no resolver)
        stale = model.estimate_link((95.0, 0.0), (100.0, 1.0), 100)
        assert stale.sinr_db == pytest.approx(far.sinr_db)

    def test_unknown_devices_keep_their_lease_positions(self):
        model = ChannelModel(ChannelConfig(num_rbs=1))
        model.position_resolver = lambda device_id, now: None
        model.begin_transfer("a", "b", (0.0, 0.0), (5.0, 0.0), 100, 0.0)
        grant = model.begin_transfer(
            "c", "d", (10.0, 0.0), (15.0, 0.0), 100, 1.0
        )
        assert grant.interferers == 1  # resolver returning None is benign


class TestFixedLeases:
    """A lease between two static endpoints never moves, so the channel
    never re-resolves it; every other lease is resolved on every
    transfer, as before."""

    @staticmethod
    def _counting(model, positions):
        calls = collections.Counter()

        def resolver(device_id, now):
            calls[device_id] += 1
            return positions[device_id]

        model.position_resolver = resolver
        return calls

    def test_fixed_leases_are_never_resolved(self):
        positions = {
            "a": (0.0, 0.0), "b": (5.0, 0.0),
            "c": (20.0, 0.0), "d": (25.0, 0.0),
            "e": (40.0, 0.0), "f": (45.0, 0.0),
        }
        model = ChannelModel(ChannelConfig(num_rbs=2))
        calls = self._counting(model, positions)
        model.begin_transfer("a", "b", (0.0, 0.0), (5.0, 0.0), 100, 0.0, fixed=True)
        model.begin_transfer("c", "d", (20.0, 0.0), (25.0, 0.0), 100, 0.1)
        transfers = 5
        for i in range(transfers):
            model.begin_transfer(
                "e", "f", (40.0, 0.0), (45.0, 0.0), 100, 0.2 + 0.1 * i, fixed=True
            )
        assert calls["a"] == calls["b"] == 0
        # c->d is live (and movable) from the second transfer on; e->f is
        # fixed from its first
        assert calls["c"] == calls["d"] == transfers
        assert calls["e"] == calls["f"] == 0
        assert [lease.fixed for lease in model.pool.live_leases()] == [
            True, False, True,
        ]
        assert model.pool.movable_leases() == [model.pool.get("c->d")]

        calls.clear()
        model.estimate_link((60.0, 0.0), (65.0, 0.0), 100, now=1.0)
        assert calls == {"c": 1}  # only the movable lease's transmitter

    def test_standalone_leases_default_to_movable(self):
        model = ChannelModel()
        model.begin_transfer("a", "b", (0.0, 0.0), (5.0, 0.0), 100, 0.0)
        assert model.pool.get("a->b").fixed is False

    def test_medium_marks_only_static_pairs_fixed(self, sim):
        medium = D2DMedium(sim, WIFI_DIRECT, channel=ChannelModel())
        mobilities = {
            "ue": StaticMobility((0.0, 0.0)),
            "relay": StaticMobility((3.0, 0.0)),
            "walker": LinearMobility((0.0, 3.0), (0.1, 0.0)),
        }
        for device_id, mobility in mobilities.items():
            endpoint = D2DEndpoint(
                device_id, mobility, energy=EnergyModel(owner=device_id)
            )
            endpoint.advertising = True
            medium.register(endpoint)
        connections = []
        medium.connect("ue", "relay", connections.append)
        medium.connect("walker", "relay", connections.append)
        sim.run_until(5.0)
        for connection in connections:
            connection.send(connection.initiator.device_id, 100)
        pool = medium.channel.pool
        assert pool.get("ue->relay").fixed is True
        assert pool.get("walker->relay").fixed is False
