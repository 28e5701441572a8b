"""Property-based physics suite for the channel layer.

Hypothesis pins the claims that make the SINR/resource-block model
trustworthy as *physics* rather than arbitrary arithmetic:

1. **SINR monotonicity in interferer count** — adding a co-channel
   transmitter never improves any receiver's SINR;
2. **SINR monotonicity in interferer distance** — pushing an interferer
   farther away never hurts;
3. **Shannon bound** — no granted transfer rate exceeds the
   interference-free Shannon capacity of the same geometry (modulo the
   explicit termination floor);
4. **no double-booking** — under arbitrary grant/release/reap sequences
   the pool's books stay consistent and re-granting a live lease always
   raises, and reaping from the pool's expiry heap releases exactly the
   leases, in exactly the order, of the linear walk in
   ``tests/conftest.py``;
5. **allocator equivalence** — on instances small enough to enumerate,
   the distributed message-passing allocator lands on assignments with
   the same total-interference objective as the exhaustive centralized
   one;
6. **vector pick** — the centralized allocator's numpy pick over the
   pool's lease arrays chooses exactly the block the per-block
   reference walk in ``tests/conftest.py`` chooses, under any
   interleaving of grants, releases and moves (slot reuse and array
   growth included), with near ties settled by the exact scalar sums;
   and the batched power arithmetic is bit-identical to the per-pair
   composition.

The ``ci`` settings profile (selected via ``HYPOTHESIS_PROFILE=ci``)
caps example counts so the suite stays inside a smoke-job budget;
``derandomize=True`` keeps both profiles deterministic.
"""

import os
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.channel import allocator as allocator_module
from repro.channel.allocator import (
    CentralizedAllocator,
    LinkRequest,
    MessagePassingAllocator,
    received_mw_block,
    total_penalty_mw,
)
from repro.channel.model import ChannelConfig, ChannelModel
from repro.channel.phy import (
    dbm_to_mw,
    shannon_capacity_bps,
    sinr_db,
    thermal_noise_dbm,
)
from repro.channel.rb import RBLease, ResourceBlockPool
from repro.d2d.link import LinkModel
from repro.mobility.space import distance_between

settings.register_profile("default", settings(deadline=None, derandomize=True))
settings.register_profile(
    "ci", settings(deadline=None, derandomize=True, max_examples=25)
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

LINK = LinkModel()
NOISE_DBM = thermal_noise_dbm(180_000.0, noise_figure_db=7.0)

power_dbm = st.floats(min_value=-120.0, max_value=0.0)
interferer_lists = st.lists(power_dbm, max_size=6)
distances = st.floats(min_value=0.5, max_value=200.0)
coords = st.floats(min_value=0.0, max_value=300.0)
positions = st.tuples(coords, coords)


class TestSinrMonotonicity:
    @given(power_dbm, interferer_lists, power_dbm)
    def test_adding_an_interferer_never_raises_sinr(
        self, signal, interferers, extra
    ):
        without = sinr_db(signal, interferers, NOISE_DBM)
        with_extra = sinr_db(signal, interferers + [extra], NOISE_DBM)
        assert with_extra <= without

    @given(distances, distances, distances)
    def test_pushing_an_interferer_away_never_hurts(
        self, signal_distance, near, far
    ):
        near, far = sorted((near, far))
        signal = LINK.rssi(signal_distance)
        closer = sinr_db(signal, [LINK.rssi(near)], NOISE_DBM)
        farther = sinr_db(signal, [LINK.rssi(far)], NOISE_DBM)
        assert farther >= closer

    @given(power_dbm, interferer_lists)
    def test_interference_free_is_the_ceiling(self, signal, interferers):
        assert sinr_db(signal, interferers, NOISE_DBM) <= sinr_db(
            signal, (), NOISE_DBM
        )


class TestShannonBound:
    @given(
        distances,
        st.lists(st.tuples(positions, positions), max_size=5),
        st.integers(min_value=1, max_value=512),
    )
    def test_granted_rate_never_beats_the_solo_bound(
        self, distance, interferer_links, payload
    ):
        model = ChannelModel(ChannelConfig(num_rbs=1))
        for i, (tx, rx) in enumerate(interferer_links):
            model.begin_transfer(f"i{i}", f"j{i}", tx, rx, payload, 0.0)
        grant = model.begin_transfer(
            "a", "b", (0.0, 0.0), (distance, 0.0), payload, 0.1
        )
        ceiling = max(model.solo_rate_bps(distance), model.config.min_rate_bps)
        assert grant.rate_bps <= ceiling * (1 + 1e-12)
        assert grant.airtime_s > 0.0

    @given(st.floats(min_value=-40.0, max_value=60.0))
    def test_capacity_monotone_in_sinr(self, sinr):
        lower = shannon_capacity_bps(180_000.0, sinr - 1.0)
        upper = shannon_capacity_bps(180_000.0, sinr)
        assert upper >= lower >= 0.0


pool_ops = st.lists(
    st.tuples(
        st.sampled_from(["grant", "release", "reap"]),
        st.integers(min_value=0, max_value=7),  # lease slot
        st.integers(min_value=0, max_value=3),  # rb
        st.booleans(),  # fixed
    ),
    max_size=40,
)


class TestPoolBookkeeping:
    @given(pool_ops)
    def test_no_double_booking_under_arbitrary_op_sequences(self, ops):
        pool = ResourceBlockPool(4)
        now = 0.0
        for op, slot, rb, fixed in ops:
            now += 0.5
            lease_id = f"lease-{slot}"
            if op == "grant":
                lease = RBLease(
                    lease_id=lease_id, rb=rb, tx_id="t", rx_id="r",
                    tx_pos=(0.0, 0.0), rx_pos=(1.0, 0.0),
                    created_s=now, busy_until_s=now + 1.0, fixed=fixed,
                )
                if lease_id in pool:
                    with pytest.raises(ValueError):
                        pool.grant(lease, now)
                else:
                    pool.grant(lease, now)
            elif op == "release":
                pool.release(lease_id, now)
            else:
                pool.reap_idle(now, idle_timeout_s=3.0)
            ok, reason = pool.audit()
            assert ok, reason
            assert sum(pool.occupancy()) == len(pool)
            assert pool.movable_leases() == [
                lease for lease in pool.live_leases() if not lease.fixed
            ]
        assert pool.grants - pool.releases == len(pool)


reap_ops = st.lists(
    st.tuples(
        st.sampled_from(["grant", "transfer", "release", "reap"]),
        st.integers(min_value=0, max_value=5),  # lease
        st.sampled_from([0.0, 0.5, 1.0, 2.5]),  # time step
        st.sampled_from([0.0, 0.25, 1.0, 4.0]),  # airtime or idle timeout
    ),
    max_size=60,
)


class TestReapOracle:
    """The expiry heap reaps what the linear walk reaps.

    Two pools take the same grants, transfers (which extend a lease's
    ``busy_until_s`` the way :meth:`ChannelModel.begin_transfer` does),
    releases and reaps; one reaps from its heap, the other with the walk
    in ``tests/conftest.py``. Reaped leases, their order, slot reuse and
    busy-time integration must stay equal, and both books must audit.
    """

    @given(reap_ops)
    @example([
        ("grant", 0, 0.0, 0.0), ("transfer", 0, 1.0, 4.0),
        ("reap", 0, 2.5, 1.0), ("grant", 1, 0.0, 0.0),
        ("reap", 0, 2.5, 1.0), ("grant", 0, 0.5, 0.0),
        ("reap", 0, 2.5, 0.0),
    ])
    def test_heap_reaps_like_the_walk(self, reap_oracle, ops):
        pools = (ResourceBlockPool(3), ResourceBlockPool(3))
        now = 0.0
        for op, index, step, amount in ops:
            now += step
            lease_id = f"lease-{index}"
            if op == "grant":
                for pool in pools:
                    if lease_id not in pool:
                        pool.grant(RBLease(
                            lease_id=lease_id, rb=index % 3, tx_id="t",
                            rx_id="r", tx_pos=(float(index), 0.0),
                            rx_pos=(0.0, 1.0), created_s=now,
                            busy_until_s=now,
                        ), now)
            elif op == "transfer":
                for pool in pools:
                    lease = pool.get(lease_id)
                    if lease is not None:
                        lease.busy_until_s = max(lease.busy_until_s, now + amount)
            elif op == "release":
                for pool in pools:
                    pool.release(lease_id, now)
            else:
                heap = pools[0].reap_idle(now, amount)
                walk = reap_oracle(pools[1], now, amount)
                assert [l.lease_id for l in heap] == [l.lease_id for l in walk]
            for pool in pools:
                ok, reason = pool.audit()
                assert ok, reason
            assert pools[0].live_leases() == pools[1].live_leases()
            assert pools[0]._slot_of == pools[1]._slot_of
            assert pools[0].busy_seconds() == pools[1].busy_seconds()


small_instances = st.tuples(
    st.lists(st.tuples(positions, positions), min_size=1, max_size=3),
    st.integers(min_value=2, max_value=3),
)


class TestAllocatorEquivalence:
    @given(small_instances)
    def test_distributed_matches_exhaustive_objective(self, instance):
        links, num_rbs = instance
        requests = [
            LinkRequest(f"l{i}", tx, rx) for i, (tx, rx) in enumerate(links)
        ]
        exact = CentralizedAllocator().allocate(requests, num_rbs, LINK)
        distributed = MessagePassingAllocator().allocate(
            requests, num_rbs, LINK
        )
        assert set(exact) == set(distributed) == {r.link_id for r in requests}
        assert all(0 <= rb < num_rbs for rb in distributed.values())
        exact_cost = total_penalty_mw(exact, requests, LINK)
        distributed_cost = total_penalty_mw(distributed, requests, LINK)
        assert distributed_cost == pytest.approx(
            exact_cost, rel=1e-9, abs=1e-15
        )


# Coordinates on a coarse grid plus a point 5 mm off the origin, so
# co-located endpoints (and paths under the 0.01 m clamp) come up often.
GRID = [0.0, 0.005, 1.0, 2.5, 40.0]
near_coords = st.sampled_from(GRID)
clamp_positions = st.one_of(positions, st.tuples(near_coords, near_coords))
lease_geometries = st.lists(
    st.tuples(clamp_positions, clamp_positions, st.integers(0, 5)),
    max_size=12,
)


def _pool_of(geometries, num_rbs):
    pool = ResourceBlockPool(num_rbs)
    for i, (tx, rx, rb) in enumerate(geometries):
        pool.grant(
            RBLease(
                lease_id=f"l{i}", rb=rb % num_rbs, tx_id=f"t{i}",
                rx_id=f"r{i}", tx_pos=tx, rx_pos=rx, created_s=0.0,
                busy_until_s=0.0,
            ),
            0.0,
        )
    return pool


def _picks_like_the_reference(reference_pick, request, pool):
    picked = CentralizedAllocator().pick(request, pool, LINK)
    assert picked == reference_pick(
        request, pool.live_leases(), pool.num_rbs, LINK
    )
    return picked


class TestGreedyPickOracle:
    """The vector pick prices every block in numpy and re-prices any
    near-tied blocks in the scalar arithmetic of the per-block reference
    walk, summed in grant order as ``(total + heard) + caused`` — so it
    must pick the very same block, tie-breaks included."""

    @given(
        st.tuples(clamp_positions, clamp_positions),
        lease_geometries,
        st.integers(min_value=1, max_value=6),
    )
    @example(((0.0, 0.0), (5.0, 0.0)), [], 6)  # no live lease
    @example(  # every path co-located: all under the clamp
        ((0.0, 0.0), (0.0, 0.0)), [((0.0, 0.0), (0.005, 0.0), 1)], 3
    )
    @example(  # the same lease geometry on every block: a 4-way tie
        ((0.0, 0.0), (5.0, 0.0)),
        [((20.0, 0.0), (25.0, 0.0), rb) for rb in range(4)],
        4,
    )
    def test_vector_pick_equals_the_reference(
        self, reference_pick, request_geometry, geometries, num_rbs
    ):
        request = LinkRequest("new", *request_geometry)
        _picks_like_the_reference(
            reference_pick, request, _pool_of(geometries, num_rbs)
        )

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        num_rbs=st.integers(min_value=1, max_value=6),
        bulk=st.integers(min_value=0, max_value=200),
        ops=st.lists(
            st.sampled_from(["grant", "release", "move", "pick"]),
            max_size=60,
        ),
    )
    @example(seed=0, num_rbs=1, bulk=3, ops=["pick", "move", "pick"])
    @example(  # the arrays grow past 64 slots, then freed slots are reused
        seed=1, num_rbs=6, bulk=150,
        ops=["release"] * 20 + ["grant"] * 30 + ["move", "pick"] * 5,
    )
    def test_interleaved_pool_churn_keeps_the_reference_pick(
        self, reference_pick, seed, num_rbs, bulk, ops
    ):
        # Coordinates mix the clamp-prone grid with a 300 m arena, so
        # co-located paths and exact ties come up next to spread ones.
        rng = random.Random(seed)

        def position():
            if rng.random() < 0.3:
                return (rng.choice(GRID), rng.choice(GRID))
            return (rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0))

        pool = ResourceBlockPool(num_rbs)
        granted = 0

        def grant():
            nonlocal granted
            pool.grant(
                RBLease(
                    lease_id=f"l{granted}", rb=rng.randrange(num_rbs),
                    tx_id=f"t{granted}", rx_id=f"r{granted}",
                    tx_pos=position(), rx_pos=position(), created_s=0.0,
                    busy_until_s=0.0, fixed=rng.random() < 0.5,
                ),
                0.0,
            )
            granted += 1

        for _ in range(bulk):
            grant()
        for op in ["pick"] + ops + ["pick"]:
            live = pool.live_leases()
            movable = pool.movable_leases()
            if op == "grant":
                grant()
            elif op == "release" and live:
                pool.release(rng.choice(live).lease_id, 0.0)
            elif op == "move" and movable:
                pool.move(rng.choice(movable), position(), position())
            elif op == "pick":
                request = LinkRequest("new", position(), position())
                _picks_like_the_reference(reference_pick, request, pool)
            ok, reason = pool.audit()
            assert ok, reason

    @pytest.mark.parametrize("offset_m", [1e-12, -1e-12, 1e-10, 0.0])
    def test_near_tie_is_confirmed_exactly(
        self, reference_pick, monkeypatch, offset_m
    ):
        # One lease per block, the block-1 transmitter ``offset_m``
        # farther from the newcomer: the vector costs agree to far
        # inside the near-tie margin, so the scalar sums decide.
        confirmations = []
        exact = allocator_module._exact_block_cost

        def counting(request, leases, link):
            confirmations.append(len(leases))
            return exact(request, leases, link)

        monkeypatch.setattr(allocator_module, "_exact_block_cost", counting)
        pool = _pool_of(
            [
                ((30.0, 0.0), (35.0, 0.0), 0),
                ((30.0 + offset_m, 0.0), (35.0, 0.0), 1),
                ((6.0, 0.0), (7.0, 0.0), 2),  # much louder: never tied
            ],
            3,
        )
        request = LinkRequest("new", (0.0, 0.0), (5.0, 0.0))
        picked = _picks_like_the_reference(reference_pick, request, pool)
        assert confirmations == [1, 1]  # blocks 0 and 1, re-priced
        assert picked == (1 if offset_m > 0.0 else 0)

    def test_a_clear_minimum_skips_the_exact_sums(
        self, reference_pick, monkeypatch
    ):
        confirmations = []
        monkeypatch.setattr(
            allocator_module, "_exact_block_cost",
            lambda *args: confirmations.append(args),
        )
        pool = _pool_of(
            [((30.0, 0.0), (35.0, 0.0), 0), ((6.0, 0.0), (7.0, 0.0), 1)], 2
        )
        request = LinkRequest("new", (0.0, 0.0), (5.0, 0.0))
        assert CentralizedAllocator().pick(request, pool, LINK) == 0
        assert confirmations == []

    @given(st.integers(min_value=1, max_value=6), lease_geometries)
    def test_equal_costs_tie_to_block_zero(self, num_rbs, geometries):
        # Replicate one block's leases onto every block: all costs equal.
        request = LinkRequest("new", (0.0, 0.0), (5.0, 0.0))
        pool = _pool_of(
            [(tx, rx, rb) for tx, rx, _ in geometries for rb in range(num_rbs)],
            num_rbs,
        )
        assert CentralizedAllocator().pick(request, pool, LINK) == 0

    @given(clamp_positions, st.lists(clamp_positions, max_size=8))
    def test_power_block_is_the_per_pair_composition(self, origin, points):
        batched = received_mw_block(LINK, origin, points)
        for point, power in zip(points, batched):
            # both path directions, bit for bit
            assert power == dbm_to_mw(LINK.rssi(distance_between(point, origin)))
            assert power == dbm_to_mw(LINK.rssi(distance_between(origin, point)))
        assert len(batched) == len(points)


class TestEstimateBound:
    """`estimate_link` honours the same physics as granted transfers:
    the predicted (contended) rate never beats the interference-free
    Shannon bound for its geometry, so channel-aware relay selection can
    never be lured by an impossible rate."""

    @given(
        distances,
        st.lists(st.tuples(positions, positions), max_size=5),
        st.integers(min_value=1, max_value=512),
        st.integers(min_value=1, max_value=6),
    )
    def test_estimated_rate_never_beats_the_solo_bound(
        self, distance, interferer_links, payload, num_rbs
    ):
        model = ChannelModel(ChannelConfig(num_rbs=num_rbs))
        for i, (tx, rx) in enumerate(interferer_links):
            model.begin_transfer(f"i{i}", f"j{i}", tx, rx, payload, 0.0)
        est = model.estimate_link((0.0, 0.0), (distance, 0.0), payload, now=0.1)
        ceiling = max(model.solo_rate_bps(distance), model.config.min_rate_bps)
        assert est.rate_bps <= ceiling * (1 + 1e-12)
        assert est.rate_bps <= max(est.solo_rate_bps, model.config.min_rate_bps) * (
            1 + 1e-12
        )
        assert est.sinr_db <= est.solo_sinr_db + 1e-9
        assert est.airtime_s > 0.0
        assert est.duration_s >= est.airtime_s

    @given(
        distances,
        st.lists(st.tuples(positions, positions), min_size=1, max_size=5),
        st.integers(min_value=1, max_value=512),
    )
    def test_estimate_agrees_with_an_immediate_grant_on_one_block(
        self, distance, interferer_links, payload
    ):
        # On a single block the best-RB search degenerates to "the" block,
        # so the pure estimate must predict exactly what an immediate
        # admission is then granted.
        model = ChannelModel(ChannelConfig(num_rbs=1))
        for i, (tx, rx) in enumerate(interferer_links):
            model.begin_transfer(f"i{i}", f"j{i}", tx, rx, payload, 0.0)
        est = model.estimate_link((0.0, 0.0), (distance, 0.0), payload, now=0.1)
        grant = model.begin_transfer(
            "a", "b", (0.0, 0.0), (distance, 0.0), payload, 0.1
        )
        assert grant.rate_bps == pytest.approx(est.rate_bps)
        assert grant.sinr_db == pytest.approx(est.sinr_db)
