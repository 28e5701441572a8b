"""Regression tests for latent discovery-cache bugs.

The scan's one cache is ``D2DMedium._vector_blocks``: registration-order
sorted candidate blocks per ``(cell, k)``, all stamped with one global
``(index version, unindexed-set version)``. Earlier caches on the same
hot path had stamps that missed a class of invalidating change:

1. A sorted-candidate cache stamped ``(index version, endpoint count)``
   was blind to *unindexed-set churn*. Unregistering one unindexable
   device and registering another in the same window leaves both
   components unchanged, so scans served a stale id list (omitting the
   newcomer, and KeyError-ing on the departed id).
2. A block cache never evicted stale-version entries, so a mobile crowd
   querying from ever-new cells grew the cache without bound.
3. Once the last mover unregistered, the drift bound kept its old speed,
   so scan slack grew with the time since the last index refresh and
   every scan merged ever more cells.
"""

from __future__ import annotations

import pytest

from repro.d2d.base import D2DEndpoint, D2DMedium
from repro.d2d.wifi_direct import WIFI_DIRECT
from repro.mobility.models import LinearMobility, MobilityModel, StaticMobility
from repro.sim.engine import Simulator


class UnboundedMobility(MobilityModel):
    """Fixed position but no speed bound — unindexable on purpose.

    ``max_speed_m_s`` inherits the base class ``None``, which routes the
    endpoint into the medium's always-checked unindexed side set.
    """

    def __init__(self, position):
        self._position = position

    def position(self, t):
        return self._position

    def velocity(self, t):
        return (0.0, 0.0)


def _scan(medium, sim, requester_id, horizon):
    results = []
    medium.discover(requester_id, results.append)
    sim.run_until(horizon)
    assert results, "scan never completed"
    return results[-1]


class TestVectorBlockStamp:
    def test_swapping_unindexable_endpoints_is_visible_to_scans(self):
        """Unregister one unindexable peer, register another: the next
        scan must discover the newcomer, not serve the stale id list
        (index version and endpoint count are both unchanged by the swap,
        so only the unindexed-membership stamp component catches it)."""
        sim = Simulator(seed=1)
        medium = D2DMedium(sim, WIFI_DIRECT)
        scanner = D2DEndpoint("scanner", StaticMobility((0.0, 0.0)))
        medium.register(scanner)
        first = D2DEndpoint("peer-a", UnboundedMobility((5.0, 0.0)))
        first.advertising = True
        medium.register(first)

        found = _scan(medium, sim, "scanner", 3.0)
        assert [p.device_id for p in found] == ["peer-a"]

        medium.unregister("peer-a")
        second = D2DEndpoint("peer-b", UnboundedMobility((5.0, 0.0)))
        second.advertising = True
        medium.register(second)

        found = _scan(medium, sim, "scanner", 6.0)
        assert [p.device_id for p in found] == ["peer-b"]

    def test_vector_block_still_hits_when_membership_is_stable(self):
        """The two-part stamp must not break the cache's happy path."""
        sim = Simulator(seed=1)
        medium = D2DMedium(sim, WIFI_DIRECT)
        scanner = D2DEndpoint("scanner", StaticMobility((0.0, 0.0)))
        medium.register(scanner)
        peer = D2DEndpoint("peer", UnboundedMobility((5.0, 0.0)))
        peer.advertising = True
        medium.register(peer)

        _scan(medium, sim, "scanner", 3.0)
        _scan(medium, sim, "scanner", 6.0)
        assert medium.perf.vector_block_builds == 1

    def test_unregister_breaks_connections_and_forgets_the_endpoint(self):
        sim = Simulator(seed=1)
        medium = D2DMedium(sim, WIFI_DIRECT)
        a = D2DEndpoint("a", StaticMobility((0.0, 0.0)))
        b = D2DEndpoint("b", StaticMobility((3.0, 0.0)))
        medium.register(a)
        medium.register(b)
        connections = []
        medium.connect("a", "b", connections.append)
        sim.run_until(2.0)
        assert connections and connections[0] is not None

        medium.unregister("b")
        assert not connections[0].alive
        assert medium.live_connections() == []
        with pytest.raises(KeyError):
            medium.endpoint("b")
        # the id is reusable afterwards, with a fresh sequence number
        medium.register(D2DEndpoint("b", StaticMobility((4.0, 0.0))))

    def test_unregister_indexed_mobile_endpoint_drops_it_from_the_index(self):
        sim = Simulator(seed=1)
        medium = D2DMedium(sim, WIFI_DIRECT)
        medium.register(D2DEndpoint("scanner", StaticMobility((0.0, 0.0))))
        mover = D2DEndpoint("mover", LinearMobility((5.0, 0.0), (1.0, 0.0)))
        mover.advertising = True
        medium.register(mover)
        assert "mover" in medium._index
        medium.unregister("mover")
        assert "mover" not in medium._index
        assert [p.device_id for p in _scan(medium, sim, "scanner", 3.0)] == []


    def test_same_instant_churn_matches_the_oracle(self, brute_force):
        """Ghost-style churn: between scans, peers leave and come back
        under the same id at the same instant, at a new position —
        indexed peers after even rounds, unindexed ones after odd rounds,
        so each stamp component alone must catch its half. Every swap
        keeps the endpoint count."""

        def place(medium, kind, i, shift):
            if kind == "ghost":
                mobility = StaticMobility((6.0 * i + 3.0 + shift, 4.0))
            else:
                mobility = UnboundedMobility((4.0, 6.0 * i + 3.0 + shift))
            peer = D2DEndpoint(f"{kind}-{i}", mobility)
            peer.advertising = True
            medium.register(peer)

        def run():
            sim = Simulator(seed=4)
            medium = D2DMedium(sim, WIFI_DIRECT)
            medium.register(D2DEndpoint("scanner", StaticMobility((0.0, 0.0))))
            for i in range(4):
                place(medium, "ghost", i, 0.0)
                place(medium, "free", i, 0.0)
            observations = []
            for round_no in range(6):
                found = _scan(medium, sim, "scanner", 10.0 * round_no + 3.0)
                observations.append([(p.device_id, p.rssi_dbm) for p in found])
                kind = "ghost" if round_no % 2 == 0 else "free"
                shift = 40.0 if round_no % 4 < 2 else 0.0
                for i in range(4):
                    medium.unregister(f"{kind}-{i}")
                    place(medium, kind, i, shift)
            return medium, observations

        medium, indexed = run()
        assert medium.perf.vector_block_builds == 6
        with brute_force():
            __, brute = run()
        assert indexed == brute
        # the shifted rounds drop peers out of range: the churn is visible
        assert len({len(found) for found in indexed}) > 1

class TestBlockCacheBound:
    def test_block_cache_stays_bounded_under_sustained_movement(self):
        """A mover scanning from ever-new cells must not accumulate one
        coordinate block per cell it ever visited."""
        sim = Simulator(seed=1)
        medium = D2DMedium(sim, WIFI_DIRECT)
        medium.register(D2DEndpoint("walker", LinearMobility((0.0, 0.0), (15.0, 0.0))))
        medium.register(D2DEndpoint("rock", StaticMobility((5.0, 0.0))))
        for step in range(1, 201):
            # crosses a 50 m cell boundary every few scans
            _scan(medium, sim, "walker", step * 2.0)
            assert len(medium._vector_blocks) <= 2
        assert medium.perf.vector_block_builds > 50

    def test_block_cache_still_serves_repeat_queries(self):
        """Eviction on stamp moves must not cost the static-crowd win:
        every requester scanning from one cell shares one block."""
        sim = Simulator(seed=1)
        medium = D2DMedium(sim, WIFI_DIRECT)
        for device_id, pos in (("a", (10.0, 10.0)), ("b", (20.0, 10.0))):
            medium.register(D2DEndpoint(device_id, StaticMobility(pos)))
        _scan(medium, sim, "a", 3.0)
        first = dict(medium._vector_blocks)
        _scan(medium, sim, "b", 6.0)
        assert medium._vector_blocks == first
        assert medium.perf.vector_block_builds == 1


class TestMoverRefresh:
    def test_reused_block_rereads_its_movers_at_a_new_instant(self, brute_force):
        """A block outlives the instant it was built at: a mover drifting
        inside one index cell keeps the stamp and the block, so a later
        scan must re-read the mover's coordinates, not serve the ones
        baked in at the first scan."""

        def run():
            sim = Simulator(seed=1)
            medium = D2DMedium(sim, WIFI_DIRECT)
            medium.register(D2DEndpoint("scanner", StaticMobility((10.0, 10.0))))
            # at x = 22 m and 25 m when the scans complete: the scanner's cell
            mover = D2DEndpoint("mover", LinearMobility((20.0, 10.0), (1.0, 0.0)))
            mover.advertising = True
            medium.register(mover)
            scans = [_scan(medium, sim, "scanner", horizon) for horizon in (3.0, 13.0)]
            observed = [
                [(p.device_id, p.rssi_dbm, p.estimated_distance_m) for p in found]
                for found in scans
            ]
            return medium, observed

        medium, indexed = run()
        assert medium.perf.vector_block_builds == 1
        with brute_force():
            __, brute = run()
        assert indexed == brute


class TestMoverSlack:
    def test_slack_drops_to_zero_once_the_last_mover_leaves(self, brute_force):
        """With no movers there is no drift: a scan long after the last
        mover unregistered must merge only the 3x3 cells of its own range
        (``k == 1``), not ``speed × elapsed`` worth of extra rings."""

        def run():
            sim = Simulator(seed=1)
            medium = D2DMedium(sim, WIFI_DIRECT)
            medium.register(D2DEndpoint("scanner", StaticMobility((0.0, 0.0))))
            peer = D2DEndpoint("peer", StaticMobility((5.0, 0.0)))
            peer.advertising = True
            medium.register(peer)
            medium.register(
                D2DEndpoint("mover", LinearMobility((10.0, 0.0), (1.5, 0.0)))
            )
            medium.unregister("mover")
            sim.run_until(10_000.0)
            found = _scan(medium, sim, "scanner", 10_003.0)
            return medium, [(p.device_id, p.rssi_dbm) for p in found]

        medium, indexed = run()
        assert [k for __, k in medium._vector_blocks] == [1]
        with brute_force():
            __, brute = run()
        assert indexed == brute
        assert [device_id for device_id, __ in indexed] == ["peer"]

    def test_slack_covers_a_mover_that_drifted_into_range(self, brute_force):
        """Between index refreshes a mover's bin goes stale; the scan's
        widened reach must still find it once it has drifted in range."""

        def run():
            sim = Simulator(seed=1)
            medium = D2DMedium(sim, WIFI_DIRECT, index_refresh_s=10.0)
            medium.register(D2DEndpoint("scanner", StaticMobility((0.0, 0.0))))
            # binned two cells west at t=0, 40 m out when the scan completes
            mover = D2DEndpoint("mover", LinearMobility((-60.0, 0.0), (10.0, 0.0)))
            mover.advertising = True
            medium.register(mover)
            found = _scan(medium, sim, "scanner", 3.0)
            return [(p.device_id, p.rssi_dbm) for p in found]

        indexed = run()
        with brute_force():
            brute = run()
        assert indexed == brute
        assert [device_id for device_id, __ in indexed] == ["mover"]
