"""Regression tests for latent discovery-cache bugs.

A scan reads two candidate blocks. Static blocks
(``D2DMedium._static_blocks``) hold the static endpoints of the 3×3
index cells around one cell and are evicted only by static churn within
one cell of their key. Movers — every endpoint whose speed bound is
nonzero or unknown — are not indexed: the one mover block
(``D2DMedium._mover_block``) holds all of them in registration order, is
rebuilt when the mover set changes and gets fresh coordinates once per
instant. Earlier caches on the same hot path had stamps that missed a
class of invalidating change:

1. A sorted-candidate cache stamped ``(index version, endpoint count)``
   was blind to *unindexed-set churn*. Unregistering one unindexable
   device and registering another in the same window leaves both
   components unchanged, so scans served a stale id list (omitting the
   newcomer, and KeyError-ing on the departed id).
2. A block cache never evicted stale-version entries, so a mobile crowd
   querying from ever-new cells grew the cache without bound.
3. Once the last mover unregistered, the drift bound kept its old speed,
   so scan slack grew with the time since the last index refresh and
   every scan merged ever more cells (movers were still indexed then).
4. One global stamp over every block meant any mover crossing any cell
   rebuilt every block, static-only ones included.
"""

from __future__ import annotations

import pytest

from repro.d2d.base import D2DEndpoint, D2DMedium
from repro.d2d.wifi_direct import WIFI_DIRECT
from repro.mobility.models import LinearMobility, MobilityModel, StaticMobility
from repro.sim.engine import Simulator


class UnboundedMobility(MobilityModel):
    """Fixed position but no speed bound — unindexable on purpose.

    ``max_speed_m_s`` inherits the base class ``None``, which makes the
    endpoint a mover whose position the medium reads by a scalar call.
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
        # silent, in the next cell east: scans from there after the unregister
        medium.register(D2DEndpoint("watcher", StaticMobility((65.0, 0.0))))
        # silent and far off, but it keeps the mover blocks in use once the
        # mover is gone
        medium.register(D2DEndpoint("free", UnboundedMobility((1000.0, 0.0))))
        # 40 m out in the scanner's cell at t=2, 55 m out in the next at t=5
        mover = D2DEndpoint("mover", LinearMobility((30.0, 0.0), (5.0, 0.0)))
        mover.advertising = True
        medium.register(mover)
        assert list(medium._movers) == ["free", "mover"]
        assert "mover" not in medium._static_index
        assert [p.device_id for p in _scan(medium, sim, "scanner", 3.0)] == ["mover"]
        statics = dict(medium._static_blocks)
        assert statics
        # the mover walks into the next cell: the mover block is kept
        # (motion only refreshes its coordinates) and so are the statics
        block = medium._mover_block
        assert [p.device_id for p in _scan(medium, sim, "scanner", 6.0)] == []
        assert medium._mover_block is block
        assert medium._static_blocks == statics
        # 5 m from the watcher at t=8: found through the same block
        assert [p.device_id for p in _scan(medium, sim, "watcher", 9.0)] == ["mover"]
        statics = dict(medium._static_blocks)
        medium.unregister("mover")
        assert list(medium._movers) == ["free"]
        assert medium._static_blocks == statics
        # it would stand 20 m from the watcher at t=11: a mover block
        # left stale by the unregister would still return it
        assert [p.device_id for p in _scan(medium, sim, "watcher", 12.0)] == []
        assert medium.perf.vector_block_builds == 2

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
            # four cells east of every ghost: outside their 3×3 neighbourhoods
            medium.register(D2DEndpoint("far", StaticMobility((205.0, 0.0))))
            for i in range(4):
                place(medium, "ghost", i, 0.0)
                place(medium, "free", i, 0.0)
            observations = []
            for round_no in range(6):
                found = _scan(medium, sim, "scanner", 10.0 * round_no + 3.0)
                observations.append([(p.device_id, p.rssi_dbm) for p in found])
                _scan(medium, sim, "far", 10.0 * round_no + 6.0)
                kind = "ghost" if round_no % 2 == 0 else "free"
                shift = 40.0 if round_no % 4 < 2 else 0.0
                for i in range(4):
                    medium.unregister(f"{kind}-{i}")
                    place(medium, kind, i, shift)
            return medium, observations

        medium, indexed = run()
        # static churn evicts only its 3×3 neighbourhood: the scanner's
        # block is rebuilt after each of the three ghost rounds, the far
        # scanner's block is built once
        assert medium.perf.vector_block_builds == 1 + 3 + 1
        assert (4, 0) in medium._static_blocks
        with brute_force():
            __, brute = run()
        assert indexed == brute
        # the shifted rounds drop peers out of range: the churn is visible
        assert len({len(found) for found in indexed}) > 1

class TestSplitBlocks:
    def test_crossing_movers_and_churn_match_the_oracle(self, brute_force):
        """Movers cross index cells between scans while statics and
        unindexed peers churn: every scan — statics and movers scanning
        as same-instant cohorts — must see exactly the oracle's peers,
        RSSI draws and order."""

        def run():
            sim = Simulator(seed=7)
            medium = D2DMedium(sim, WIFI_DIRECT)
            scanners = []
            for i in range(9):
                device_id = f"static-{i}"
                peer = D2DEndpoint(
                    device_id, StaticMobility((40.0 * (i % 3) + 5.0, 40.0 * (i // 3) + 5.0))
                )
                peer.advertising = True
                medium.register(peer)
                scanners.append(device_id)
            for i in range(6):
                device_id = f"mover-{i}"
                velocity = ((-1.0) ** i * (4.0 + i), 3.0 - i)
                peer = D2DEndpoint(
                    device_id, LinearMobility((60.0 + 7.0 * i, 50.0 - 9.0 * i), velocity)
                )
                peer.advertising = True
                medium.register(peer)
                scanners.append(device_id)
            for i in range(2):
                peer = D2DEndpoint(f"free-{i}", UnboundedMobility((30.0 + 50.0 * i, 60.0)))
                peer.advertising = True
                medium.register(peer)
            observations = []
            # the index cell of every linear mover, per round
            mover_cells = []
            for round_no in range(8):
                results = {}
                for device_id in scanners:
                    medium.discover(device_id, results.setdefault(device_id, []).extend)
                sim.run_until(5.0 * round_no + 3.0)
                mover_cells.append(
                    tuple(
                        medium._static_index._cell_of(
                            medium.endpoint(f"mover-{i}").position(sim.now)
                        )
                        for i in range(6)
                    )
                )
                observations.append(
                    {
                        device_id: [
                            (p.device_id, p.rssi_dbm, p.estimated_distance_m)
                            for p in found
                        ]
                        for device_id, found in results.items()
                    }
                )
                # churn: one static moves across a cell edge, one
                # unindexed peer is swapped for a newcomer
                moved = f"static-{round_no % 9}"
                x, y = medium.endpoint(moved).position(sim.now)
                medium.unregister(moved)
                peer = D2DEndpoint(moved, StaticMobility((x + 23.0, y)))
                peer.advertising = True
                medium.register(peer)
                medium.unregister(f"free-{round_no % 2}" if round_no < 2 else f"free-{round_no}")
                peer = D2DEndpoint(
                    f"free-{round_no + 2}", UnboundedMobility((20.0 * round_no, 45.0))
                )
                peer.advertising = True
                medium.register(peer)
                sim.run_until(5.0 * round_no + 5.0)
            return medium, observations, mover_cells

        medium, indexed, mover_cells = run()
        with brute_force():
            __, brute, __ = run()
        assert indexed == brute
        # not vacuous: movers crossed cells and were found, statics kept
        # some blocks across rounds
        assert len(set(mover_cells)) > 4
        assert any(
            device_id.startswith("mover-")
            for round_obs in indexed
            for found in round_obs.values()
            for device_id, __, __ in found
        )
        assert medium.perf.vector_block_builds < medium.perf.scans / 2


class TestBlockCacheBound:
    def test_block_cache_stays_bounded_under_sustained_movement(self):
        """A mover scanning from ever-new cells must not accumulate one
        coordinate block per cell it ever visited: the cells past the
        rock's neighbourhood hold no static, so no static block is kept
        for them, and the one mover block is never rebuilt by motion."""
        sim = Simulator(seed=1)
        medium = D2DMedium(sim, WIFI_DIRECT)
        medium.register(D2DEndpoint("walker", LinearMobility((0.0, 0.0), (15.0, 0.0))))
        medium.register(D2DEndpoint("rock", StaticMobility((5.0, 0.0))))
        _scan(medium, sim, "walker", 2.0)
        block = medium._mover_block
        cells = set()
        for step in range(2, 201):
            # crosses a 50 m cell boundary every few scans
            _scan(medium, sim, "walker", step * 2.0)
            assert medium._mover_block is block
            assert block.ids.tolist() == ["walker"]
            assert block.xs.tolist() == [15.0 * medium._mover_block_t]
            cells.add(medium._static_index._cell_of((block.xs[0], block.ys[0])))
        # the walker crossed some 120 cells ...
        assert len(cells) > 100
        # ... while only its first two cells see the rock
        assert sorted(medium._static_blocks) == [(0, 0), (1, 0)]
        assert medium.perf.vector_block_builds == 2

    def test_block_cache_still_serves_repeat_queries(self):
        """Eviction on stamp moves must not cost the static-crowd win:
        every requester scanning from one cell shares one block."""
        sim = Simulator(seed=1)
        medium = D2DMedium(sim, WIFI_DIRECT)
        for device_id, pos in (("a", (10.0, 10.0)), ("b", (20.0, 10.0))):
            medium.register(D2DEndpoint(device_id, StaticMobility(pos)))
        _scan(medium, sim, "a", 3.0)
        first = dict(medium._static_blocks)
        _scan(medium, sim, "b", 6.0)
        assert medium._static_blocks == first
        assert medium.perf.vector_block_builds == 1


class TestMoverRefresh:
    def test_reused_block_rereads_its_movers_at_a_new_instant(self, brute_force):
        """The mover block outlives the instant it was built at: with the
        mover set unchanged it is kept, so a later scan must recompute
        the mover's coordinates, not serve those of the first scan."""

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
    """Named for the drift slack movers needed while they were indexed.
    No mover is indexed now, so no slack exists; these pin the scans that
    slack had to get right."""

    def test_slack_drops_to_zero_once_the_last_mover_leaves(self, brute_force):
        """A scan long after the last walking mover unregistered sees a
        mover block of just the unbounded endpoint, and the oracle's
        peers."""

        def run():
            sim = Simulator(seed=1)
            medium = D2DMedium(sim, WIFI_DIRECT)
            medium.register(D2DEndpoint("scanner", StaticMobility((0.0, 0.0))))
            peer = D2DEndpoint("peer", StaticMobility((5.0, 0.0)))
            peer.advertising = True
            medium.register(peer)
            # silent, so it keeps a mover block alive without being found
            medium.register(D2DEndpoint("free", UnboundedMobility((8.0, 0.0))))
            medium.register(
                D2DEndpoint("mover", LinearMobility((10.0, 0.0), (1.5, 0.0)))
            )
            medium.unregister("mover")
            sim.run_until(10_000.0)
            found = _scan(medium, sim, "scanner", 10_003.0)
            return medium, [(p.device_id, p.rssi_dbm) for p in found]

        medium, indexed = run()
        assert list(medium._movers) == ["free"]
        assert medium._mover_block.ids.tolist() == ["free"]
        with brute_force():
            __, brute = run()
        assert indexed == brute
        assert [device_id for device_id, __ in indexed] == ["peer"]

    def test_slack_covers_a_mover_that_drifted_into_range(self, brute_force):
        """A mover out of range when it registered must be found once it
        has drifted in range."""

        def run():
            sim = Simulator(seed=1)
            medium = D2DMedium(sim, WIFI_DIRECT)
            medium.register(D2DEndpoint("scanner", StaticMobility((0.0, 0.0))))
            # two cells west at t=0, 40 m out when the scan completes
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


class TestMoverChurn:
    def test_same_instant_mover_churn_is_seen_by_the_next_scan(self, brute_force):
        """Three scans complete at one instant. After the first, two
        movers register; after the second, a mover leaves. Each later
        scan must see the new mover set, though an earlier one already
        computed mover coordinates for that instant."""

        def run():
            sim = Simulator(seed=3)
            medium = D2DMedium(sim, WIFI_DIRECT)
            for device_id in ("scanner-a", "scanner-b", "scanner-c"):
                medium.register(D2DEndpoint(device_id, StaticMobility((0.0, 0.0))))
            leaving = D2DEndpoint("leaving", LinearMobility((10.0, 0.0), (1.0, 0.0)))
            leaving.advertising = True
            medium.register(leaving)
            scans = {device_id: [] for device_id in ("scanner-a", "scanner-b", "scanner-c")}

            def arrive(found):
                scans["scanner-a"].extend(found)
                for peer in (
                    D2DEndpoint("walker", LinearMobility((0.0, 20.0), (0.0, 1.0))),
                    D2DEndpoint("free", UnboundedMobility((0.0, -30.0))),
                ):
                    peer.advertising = True
                    medium.register(peer)

            def leave(found):
                scans["scanner-b"].extend(found)
                medium.unregister("leaving")

            medium.discover("scanner-a", arrive)
            medium.discover("scanner-b", leave)
            medium.discover("scanner-c", scans["scanner-c"].extend)
            sim.run_until(3.0)
            return [[(p.device_id, p.rssi_dbm) for p in found] for found in scans.values()]

        indexed = run()
        with brute_force():
            brute = run()
        assert indexed == brute
        assert [sorted(device_id for device_id, __ in found) for found in indexed] == [
            ["leaving"],
            ["free", "leaving", "walker"],
            ["free", "walker"],
        ]
