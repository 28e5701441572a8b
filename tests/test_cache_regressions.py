"""Regression tests for latent discovery-cache bugs.

A scan reads one candidate block (``D2DMedium._blocks``), keyed by its
origin's index cell: the sorted registration seqs of the static
endpoints of the 3×3 index cells around that cell and of every mover —
an endpoint whose speed bound is nonzero or unknown, never indexed.
Blocks hold no coordinates: the scan gathers them, and visibility, from
the medium's seq-indexed arrays (``_x``, ``_y``, ``_visible``, ``_ids``).
A block is evicted only by static churn within one cell of its key; a
mover register or unregister adds or drops its seq in every block; the
movers' slots are rewritten once per instant. Earlier caches on the same
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
   every scan merged ever more cells (movers were still indexed then).
4. One global stamp over every block meant any mover crossing any cell
   rebuilt every block, static-only ones included.

:class:`TestVisibilityWriteThrough` pins the visibility slots, which the
endpoints' ``advertising``/``powered_on`` setters write.
"""

from __future__ import annotations

import numpy as np
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
        """The scanner's block is built once and serves the repeat scan;
        the unbounded peer, a mover, is in it."""
        sim = Simulator(seed=1)
        medium = D2DMedium(sim, WIFI_DIRECT)
        scanner = D2DEndpoint("scanner", StaticMobility((0.0, 0.0)))
        medium.register(scanner)
        peer = D2DEndpoint("peer", UnboundedMobility((5.0, 0.0)))
        peer.advertising = True
        medium.register(peer)

        _scan(medium, sim, "scanner", 3.0)
        block = medium._blocks[(0, 0)]
        assert [p.device_id for p in _scan(medium, sim, "scanner", 6.0)] == ["peer"]
        assert medium._blocks[(0, 0)] is block
        assert block.tolist() == [0, 1]
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
        # silent and far off, but it stays a mover once the walker is gone
        medium.register(D2DEndpoint("free", UnboundedMobility((1000.0, 0.0))))
        # 40 m out in the scanner's cell at t=2, 55 m out in the next at t=5
        mover = D2DEndpoint("mover", LinearMobility((30.0, 0.0), (5.0, 0.0)))
        mover.advertising = True
        medium.register(mover)
        assert list(medium._movers) == ["free", "mover"]
        assert "mover" not in medium._static_index
        assert [p.device_id for p in _scan(medium, sim, "scanner", 3.0)] == ["mover"]
        block = medium._blocks[(0, 0)]
        assert block.tolist() == [0, 1, 2, 3]
        # the mover walks into the next cell: the block is kept (it holds
        # no coordinates), and the mover's slot moved with it
        assert [p.device_id for p in _scan(medium, sim, "scanner", 6.0)] == []
        assert medium._blocks == {(0, 0): block}
        assert medium._x[3] == 30.0 + 5.0 * medium._mover_t
        # 5 m from the watcher at t=8: found through the watcher's block
        assert [p.device_id for p in _scan(medium, sim, "watcher", 9.0)] == ["mover"]
        queries = medium.perf.index_queries
        medium.unregister("mover")
        assert list(medium._movers) == ["free"]
        # the mover's seq leaves every block without an index query, and
        # its slot is hidden and forgets the id
        assert {cell: b.tolist() for cell, b in medium._blocks.items()} == {
            (0, 0): [0, 1, 2],
            (1, 0): [0, 1, 2],
        }
        assert medium.perf.index_queries == queries
        assert not medium._visible[3] and medium._ids[3] is None
        # it would stand 20 m from the watcher at t=11: a block left
        # stale by the unregister would still return it
        assert [p.device_id for p in _scan(medium, sim, "watcher", 12.0)] == []
        assert medium.perf.vector_block_builds == 2

    def test_same_instant_churn_matches_the_oracle(self, brute_force):
        """Ghost-style churn: between scans, peers leave and come back
        under the same id at the same instant, at a new position —
        indexed peers after even rounds (evicting the blocks around
        them), unindexed ones after odd rounds (editing every block), so
        each path alone must catch its half. Every swap keeps the
        endpoint count."""

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
        assert (4, 0) in medium._blocks
        # the far block holds the far scanner and the current unindexed
        # peers, whose seqs every swap replaced
        free = sorted(medium._seq[f"free-{i}"] for i in range(4))
        assert medium._blocks[(4, 0)].tolist() == [medium._seq["far"]] + free
        with brute_force():
            __, brute = run()
        assert indexed == brute
        # the shifted rounds drop peers out of range: the churn is visible
        assert len({len(found) for found in indexed}) > 1

class TestSplitBlocks:
    def test_crossing_movers_and_churn_match_the_oracle(self, brute_force):
        """Movers cross index cells between scans while statics and
        unindexed peers churn: every scan — statics and movers scanning
        as same-instant cohorts, from blocks kept across rounds — must see
        exactly the oracle's peers, RSSI draws and order."""

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
        block per cell it ever visited: the cells past the rock's
        neighbourhood hold no static, so no block is kept for them (their
        scans read the mover seqs), and motion never rebuilds the mover
        seqs — it only rewrites the walker's slot."""
        sim = Simulator(seed=1)
        medium = D2DMedium(sim, WIFI_DIRECT)
        medium.register(D2DEndpoint("walker", LinearMobility((0.0, 0.0), (15.0, 0.0))))
        medium.register(D2DEndpoint("rock", StaticMobility((5.0, 0.0))))
        _scan(medium, sim, "walker", 2.0)
        movers = medium._mover_seqs
        assert movers.tolist() == [0]
        cells = []
        for step in range(2, 201):
            # crosses a 50 m cell boundary every few scans
            _scan(medium, sim, "walker", step * 2.0)
            assert medium._mover_seqs is movers
            assert medium._x[0] == 15.0 * medium._mover_t
            cells.append(medium._static_index._cell_of((medium._x[0], medium._y[0])))
        # the walker crossed some 120 cells ...
        assert len(set(cells)) > 100
        # ... while only its first two cells see the rock
        assert sorted(medium._blocks) == [(0, 0), (1, 0)]
        assert medium.perf.vector_block_builds == 2
        # a scan from a rock-less cell stores nothing and queries again
        rockless = sum(cell not in medium._blocks for cell in cells)
        assert medium.perf.index_queries == 2 + rockless

    def test_block_cache_still_serves_repeat_queries(self):
        """Eviction must not cost the static-crowd win: every requester
        scanning from one cell shares one block."""
        sim = Simulator(seed=1)
        medium = D2DMedium(sim, WIFI_DIRECT)
        for device_id, pos in (("a", (10.0, 10.0)), ("b", (20.0, 10.0))):
            medium.register(D2DEndpoint(device_id, StaticMobility(pos)))
        _scan(medium, sim, "a", 3.0)
        block = medium._blocks[(0, 0)]
        _scan(medium, sim, "b", 6.0)
        assert medium._blocks == {(0, 0): block}
        assert block.tolist() == [0, 1]
        assert medium.perf.vector_block_builds == 1


class TestMoverRefresh:
    def test_reused_block_rereads_its_movers_at_a_new_instant(self, brute_force):
        """The block outlives the instant it was built at: with the mover
        set unchanged it is kept, so a later scan must read the mover's
        slot rewritten at the new instant, not the first scan's
        coordinates."""

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
        # the second scan completed at t=5, with the mover at x = 25 m
        assert (medium._mover_t, medium._x[1]) == (5.0, 25.0)
        with brute_force():
            __, brute = run()
        assert indexed == brute
        assert [len(found) for found in indexed] == [1, 1]


class TestMoverSlack:
    """Named for the drift slack movers needed while they were indexed.
    No mover is indexed now, so no slack exists; these pin the scans that
    slack had to get right."""

    def test_slack_drops_to_zero_once_the_last_mover_leaves(self, brute_force):
        """A scan long after the last walking mover unregistered sees
        just the unbounded endpoint among the movers, and the oracle's
        peers."""

        def run():
            sim = Simulator(seed=1)
            medium = D2DMedium(sim, WIFI_DIRECT)
            medium.register(D2DEndpoint("scanner", StaticMobility((0.0, 0.0))))
            peer = D2DEndpoint("peer", StaticMobility((5.0, 0.0)))
            peer.advertising = True
            medium.register(peer)
            # silent, so it stays a mover without being found
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
        assert medium._ids[medium._mover_seqs].tolist() == ["free"]
        assert medium._ids[medium._blocks[(0, 0)]].tolist() == ["scanner", "peer", "free"]
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


def _assert_visibility_slots(medium):
    """``_visible`` holds exactly the registered endpoints that advertise
    and are powered on, each at its registration seq."""
    want = {
        medium._seq[device_id]
        for device_id, endpoint in medium._endpoints.items()
        if endpoint.advertising and endpoint.powered_on
    }
    assert set(np.flatnonzero(medium._visible).tolist()) == want
    for device_id, seq in medium._seq.items():
        assert medium._ids[seq] == device_id


class TestVisibilityWriteThrough:
    """Scans read visibility from the medium's seq-indexed ``_visible``
    slots, which the endpoints' ``advertising`` and ``powered_on``
    setters write. Toggles on statics, movers and ghost-style endpoints
    — before register, between two same-instant scans, across
    ``power_off``/``power_on`` and across unregister and re-register of
    one id — must keep every scan equal to the oracle's."""

    def test_toggles_match_the_oracle(self, brute_force):
        def run():
            sim = Simulator(seed=11)
            medium = D2DMedium(sim, WIFI_DIRECT)
            for device_id in ("scan-a", "scan-b"):
                medium.register(D2DEndpoint(device_id, StaticMobility((0.0, 0.0))))
            # toggled before register: each slot must start from them
            rock = D2DEndpoint("rock", StaticMobility((6.0, 0.0)))
            rock.advertising = True
            walker = D2DEndpoint("walker", LinearMobility((-20.0, 3.0), (2.0, 0.0)))
            walker.advertising = True
            walker.powered_on = False
            ghost = D2DEndpoint(
                "ghost",
                StaticMobility((0.0, 9.0)),
                advertisement={"ghost": 1, "capacity_remaining": 0},
            )
            ghost.advertising = True
            free = D2DEndpoint("free", UnboundedMobility((-4.0, -4.0)))
            for endpoint in (rock, walker, ghost, free):
                medium.register(endpoint)
            observations = []
            checks = []

            def record(tag, then=None):
                def done(found):
                    observations.append((tag, [(p.device_id, p.rssi_dbm) for p in found]))
                    if then is not None:
                        then()
                    _assert_visibility_slots(medium)
                    checks.append(tag)

                return done

            def scan_pair(tag, between, horizon):
                """Two scans completing at one instant, ``between`` run
                after the first."""
                medium.discover("scan-a", record(f"{tag}-a", between))
                medium.discover("scan-b", record(f"{tag}-b"))
                sim.run_until(horizon)

            def first_toggles():
                medium.endpoint("rock").advertising = False
                medium.endpoint("walker").powered_on = True
                medium.endpoint("free").advertising = True

            scan_pair("r1", first_toggles, 3.0)
            # the ghost's radio dies; the rock advertises again
            medium.power_off("ghost")
            rock.advertising = True
            scan_pair("r2", lambda: medium.power_on("ghost"), 6.0)
            # power_on leaves advertising off until the owner turns it on
            scan_pair("r3", lambda: setattr(ghost, "advertising", True), 9.0)
            # the radio dies without telling the medium, between two scans
            scan_pair("r4", lambda: setattr(walker, "powered_on", False), 12.0)
            # unregister and re-register under the same ids: the departed
            # endpoint objects are detached, so toggling them is invisible
            medium.unregister("rock")
            medium.unregister("walker")
            rock.advertising = False
            rock.advertising = True
            walker.powered_on = True
            _assert_visibility_slots(medium)
            assert rock._slot == walker._slot == -1
            new_rock = D2DEndpoint("rock", StaticMobility((7.0, 1.0)))
            new_walker = D2DEndpoint("walker", LinearMobility((-10.0, -3.0), (1.0, 0.0)))
            new_walker.advertising = True
            medium.register(new_rock)
            medium.register(new_walker)
            scan_pair("r5", lambda: setattr(new_rock, "advertising", True), 15.0)
            scan_pair("r6", lambda: medium.power_off("walker"), 18.0)
            return observations, checks, (rock, walker)

        indexed, checks, departed = run()
        assert len(checks) == 12
        assert all(endpoint._medium is None for endpoint in departed)
        with brute_force():
            brute, __, __ = run()
        assert indexed == brute
        # not vacuous: toggles between same-instant scans changed what
        # the second scan of a pair saw
        seen = {tag: {device_id for device_id, __ in found} for tag, found in indexed}
        assert seen["r1-a"] == {"rock", "ghost"}
        assert seen["r1-b"] == {"walker", "ghost", "free"}
        assert "ghost" not in seen["r2-a"] | seen["r2-b"] | seen["r3-a"]
        assert "ghost" in seen["r3-b"]
        assert "walker" in seen["r4-a"] and "walker" not in seen["r4-b"]
        assert seen["r5-a"] == {"walker", "ghost", "free"}
        assert seen["r5-b"] == {"rock", "walker", "ghost", "free"}
        assert seen["r6-b"] == {"rock", "ghost", "free"}

    def test_a_second_medium_is_refused(self):
        """An endpoint's setters write to one medium's slot, so it
        registers with one medium at a time."""
        endpoint = D2DEndpoint("e", StaticMobility((0.0, 0.0)))
        first = D2DMedium(Simulator(seed=1), WIFI_DIRECT)
        first.register(endpoint)
        with pytest.raises(ValueError, match="another medium"):
            D2DMedium(Simulator(seed=1), WIFI_DIRECT).register(endpoint)
        first.unregister("e")
        D2DMedium(Simulator(seed=1), WIFI_DIRECT).register(endpoint)
