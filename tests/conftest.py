"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import types

import pytest

from repro.cellular.basestation import BaseStation
from repro.cellular.signaling import SignalingLedger
from repro.channel.allocator import CentralizedAllocator
from repro.channel.model import ChannelModel
from repro.channel.phy import dbm_to_mw
from repro.d2d.base import D2DMedium, PeerInfo
from repro.d2d.wifi_direct import WIFI_DIRECT
from repro.energy.model import EnergyModel
from repro.energy.profiles import DEFAULT_PROFILE
from repro.mobility.space import distance_between
from repro.sim.engine import Simulator
from repro.workload.server import IMServer


def brute_force_scan(medium, requester_id, origin, t, rng):
    """The discovery oracle: a pure-Python walk over every endpoint.

    Drop-in for :meth:`D2DMedium._scan`. Visits endpoints in registration
    order (``_endpoints`` is insertion-ordered), computes each distance
    from a live ``position(t)`` and filters peer by peer, so it shares
    neither the spatial index's candidate selection nor the numpy block
    math with the real scan. Identical output from both pins the two at
    once: same peers, same RSSI draws from the same RNG order.
    """
    tech = medium.technology
    link = tech.link
    found = []
    for device_id, peer in medium._endpoints.items():
        if device_id == requester_id or not (peer.advertising and peer.powered_on):
            continue
        distance = distance_between(origin, peer.position(t))
        if distance > tech.max_range_m:
            continue
        mean_rssi = link.probe(distance)
        if mean_rssi is None:
            continue
        if not medium.link_allowed(requester_id, device_id):
            continue
        rssi = link.shadowed(mean_rssi, rng)
        found.append(
            PeerInfo(
                device_id=device_id,
                rssi_dbm=rssi,
                estimated_distance_m=link.estimate_distance(rssi),
                advertisement=peer.advertisement_view,
            )
        )
    return found


@pytest.fixture
def brute_force():
    """Context manager: inside it, every medium scans with the oracle.

    ``with brute_force(): run()`` replays a run with
    :func:`brute_force_scan` in place of the indexed scan.
    """

    @contextlib.contextmanager
    def oracle():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(D2DMedium, "_scan", brute_force_scan)
            yield

    return oracle


@pytest.fixture(scope="session")
def scan_oracle():
    """:func:`brute_force_scan`, for Hypothesis tests (which cannot take
    function-scoped fixtures)."""
    return brute_force_scan


def reference_received_mw(link, tx_pos, rx_pos):
    """Mean received power (mW), composed from the public per-pair
    functions rather than the channel's batched arithmetic."""
    return dbm_to_mw(link.rssi(distance_between(tx_pos, rx_pos)))


def reference_added_interference_mw(request, rb, active, link):
    """Interference a newcomer on ``rb`` trades with the live leases there:
    what it would suffer at its receiver plus what it would inflict on
    every co-channel receiver."""
    total = 0.0
    for lease in active:
        if lease.rb != rb:
            continue
        total += reference_received_mw(link, lease.tx_pos, request.rx_pos)
        total += reference_received_mw(link, request.tx_pos, lease.rx_pos)
    return total


def reference_greedy_pick(request, active, num_rbs, link):
    """The pick oracle: walk the live leases once per block and keep the
    first block of least added interference."""
    best_rb = 0
    best_cost = float("inf")
    for rb in range(num_rbs):
        cost = reference_added_interference_mw(request, rb, active, link)
        if cost < best_cost:
            best_cost = cost
            best_rb = rb
    return best_rb


@pytest.fixture(scope="session")
def reference_pick():
    """:func:`reference_greedy_pick`, for Hypothesis tests (which cannot
    take function-scoped fixtures)."""
    return reference_greedy_pick


@pytest.fixture
def reference_channel():
    """Context manager: inside it, the channel runs its reference form.

    ``with reference_channel() as calls: run()`` replays a run with
    :func:`reference_greedy_pick` as the centralized allocator's pick,
    over the lease list rebuilt from the pool, and every lease movable,
    so every live lease is re-resolved on every transfer.
    ``calls.picks`` counts the reference picks, so a test can prove the
    channel still reached the patched method.
    """
    original_begin = ChannelModel.begin_transfer
    calls = types.SimpleNamespace(picks=0)

    def pick(self, request, pool, link):
        calls.picks += 1
        return reference_greedy_pick(
            request, pool.live_leases(), pool.num_rbs, link
        )

    def begin_transfer(self, *args, fixed=False, **kwargs):
        return original_begin(self, *args, **kwargs)

    @contextlib.contextmanager
    def oracle():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(CentralizedAllocator, "pick", pick)
            patch.setattr(ChannelModel, "begin_transfer", begin_transfer)
            yield calls

    return oracle


def reap_idle_walk(pool, now, idle_timeout_s):
    """The reaping oracle: walk every live lease in grant order and
    release those idle past ``idle_timeout_s`` — the rule
    :meth:`repro.channel.rb.ResourceBlockPool.reap_idle` answers from its
    expiry heap."""
    expired = [
        lease
        for lease in pool.live_leases()
        if lease.busy_until_s + idle_timeout_s <= now
    ]
    for lease in expired:
        pool.release(lease.lease_id, now)
    return expired


@pytest.fixture(scope="session")
def reap_oracle():
    """:func:`reap_idle_walk`, for Hypothesis tests (which cannot take
    function-scoped fixtures)."""
    return reap_idle_walk


def border_shards(plan, position, own_shard, margin_m):
    """The border-target oracle: a scalar walk over every cell.

    Foreign shards ``j`` whose nearest cell lies at most ``2 × margin_m``
    farther from ``position`` than the overall nearest cell, computed one
    :func:`distance_between` at a time — the rule
    :meth:`repro.shard.ShardPlan.border_targets` evaluates as one numpy
    pass over a whole distance matrix.
    """
    d_best = min(distance_between(cell, position) for cell in plan.cell_positions)
    out = []
    for j in range(plan.n_shards):
        if j == own_shard:
            continue
        d_j = min(
            distance_between(cell, position)
            for cell, shard in zip(plan.cell_positions, plan.cell_shards)
            if shard == j
        )
        if d_j - d_best <= 2.0 * margin_m:
            out.append(j)
    return out


@pytest.fixture(scope="session")
def border_oracle():
    """:func:`border_shards`, for Hypothesis tests (which cannot take
    function-scoped fixtures)."""
    return border_shards


@pytest.fixture
def sim() -> Simulator:
    """Fresh deterministic simulator."""
    return Simulator(seed=42)


@pytest.fixture
def ledger() -> SignalingLedger:
    return SignalingLedger()


@pytest.fixture
def profile():
    return DEFAULT_PROFILE


@pytest.fixture
def energy() -> EnergyModel:
    return EnergyModel(owner="test-device")


@pytest.fixture
def network(sim, ledger):
    """(sim, ledger, basestation, server, medium) wired together."""
    basestation = BaseStation(sim, ledger=ledger)
    server = IMServer(sim)
    basestation.attach_sink(server.uplink_sink)
    medium = D2DMedium(sim, WIFI_DIRECT)
    return sim, ledger, basestation, server, medium
