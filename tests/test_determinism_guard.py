"""Determinism guard: indexed discovery must be byte-identical to brute force.

The spatial index and the numpy block scan are acceleration only — for
any seed the scan must produce the same peers, the same RSSI draws (RNG
consumed in the same order), and the same result ordering as the O(N)
brute-force walk. The walk lives in ``tests/conftest.py`` as the
``brute_force`` oracle fixture; these tests pin the contract at two
levels: raw `D2DMedium.discover` output and full crowd-scenario
`RunMetrics`. Channel mode has an oracle of its own, the
``reference_channel`` fixture: the per-block reference pick with every
lease re-resolved on every transfer.
"""

import dataclasses

import gauss_replay
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.d2d.base import D2DEndpoint, D2DMedium
from repro.d2d.wifi_direct import WIFI_DIRECT
from repro.energy.model import EnergyModel
from repro.mobility.models import LinearMobility, StaticMobility
from repro.mobility.space import Arena
from repro.scenarios import CrowdSpec, run_crowd_scenario
from repro.shard import run_crowd_scenario_sharded
from repro.sim.engine import Simulator
from repro.workload.apps import STANDARD_APP

SEEDS = (0, 1, 2)


#: a same-instant cohort: a slow mover and two static devices that stay
#: inside one 50 m index cell for the whole run, so their scans share
#: one coordinate block
COHORT = (
    ("c0", LinearMobility, ((110.0, 110.0), (0.1, 0.05))),
    ("c1", StaticMobility, ((112.0, 118.0),)),
    ("c2", StaticMobility, ((125.0, 104.0),)),
)


def _run_discovery_rounds(seed, tweak=None):
    """Scatter endpoints (static + mobile), run repeated interleaved scans,
    and return every (scan, peer, rssi, distance) observation in order,
    the number of kernel events and the medium's perf counters.

    Odd rounds add a cohort scan: every ``COHORT`` member, the mover
    included, scans at one instant from one cell."""
    sim = Simulator(seed=seed)
    medium = D2DMedium(sim, WIFI_DIRECT)
    specs = []
    for i in range(30):
        pos = (float((i * 37) % 240), float((i * 59) % 240))
        if i % 5 == 0:
            mobility = LinearMobility(pos, (2.0, -1.5))
        else:
            mobility = StaticMobility(pos)
        specs.append((f"d{i}", mobility, i))
    for i, (device_id, model, args) in enumerate(COHORT, start=30):
        specs.append((device_id, model(*args), i))
    for device_id, mobility, i in specs:
        endpoint = D2DEndpoint(
            device_id,
            mobility,
            energy=EnergyModel(owner=device_id),
            advertisement={"n": i},
        )
        endpoint.advertising = i % 2 == 0
        medium.register(endpoint)
    if tweak is not None:
        tweak(medium)

    observations = []

    def scan(requester_id, tag):
        def record(peers):
            for peer in peers:
                observations.append(
                    (tag, peer.device_id, peer.rssi_dbm, peer.estimated_distance_m)
                )

        medium.discover(requester_id, record)

    for round_no in range(6):
        start = round_no * 10.0
        sim.schedule_at(start, scan, f"d{round_no * 3 % 30}", f"r{round_no}-a")
        sim.schedule_at(start + 2.5, scan, f"d{(round_no * 7 + 1) % 30}", f"r{round_no}-b")
        if round_no % 2 == 1:
            for device_id, __, __ in COHORT:
                sim.schedule_at(start + 5.0, scan, device_id, f"r{round_no}-{device_id}")
    sim.run_until(70.0)
    return observations, sim.events_fired, medium.perf


def _assert_crowd_matches_oracle(brute_force, **kwargs):
    indexed = run_crowd_scenario(**kwargs)
    with brute_force():
        brute = run_crowd_scenario(**kwargs)
    assert (
        indexed.metrics.to_comparable_dict()
        == brute.metrics.to_comparable_dict()
    ), f"crowd metrics diverged from the oracle for {kwargs}"
    return indexed, brute


class TestDiscoveryIdentity:
    def test_indexed_scan_matches_brute_force_exactly(self, brute_force):
        for seed in SEEDS:
            indexed, indexed_events, perf = _run_discovery_rounds(seed)
            with brute_force():
                brute, brute_events, __ = _run_discovery_rounds(seed)
            # Same peers, same RSSI draws, same ordering — not just same sets.
            assert indexed == brute, f"discovery diverged for seed {seed}"
            assert indexed_events == brute_events
            assert indexed, f"seed {seed} produced no observations (vacuous)"
            # the cohorts really scanned through shared blocks
            assert perf.vector_block_builds < perf.scans


class TestCrowdMetricsIdentity:
    def test_crowd_metrics_identical_across_seeds(self, brute_force):
        for seed in SEEDS:
            _assert_crowd_matches_oracle(
                brute_force,
                n_devices=40,
                relay_fraction=0.25,
                duration_s=120.0,
                hotspots=4,
                mobile_fraction=0.3,
                seed=seed,
            )

    def test_perf_counters_reflect_the_chosen_path(self, brute_force):
        """Sanity: the scan and the oracle really took different routes."""
        indexed, brute = _assert_crowd_matches_oracle(
            brute_force, n_devices=20, duration_s=60.0, seed=0
        )
        perf = indexed.metrics.perf
        assert perf["index_queries"] > 0
        assert perf["vectorized_scans"] == perf["scans"] > 0
        assert brute.metrics.perf["index_queries"] == 0
        assert brute.metrics.perf["vectorized_scans"] == 0


class TestScanFastPathIdentity:
    """The discovery memos are accelerations, never behaviour.

    The static-position memo can be cleared (every scan origin then
    comes from a live ``position(t)``) and must leave the observation
    stream unchanged; the per-cell candidate blocks must actually serve
    repeat scans.
    """

    @staticmethod
    def _no_memo(medium):
        medium._static_pos.clear()

    def test_static_position_memo_is_pure_acceleration(self):
        for seed in SEEDS:
            fast, fast_events, __ = _run_discovery_rounds(seed)
            slow, slow_events, __ = _run_discovery_rounds(seed, tweak=self._no_memo)
            assert fast == slow, f"memoised scan diverged for seed {seed}"
            assert fast_events == slow_events
            assert fast, f"seed {seed} produced no observations (vacuous)"

    def test_fast_paths_actually_fire_in_static_crowds(self):
        result = run_crowd_scenario(
            n_devices=30, duration_s=120.0, seed=0, mobile_fraction=0.0
        )
        perf = result.metrics.perf
        medium = result.context.medium
        assert len(medium._static_pos) == 30
        assert 0 < perf["vector_block_builds"] < perf["scans"]

    def test_repeat_scans_reuse_the_vector_block(self):
        sim = Simulator(seed=0)
        medium = D2DMedium(sim, WIFI_DIRECT)
        for i in range(12):
            endpoint = D2DEndpoint(
                f"s{i}",
                StaticMobility((float(i * 13 % 60), float(i * 7 % 60))),
                energy=EnergyModel(owner=f"s{i}"),
            )
            endpoint.advertising = True
            medium.register(endpoint)
        blocks = []
        for start in (0.0, 10.0, 20.0):
            sim.schedule_at(start, medium.discover, "s0", lambda peers: None)
            sim.schedule_at(start + 5.0, lambda: blocks.append(dict(medium._blocks)))
        sim.run_until(30.0)
        # The first scan builds the cell's block of seqs; no static
        # registers or leaves, so the two repeats reuse that very array.
        assert medium.perf.scans == 3
        assert medium.perf.vector_block_builds == medium.perf.index_queries == 1
        (cell, block), = blocks[0].items()
        assert all(list(seen) == [cell] and seen[cell] is block for seen in blocks)
        assert block.tolist() == list(range(12))

    def test_memo_stays_off_for_mobile_endpoints(self):
        sim = Simulator(seed=0)
        medium = D2DMedium(sim, WIFI_DIRECT)
        medium.register(
            D2DEndpoint(
                "mover",
                LinearMobility((0.0, 0.0), (1.0, 0.0)),
                energy=EnergyModel(owner="mover"),
            )
        )
        medium.register(
            D2DEndpoint(
                "rock",
                StaticMobility((5.0, 0.0)),
                energy=EnergyModel(owner="rock"),
            )
        )
        assert "rock" in medium._static_pos
        assert "mover" not in medium._static_pos


#: one step of :class:`TestInlineShadowingDraw`: a scan with ``n`` of
#: the seven peers advertising, or ``n`` direct ``gauss`` calls
draw_steps = st.lists(
    st.tuples(st.sampled_from(["scan", "gauss"]), st.integers(0, 7)),
    min_size=1,
    max_size=12,
)


class TestInlineShadowingDraw:
    """The scan's inlined Box–Muller draw equals per-peer ``rng.gauss``
    calls: odd and even survivor counts (so the pair cache
    ``gauss_next`` is left full or empty), interleaved with direct
    ``gauss`` calls on the same ``d2d-discovery`` stream, must give the
    oracle's RSSI values and generator state after every step. A gate
    that itself calls ``gauss`` checks the pair cache is handed over
    around the gate call."""

    @staticmethod
    def _medium():
        sim = Simulator(seed=5)
        medium = D2DMedium(sim, WIFI_DIRECT)
        medium.register(D2DEndpoint("scanner", StaticMobility((0.0, 0.0))))
        for i in range(7):
            if i % 2:
                mobility = StaticMobility((4.0 * i + 1.0, 3.0))
            else:
                mobility = LinearMobility((4.0 * i - 10.0, -2.0), (0.5, 0.25))
            medium.register(D2DEndpoint(f"p{i}", mobility))
        return sim, medium

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(draw_steps, st.booleans())
    @example([("scan", 1), ("gauss", 1), ("scan", 2), ("scan", 3)], False)
    @example([("scan", 3), ("scan", 1), ("gauss", 2)], True)
    def test_inline_draw_matches_rng_gauss(self, scan_oracle, steps, gated):
        runs = []
        for scan in (D2DMedium._scan, scan_oracle):
            sim, medium = self._medium()
            rng = sim.rng.get("d2d-discovery")
            if gated:
                # vetoes p3 and draws from the scan's own stream
                medium.link_gate = lambda a, b: rng.gauss(0.0, 1.0) > -9.0 and b != "p3"
            trace = []
            for t, (op, n) in enumerate(steps):
                if op == "scan":
                    for i in range(7):
                        medium.endpoint(f"p{i}").advertising = i < n
                    found = scan(medium, "scanner", (0.0, 0.0), float(t), rng)
                    assert len(found) == n - (gated and n > 3)
                    values = [(p.device_id, p.rssi_dbm) for p in found]
                else:
                    values = [rng.gauss(0.0, 1.0) for __ in range(n)]
                trace.append((values, rng.getstate()))
            runs.append(trace)
        assert runs[0] == runs[1]

    def test_stdlib_replay_matches_gauss(self):
        gauss_replay.check_source()
        assert gauss_replay.replay(seeds=8, steps=40) > 0


class TestVectorizedScanIdentity:
    """The numpy block scan matches the oracle on a mixed crowd: 120
    devices, a fifth of them moving, so coordinate blocks carry both
    baked-in static positions and per-scan refreshed movers."""

    def test_vectorized_matches_brute_force(self, brute_force):
        indexed, __ = _assert_crowd_matches_oracle(
            brute_force,
            n_devices=120, relay_fraction=0.2, duration_s=240.0,
            hotspots=4, mobile_fraction=0.2, seed=0,
        )
        assert indexed.metrics.perf["vectorized_scans"] > 0


class TestLinkSupervisionIdentity:
    """Skipping the link checks of fixed pairs is an acceleration only.

    An allow-all ``link_gate`` changes no verdict but makes the medium
    poll every connection, fixed or not — the oracle. A mixed static and
    mobile crowd must produce byte-identical metrics either way.
    """

    @staticmethod
    def _poll_everything(context, devices):
        context.medium.link_gate = lambda a, b: True

    def test_skipping_fixed_pair_checks_is_pure_acceleration(self):
        kwargs = dict(
            n_devices=300, relay_fraction=0.2, duration_s=1800.0,
            hotspots=4, mobile_fraction=0.1, seed=3,
        )
        fast = run_crowd_scenario(**kwargs)
        polled = run_crowd_scenario(pre_run=self._poll_everything, **kwargs)
        assert (
            fast.metrics.to_comparable_dict()
            == polled.metrics.to_comparable_dict()
        )
        # sanity: the oracle really polled the fixed pairs the fast run skipped
        assert fast.context.sim.events_fired < polled.context.sim.events_fired
        assert fast.metrics.delivery.received > 0


def _storm_hook(scan_period_s):
    """``pre_run`` twin of the spec's ``storm_scan_period_s``."""

    def pre_run(context, devices):
        medium, sim = context.medium, context.sim
        for device_id in devices:
            endpoint = medium.endpoint(device_id)
            endpoint.advertising = True
            endpoint.advertisement.setdefault("storm", 1)

            def tick(did=device_id):
                if medium.endpoint(did).powered_on:
                    medium.discover(did, lambda peers: None)

            sim.every(scan_period_s, tick, name=f"storm-{device_id}")

    return pre_run


class TestOneShardIsUnsharded:
    """A one-shard run reproduces the unsharded run byte for byte.

    Shard 0 draws the master seed's stream and both kernels build their
    devices with ``repro.scenarios.build_crowd``; the one shard's
    multi-cell network, handovers and windowed stepping must not change
    a single metric. This is the shard layer's exact oracle.
    """

    CROWD = dict(
        n_devices=80, relay_fraction=0.25, duration_s=300.0,
        arena=Arena(200.0, 120.0), hotspots=6, seed=3,
    )

    def _assert_identical(self, **kwargs):
        """Run both kernels on one crowd spec; returns the one-shard run."""
        spec = CrowdSpec(**{**self.CROWD, **kwargs})
        one_kernel = run_crowd_scenario(spec)
        one_shard = run_crowd_scenario_sharded(spec, shards=1)
        assert (
            one_shard.metrics.to_comparable_dict()
            == one_kernel.metrics.to_comparable_dict()
        ), "one shard diverged from the unsharded run"
        assert one_shard.metrics.total_l3_messages > 0
        if spec.duration_s > 1.0:  # beats are emitted past t=0
            assert one_shard.metrics.delivery.relayed > 0
        return one_shard

    @pytest.mark.parametrize("relay_selection", ["roundrobin", "greedy", "random"])
    def test_every_relay_selection(self, relay_selection):
        self._assert_identical(relay_selection=relay_selection)

    def test_movers_hand_over(self):
        one_shard = self._assert_identical(mobile_fraction=0.3)
        assert one_shard.handovers > 0, "no mover crossed a cell border"

    def test_storm_hook(self):
        one_shard = self._assert_identical(storm_scan_period_s=10.0)
        # both kernels' storm equals the hand-written pre_run storm
        hooked = run_crowd_scenario(pre_run=_storm_hook(10.0), **self.CROWD)
        assert (
            hooked.metrics.to_comparable_dict()
            == one_shard.metrics.to_comparable_dict()
        )

    def test_heartbeat_period_override(self):
        self._assert_identical(
            app=dataclasses.replace(STANDARD_APP, heartbeat_period_s=45.0),
            relay_selection="random",
        )

    @pytest.mark.parametrize("duration_s", [0.5, 1.0])
    def test_short_runs_keep_their_t0_beats(self, duration_s):
        # beat emission stops at t=0 here; the one window must still run
        # so the t=0 beats fire before the shard shuts down
        one_shard = self._assert_identical(
            duration_s=duration_s, mobile_fraction=0.3
        )
        assert one_shard.windows == 1

    @pytest.mark.parametrize("selection_policy", ["rate", "hybrid"])
    def test_channel_aware_policy_on_the_fixed_channel(self, selection_policy):
        # no channel to predict rates from: both kernels rank by distance
        one_shard = self._assert_identical(selection_policy=selection_policy)
        distance = run_crowd_scenario(**self.CROWD)
        assert (
            one_shard.metrics.to_comparable_dict()
            == distance.metrics.to_comparable_dict()
        )


class TestShardedKernelIdentity:
    """The cell-sharded kernel's determinism contract across shards.

    With one shard the sharded kernel is the unsharded run
    (:class:`TestOneShardIsUnsharded`). With several, each shard past
    the first draws its own ``child_seed(seed, "shard:i")`` stream and
    border discovery sees frozen ghosts, so the guard pins what the
    design promises: the serial and process backends are byte-identical,
    replay is byte-identical, and delivery is complete — every beat the
    unsharded kernel delivers, the sharded kernel delivers too, even
    with movers crossing shard borders (handovers observed > 0). The
    geometry is 2 shards tiled over the default 4x2 cell grid.
    """

    KWARGS = dict(
        n_devices=60, relay_fraction=0.25, duration_s=120.0,
        arena=Arena(400.0, 120.0), hotspots=6, mobile_fraction=0.3,
        storm_scan_period_s=10.0, shards=2, sync_window_s=5.0, seed=3,
    )

    def test_serial_and_process_backends_identical(self):
        serial = run_crowd_scenario_sharded(backend="serial", **self.KWARGS)
        process = run_crowd_scenario_sharded(backend="process", **self.KWARGS)
        assert (
            serial.metrics.to_comparable_dict()
            == process.metrics.to_comparable_dict()
        ), "serial and process shard backends diverged"
        assert serial.handovers == process.handovers
        assert serial.ghost_registrations == process.ghost_registrations
        assert serial.devices_per_shard == process.devices_per_shard
        # the run must actually exercise the cross-shard machinery
        assert serial.handovers > 0, "no handover crossed a cell border"
        assert serial.ghost_registrations > 0, "no border ghost exchanged"
        assert all(n > 0 for n in serial.devices_per_shard)

    def test_sharded_replay_is_byte_identical(self):
        first = run_crowd_scenario_sharded(backend="serial", **self.KWARGS)
        second = run_crowd_scenario_sharded(backend="serial", **self.KWARGS)
        assert (
            first.metrics.to_comparable_dict()
            == second.metrics.to_comparable_dict()
        )

    def test_sharded_delivery_matches_unsharded(self):
        # Same crowd, sharded vs single-kernel: the device population is
        # identical and no beat is lost to the partition — received and
        # on-time counts match exactly (energy and signaling may differ:
        # shard 1 draws its own stream and ghosts freeze border positions).
        kwargs = dict(
            n_devices=60, relay_fraction=0.25, duration_s=120.0,
            hotspots=6, mobile_fraction=0.3, seed=3,
        )
        unsharded = run_crowd_scenario(arena=Arena(400.0, 120.0), **kwargs)
        sharded = run_crowd_scenario_sharded(
            arena=Arena(400.0, 120.0), shards=2, **kwargs
        )
        assert set(sharded.metrics.devices) == set(unsharded.metrics.devices)
        assert (
            sharded.metrics.delivery.received
            == unsharded.metrics.delivery.received
        )
        assert (
            sharded.metrics.delivery.on_time
            == unsharded.metrics.delivery.on_time
        )


class TestTilePlanIdentity:
    """The same determinism contract on a tiling cut along both axes.

    Three shards on a 2x2 cell grid (shards > cells_x), so the
    weighted-bisection planner must cut along both axes and every worker
    must derive the same weighted partition from the master seed before
    any of the byte-level identities below can hold.
    """

    KWARGS = dict(
        n_devices=60, relay_fraction=0.25, duration_s=120.0,
        arena=Arena(400.0, 120.0), hotspots=6, mobile_fraction=0.3,
        storm_scan_period_s=10.0, shards=3, cells_x=2, cells_y=2,
        sync_window_s=5.0, seed=3,
    )

    def test_tile_serial_and_process_backends_identical(self):
        serial = run_crowd_scenario_sharded(backend="serial", **self.KWARGS)
        process = run_crowd_scenario_sharded(backend="process", **self.KWARGS)
        assert (
            serial.metrics.to_comparable_dict()
            == process.metrics.to_comparable_dict()
        ), "serial and process tile-plan backends diverged"
        assert serial.handovers == process.handovers
        assert serial.ghost_registrations == process.ghost_registrations
        assert serial.devices_per_shard == process.devices_per_shard
        assert serial.ghost_registrations > 0, "no border ghost exchanged"
        assert all(n > 0 for n in serial.devices_per_shard)

    def test_tile_replay_is_byte_identical(self):
        first = run_crowd_scenario_sharded(backend="serial", **self.KWARGS)
        second = run_crowd_scenario_sharded(backend="serial", **self.KWARGS)
        assert (
            first.metrics.to_comparable_dict()
            == second.metrics.to_comparable_dict()
        )

    def test_tile_delivery_matches_unsharded(self):
        # Same completeness promise on the two-axis tiling: the partition
        # shape must not cost a single heartbeat vs the unsharded kernel.
        kwargs = dict(
            n_devices=60, relay_fraction=0.25, duration_s=120.0,
            hotspots=6, mobile_fraction=0.3, seed=3,
        )
        unsharded = run_crowd_scenario(arena=Arena(400.0, 120.0), **kwargs)
        tiled = run_crowd_scenario_sharded(
            arena=Arena(400.0, 120.0), shards=3, cells_x=2, cells_y=2,
            **kwargs
        )
        assert set(tiled.metrics.devices) == set(unsharded.metrics.devices)
        assert (
            tiled.metrics.delivery.received
            == unsharded.metrics.delivery.received
        )
        assert (
            tiled.metrics.delivery.on_time
            == unsharded.metrics.delivery.on_time
        )


class TestChannelModeIdentity:
    """Channel-mode runs obey the same replay and index contracts."""

    def test_channel_run_replays_byte_identically(self):
        for seed in SEEDS:
            kwargs = dict(
                n_devices=25, duration_s=120.0, hotspots=4,
                mobile_fraction=0.2, seed=seed, channel="sinr",
            )
            first = run_crowd_scenario(**kwargs)
            second = run_crowd_scenario(**kwargs)
            assert (
                first.metrics.to_comparable_dict()
                == second.metrics.to_comparable_dict()
            ), f"channel replay diverged for seed {seed}"
            assert first.metrics.channel["transfers"] > 0

    def test_channel_indexed_scan_matches_brute_force(self, brute_force):
        for seed in SEEDS:
            _assert_crowd_matches_oracle(
                brute_force,
                n_devices=25, duration_s=120.0, hotspots=4,
                mobile_fraction=0.2, seed=seed, channel="sinr",
            )

    def test_channel_matches_the_reference_channel(self, reference_channel):
        # ~20 live leases over 6 blocks; movers are the first devices and
        # relays the first 30%, so leases to static relays are fixed and
        # leases to moving ones are not.
        kwargs = dict(
            n_devices=120, relay_fraction=0.3, mobile_fraction=0.2,
            duration_s=300.0, hotspots=4, arena=Arena(100.0, 100.0),
            app=dataclasses.replace(STANDARD_APP, heartbeat_period_s=45.0),
            channel="sinr",
        )
        for seed in SEEDS:
            fast = run_crowd_scenario(seed=seed, **kwargs)
            with reference_channel() as calls:
                reference = run_crowd_scenario(seed=seed, **kwargs)
            assert calls.picks > 0, "the reference pick never ran (vacuous)"
            assert (
                fast.metrics.to_comparable_dict()
                == reference.metrics.to_comparable_dict()
            ), f"channel diverged from the reference for seed {seed}"
            static = fast.context.medium._static_pos
            assert {r in static for r in fast.relay_ids} == {True, False}
            assert fast.context.medium.channel.pool.peak_live > 6


class TestChannelAwareSelectionIdentity:
    """Channel-aware selection policies keep every replay contract: the
    pure `estimate_link` queries consume no RNG, so a `rate`/`hybrid` run
    replays byte-identically, matches the brute-force oracle,
    and the distance policy stays byte-identical to a run that never
    computed an estimate at all."""

    KWARGS = dict(
        n_devices=25, duration_s=120.0, hotspots=4,
        mobile_fraction=0.2, channel="sinr",
    )

    def test_rate_policy_replays_byte_identically(self):
        for seed in SEEDS:
            kwargs = dict(self.KWARGS, seed=seed, selection_policy="rate")
            first = run_crowd_scenario(**kwargs)
            second = run_crowd_scenario(**kwargs)
            assert (
                first.metrics.to_comparable_dict()
                == second.metrics.to_comparable_dict()
            ), f"rate-policy replay diverged for seed {seed}"
            assert first.metrics.channel["transfers"] > 0

    def test_hybrid_policy_indexed_scan_matches_brute_force(self, brute_force):
        for seed in SEEDS:
            _assert_crowd_matches_oracle(
                brute_force, **self.KWARGS, seed=seed, selection_policy="hybrid"
            )

    def test_explicit_distance_policy_is_the_default(self):
        # selection_policy="distance" must be a pure spelling of the
        # default — same RNG draws, same metrics, byte for byte.
        kwargs = dict(self.KWARGS, seed=0)
        implicit = run_crowd_scenario(**kwargs)
        explicit = run_crowd_scenario(selection_policy="distance", **kwargs)
        assert (
            implicit.metrics.to_comparable_dict()
            == explicit.metrics.to_comparable_dict()
        )
