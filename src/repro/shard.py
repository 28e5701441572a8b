"""Cell-sharded event kernel: city-scale crowds across worker processes.

The single :class:`~repro.sim.engine.Simulator` kernel is exact but
serial: a 5000-device storm fires every scan, beat, and RRC timer through
one heap. This module partitions that work by **serving cell** — the same
partition :mod:`repro.cellular.network` defines — so each shard owns the
devices homed in its cells and runs them on a private simulator, either
in-process (``backend="serial"``) or on one worker process per shard
(``backend="process"``).

Conservative-time sync
----------------------
Shards advance in lock-step windows of ``sync_window_s`` simulated
seconds. Device state never crosses a shard boundary mid-window; at each
window boundary every shard

1. applies the **ghost endpoints** routed to it at the previous boundary
   (frozen-position snapshots of foreign advertising devices near the
   border),
2. runs its simulator to the boundary,
3. runs a handover pass over its movers (nearest-cell reattachment,
   rebinding each moved device's modem to the new cell's base station
   and ledger), and
4. reports its own advertising devices that sit within the ghost margin
   of a foreign shard's cells.

Static devices never change cell or border targets, so a shard computes
theirs once at build; each window re-checks only the movers, with one
movers × cells distance matrix for both passes.

The parent gathers all reports (a barrier), routes them by the shard
plan, and hands each shard its ghost list for the next window. Ghosts are
discovery-visible only: they advertise ``capacity_remaining: 0`` so the
relay matcher always rejects them, and they stand still
(:class:`~repro.mobility.models.StaticMobility`) until the next window's
diff re-registers a moved device's ghost, so the spatial index treats
them as indexable statics.

Determinism contract
--------------------
What the determinism guard asserts:

- one shard is the unsharded run: shard 0's simulator draws the master
  seed's stream, so ``run_crowd_scenario_sharded(shards=1)`` reproduces
  :func:`~repro.scenarios.run_crowd_scenario`'s
  :meth:`~repro.metrics.RunMetrics.to_comparable_dict` byte for byte —
  the shard layer's exact oracle;
- ``serial`` ≡ ``process``: the two backends execute the identical
  window protocol in the identical order, so their merged metrics match
  byte for byte;
- replay: the same ``(params, seed)`` always reproduces the same merged
  metrics, whichever backend ran it.

With several shards the run is not the unsharded one: shard ``i ≥ 1``
draws its own ``child_seed(seed, "shard:i")`` stream, and border
discovery sees frozen ghosts instead of live peers.

Every shard reads the full crowd layout (placement, roles, phases) from
:func:`repro.scenarios.crowd_layout` and builds its own devices with
:func:`repro.scenarios.build_crowd`, the two functions the unsharded
kernel uses — no layout data ever needs to cross a process boundary.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as _np

from repro.cellular.network import (
    CellularNetwork,
    cell_distances,
    grid_cell_positions,
    nearest_cells,
)
from repro.d2d.base import D2DEndpoint, D2DMedium
from repro.d2d.wifi_direct import WIFI_DIRECT
from repro.energy.model import EnergyModel
from repro.energy.profiles import DEFAULT_PROFILE
from repro.metrics import DeliveryMetrics, RunMetrics, collect_metrics
from repro.mobility.models import StaticMobility, TrajectoryBatch
from repro.mobility.space import Arena, Position
from repro.scenarios import DEFAULT_DRAIN_S, CrowdLayout, build_crowd, crowd_layout
from repro.sim.engine import Simulator
from repro.sim.rng import child_seed
from repro.workload.apps import STANDARD_APP
from repro.workload.server import IMServer


# ----------------------------------------------------------------------
# partition plan
# ----------------------------------------------------------------------
def cell_occupancy(cells: Sequence[int], n_cells: int) -> List[int]:
    """Devices per grid cell, given each device's cell index.

    The tile planner's cost model, counted from the crowd's home cells
    (:meth:`CrowdShardParams.home_cells`: the :func:`nearest_cells` of
    the t=0 placements, the attachment rule itself).
    """
    return _np.bincount(
        _np.asarray(cells, dtype=_np.int64), minlength=n_cells
    ).tolist()


def _tile_partition(
    n_shards: int, cells_x: int, cells_y: int, weights: Sequence[float]
) -> List[int]:
    """Pack grid cells into rectangular shard tiles by weighted bisection.

    Orthogonal recursive bisection over the cell grid: each step cuts the
    current rectangle along a full grid line (so every shard stays a
    rectangle and the ghost-border exchange stays a per-edge operation)
    and splits the rectangle's shard budget between the two sides in
    proportion to the device weight each side carries. The cut minimizing
    the per-shard load imbalance ``|w_lo/k_lo - w_hi/k_hi|`` wins;
    ties break deterministically (x-cut before y-cut, lowest cut line
    first), so every shard worker derives the identical partition.

    Any grid with at least one cell per shard is packable.
    """
    assignment = [0] * (cells_x * cells_y)

    def rect_cells(x0: int, x1: int, y0: int, y1: int) -> List[int]:
        return [
            y * cells_x + x for y in range(y0, y1) for x in range(x0, x1)
        ]

    def line_weight(axis: str, line: int, x0: int, x1: int, y0: int, y1: int) -> float:
        if axis == "x":  # one column of the rect
            return sum(weights[y * cells_x + line] for y in range(y0, y1))
        return sum(weights[line * cells_x + x] for x in range(x0, x1))

    def split(x0: int, x1: int, y0: int, y1: int, shard0: int, k: int) -> None:
        if k == 1:
            for c in rect_cells(x0, x1, y0, y1):
                assignment[c] = shard0
            return
        n_cells = (x1 - x0) * (y1 - y0)
        total = float(sum(weights[c] for c in rect_cells(x0, x1, y0, y1)))
        best: Optional[Tuple[float, int, int, int]] = None
        for axis_idx, (axis, lo, hi, other) in enumerate(
            (("x", x0, x1, y1 - y0), ("y", y0, y1, x1 - x0))
        ):
            w_lo = 0.0
            for cut in range(1, hi - lo):
                w_lo += line_weight(axis, lo + cut - 1, x0, x1, y0, y1)
                n_lo = cut * other
                n_hi = n_cells - n_lo
                # the shard budget follows the weight, clamped so each
                # side keeps at least one cell per shard it receives
                k_min = max(1, k - n_hi)
                k_max = min(k - 1, n_lo)
                if k_min > k_max:
                    continue  # no feasible budget split across this cut
                share = w_lo / total if total else n_lo / n_cells
                k_lo = min(k_max, max(k_min, round(k * share)))
                k_hi = k - k_lo
                w_hi = total - w_lo
                score = abs(w_lo / k_lo - w_hi / k_hi)
                candidate = (score, axis_idx, cut, k_lo)
                if best is None or candidate < best:
                    best = candidate
        # a feasible cut always exists while n_cells >= k >= 2: cutting
        # one line off any axis of length >= 2 leaves k_min <= k_max
        assert best is not None, "no feasible tile cut (grid smaller than shards?)"
        _score, axis_idx, cut, k_lo = best
        if axis_idx == 0:
            split(x0, x0 + cut, y0, y1, shard0, k_lo)
            split(x0 + cut, x1, y0, y1, shard0 + k_lo, k - k_lo)
        else:
            split(x0, x1, y0, y0 + cut, shard0, k_lo)
            split(x0, x1, y0 + cut, y1, shard0 + k_lo, k - k_lo)

    split(0, cells_x, 0, cells_y, 0, n_shards)
    return assignment


class ShardPlan:
    """The static cell-to-shard partition every participant agrees on.

    Cells form a ``cells_x × cells_y`` grid over the arena (see
    :func:`repro.cellular.network.grid_cell_positions`), packed into
    rectangular shard **tiles** by the weighted bisection in
    :func:`_tile_partition`. The ``cell_weights`` cost model (device
    counts from the initial placements; uniform when omitted) balances
    per-shard device load. Any grid with one cell per shard works.
    """

    def __init__(
        self,
        n_shards: int,
        cells_x: int,
        cells_y: int,
        arena_w: float,
        arena_h: float,
        cell_weights: Optional[Sequence[float]] = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"need at least one shard, got {n_shards}")
        n_cells = cells_x * cells_y
        if n_cells < n_shards:
            raise ValueError(
                f"need at least one grid cell per shard: "
                f"{cells_x}x{cells_y}={n_cells} cells < n_shards={n_shards}"
            )
        if cell_weights is not None and len(cell_weights) != n_cells:
            raise ValueError(
                f"cell_weights must have one entry per cell: "
                f"got {len(cell_weights)} for a {cells_x}x{cells_y} grid"
            )
        self.n_shards = n_shards
        self.cells_x = cells_x
        self.cells_y = cells_y
        self.cell_positions: List[Position] = grid_cell_positions(
            arena_w, arena_h, cells_x, cells_y
        )
        #: cell index -> owning shard
        self.cell_shards: List[int] = _tile_partition(
            n_shards, cells_x, cells_y,
            [1.0] * n_cells if cell_weights is None else list(cell_weights),
        )
        #: shard -> its cells' column indices in a :func:`cell_distances` matrix
        self._shard_columns: List[_np.ndarray] = [
            _np.flatnonzero(_np.asarray(self.cell_shards) == j)
            for j in range(n_shards)
        ]

    def border_targets(
        self, distances: _np.ndarray, own_shard: int, margin_m: float
    ) -> List[List[int]]:
        """Foreign shards that should see a ghost of each device.

        ``distances`` holds one row per device, as
        ``cell_distances(self.cell_positions, positions)`` builds it. A
        device borders shard ``j`` when its distance to ``j``'s nearest
        cell exceeds its distance to the overall nearest cell by at most
        ``2 × margin_m`` — twice the D2D range, so any foreign device it
        could possibly reach lives in a shard that received its ghost.
        Each row's targets come in ascending shard order.
        """
        targets: List[List[int]] = [[] for _ in range(len(distances))]
        d_best = distances.min(axis=1)
        reach = 2.0 * margin_m
        for j, columns in enumerate(self._shard_columns):
            if j == own_shard:
                continue
            near = distances[:, columns].min(axis=1) - d_best <= reach
            for row in _np.flatnonzero(near).tolist():
                targets[row].append(j)
        return targets


@dataclasses.dataclass(frozen=True)
class CrowdShardParams:
    """Plain-scalar description of one sharded crowd run.

    Frozen and picklable on purpose: this is the *only* object shipped to
    worker processes — each worker rebuilds its entire world from it.
    ``storm_scan_period_s`` replaces the unsharded runner's ``pre_run``
    callable (unpicklable) with the one storm knob the benches use.
    """

    n_devices: int = 40
    relay_fraction: float = 0.2
    duration_s: float = 1800.0
    arena_w: float = 60.0
    arena_h: float = 60.0
    hotspots: int = 3
    hotspot_spread_m: float = 8.0
    mobile_fraction: float = 0.0
    seed: int = 0
    capacity: int = 10
    relay_selection: str = "roundrobin"
    drain_s: float = DEFAULT_DRAIN_S
    heartbeat_period_s: Optional[float] = None
    storm_scan_period_s: Optional[float] = None
    n_shards: int = 2
    cells_x: int = 4
    cells_y: int = 2
    sync_window_s: float = 5.0
    ghost_margin_m: float = WIFI_DIRECT.max_range_m

    def layout(self) -> CrowdLayout:
        """The whole crowd, from the master seed (see :func:`crowd_layout`)."""
        return crowd_layout(
            self.n_devices,
            self.relay_fraction,
            Arena(self.arena_w, self.arena_h),
            self.seed,
            hotspots=self.hotspots,
            hotspot_spread_m=self.hotspot_spread_m,
            mobile_fraction=self.mobile_fraction,
            relay_selection=self.relay_selection,
        )

    def home_cells(self, layout: CrowdLayout) -> List[int]:
        """Each layout device's grid cell at t=0, in layout order.

        One :func:`nearest_cells` pass over the t=0 placements: the cell
        the network attaches the device to at build, and so (through the
        plan's ``cell_shards``) its home shard.
        """
        return nearest_cells(
            grid_cell_positions(
                self.arena_w, self.arena_h, self.cells_x, self.cells_y
            ),
            [m.position(0.0) for m in layout.mobilities],
        )

    def plan(self, home_cells: Optional[Sequence[int]] = None) -> ShardPlan:
        """Build the partition every shard worker independently agrees on.

        The tile cost model counts the crowd's home cells. Every worker
        reads them from the same :meth:`layout` and so computes identical
        weights — no plan data crosses a process boundary. Pass
        ``home_cells`` when they are already computed.
        """
        if home_cells is None:
            home_cells = self.home_cells(self.layout())
        return ShardPlan(
            self.n_shards, self.cells_x, self.cells_y,
            self.arena_w, self.arena_h,
            cell_weights=cell_occupancy(home_cells, self.cells_x * self.cells_y),
        )


# ----------------------------------------------------------------------
# per-shard world
# ----------------------------------------------------------------------
#: (device_id, x, y, role) — one routed ghost entry.
GhostEntry = Tuple[str, float, float, str]
#: (device_id, x, y, role, target_shards) — one border-report entry.
ReportEntry = Tuple[str, float, float, str, List[int]]


#: statics per distance matrix at build; one matrix for all ~3,600
#: statics of a ``sharded-city`` shard raised the worker's peak RSS by
#: ~1.4 MB
_STATIC_ROWS = 512


class _ShardState:
    """One shard's complete world: simulator, cells, devices, framework.

    Every shard reads the *full* crowd layout (placement, roles and
    heartbeat phases are global facts), then attaches and instantiates
    only the devices homed in its own cells.
    """

    def __init__(self, shard_index: int, params: CrowdShardParams) -> None:
        self.shard_index = shard_index
        self.params = params
        layout = params.layout()
        home_cells = params.home_cells(layout)
        self.plan = params.plan(home_cells)
        # shard 0 draws the unsharded run's stream, so one shard is the
        # unsharded run; every other shard gets a stream of its own
        self.sim = Simulator(
            seed=params.seed if shard_index == 0
            else child_seed(params.seed, f"shard:{shard_index}")
        )
        self.network = CellularNetwork(self.sim, self.plan.cell_positions)
        self.server = IMServer(self.sim)
        self.network.attach_sink_everywhere(self.server.uplink_sink)
        self.medium = D2DMedium(self.sim, WIFI_DIRECT, profile=DEFAULT_PROFILE)

        app = STANDARD_APP
        if params.heartbeat_period_s is not None:
            app = dataclasses.replace(
                app, heartbeat_period_s=params.heartbeat_period_s
            )

        cell_shards = self.plan.cell_shards

        def attach(index: int, device_id: str):
            cell_index = home_cells[index]
            if cell_shards[cell_index] != shard_index:
                return None
            cell = self.network.attach_cell(device_id, cell_index)
            return cell.ledger, cell.basestation

        crowd = build_crowd(
            self.sim, layout, attach, self.medium, app=app,
            capacity=params.capacity,
        )
        self.devices = crowd.devices
        self.framework = crowd.framework

        # A static device keeps its build-time cell and its border targets
        # for the whole run, so its targets are computed here, in numpy
        # batches, and the window passes re-check only the movers.
        statics = []
        #: own devices whose position may change (nonzero or unknown speed)
        self._movers = []
        for device in self.devices.values():
            if device.mobility.max_speed_m_s() == 0.0:
                statics.append(device)
            else:
                self._movers.append(device)
        self._mover_batch = TrajectoryBatch(
            [device.mobility for device in self._movers]
        )
        positions = [device.mobility.position(0.0) for device in statics]
        targets: List[List[int]] = []
        for start in range(0, len(positions), _STATIC_ROWS):
            rows = positions[start:start + _STATIC_ROWS]
            targets += self.plan.border_targets(
                cell_distances(self.plan.cell_positions, rows),
                shard_index, params.ghost_margin_m,
            )
        #: the statics a foreign shard may ghost, as fixed report entries
        self._static_border: List[ReportEntry] = [
            (device.device_id, x, y, device.role.value, device_targets)
            for device, (x, y), device_targets in zip(statics, positions, targets)
            if device_targets
        ]

        self.handovers = 0
        self.ghost_registrations = 0
        self._ghosts: Dict[str, GhostEntry] = {}
        if params.storm_scan_period_s is not None:
            self._setup_storm(params.storm_scan_period_s)

    # ------------------------------------------------------------------
    def _setup_storm(self, scan_period_s: float) -> None:
        """Every own device advertises and scans periodically."""
        medium, sim = self.medium, self.sim
        for device_id in self.devices:
            endpoint = medium.endpoint(device_id)
            endpoint.advertising = True
            endpoint.advertisement.setdefault("storm", 1)

            def tick(did: str = device_id) -> None:
                if medium.endpoint(did).powered_on:
                    medium.discover(did, lambda peers: None)

            sim.every(scan_period_s, tick, name=f"storm-{device_id}")

    # ------------------------------------------------------------------
    # window protocol
    # ------------------------------------------------------------------
    def run_window(
        self, t_end: float, ghosts: List[GhostEntry]
    ) -> Tuple[List[ReportEntry], float]:
        """One sync window; returns ``(border_report, work_seconds)``.

        ``work_seconds`` is this shard's wall-clock cost for the window —
        the number the parent turns into ``barrier_wait_s`` (how long the
        shard would idle at the barrier waiting for the slowest peer) and
        the critical path. The ghost/handover/report bookkeeping is also
        booked under the ``shard-sync`` perf section so sync overhead is
        separable from simulation work in bench reports.
        """
        t_start = time.perf_counter()
        self.apply_ghosts(ghosts)
        t_sim = time.perf_counter()
        sync_s = t_sim - t_start
        self.sim.run_until(t_end)
        t_post = time.perf_counter()
        # the movers' positions and one movers × cells distance matrix
        # serve both passes
        t = self.sim.now
        xs, ys = self._mover_batch.positions(t)
        positions = list(zip(xs.tolist(), ys.tolist()))
        distances = cell_distances(self.plan.cell_positions, positions)
        self.handover_pass(positions, distances)
        report = self.border_report(positions, distances)
        t_done = time.perf_counter()
        self.medium.perf.add_seconds("shard-sync", sync_s + (t_done - t_post))
        return report, t_done - t_start

    def apply_ghosts(self, ghosts: List[GhostEntry]) -> None:
        """Diff the incoming ghost set against the registered one.

        Unchanged ghosts stay registered (no index churn); moved or
        departed ghosts are unregistered, new snapshots registered. The
        diff keys on the full entry, so a moved device re-registers at
        its new frozen position.
        """
        incoming = {entry[0]: entry for entry in ghosts}
        for ghost_id in list(self._ghosts):
            if incoming.get(ghost_id) == self._ghosts[ghost_id]:
                continue
            self.medium.unregister(ghost_id)
            del self._ghosts[ghost_id]
        for ghost_id in sorted(incoming):
            if ghost_id in self._ghosts:
                continue
            entry = incoming[ghost_id]
            endpoint = D2DEndpoint(
                ghost_id,
                StaticMobility((entry[1], entry[2])),
                energy=EnergyModel(owner=ghost_id),
                # capacity_remaining 0 → the relay matcher always rejects
                # a ghost, so no cross-shard session can form mid-window
                advertisement={
                    "ghost": 1,
                    "role": entry[3],
                    "capacity_remaining": 0,
                },
            )
            endpoint.advertising = True
            self.medium.register(endpoint)
            self._ghosts[ghost_id] = entry
            self.ghost_registrations += 1

    def handover_pass(
        self, positions: List[Position], distances: _np.ndarray
    ) -> None:
        """Nearest-cell reattachment for every own mover.

        ``positions`` and ``distances`` are the movers' positions and
        their ``cell_distances`` rows; the network's scalar
        :meth:`~repro.cellular.network.CellularNetwork.reattach` runs only
        for the movers whose nearest cell changed.
        """
        cells = self.network.cells
        nearest = distances.argmin(axis=1).tolist()
        for device, position, cell_index in zip(self._movers, positions, nearest):
            if self.network.cell_of(device.device_id) is cells[cell_index]:
                continue
            cell, _changed = self.network.reattach(device.device_id, position)
            # rebind the modem to the new cell; RRC state (and its
            # pending timers) carry over, as in a lossless handover
            device.modem.basestation = cell.basestation
            device.modem.rrc.ledger = cell.ledger
            self.handovers += 1

    def border_report(
        self, positions: List[Position], distances: _np.ndarray
    ) -> List[ReportEntry]:
        """Own advertising devices a foreign shard should ghost.

        Statics report their build-time entries; movers are evaluated from
        this window's ``positions``/``distances``. Whether a device
        advertises is checked every window. :func:`_route_reports` sorts
        what it routes, so the report's order carries no meaning.
        """
        medium = self.medium
        report: List[ReportEntry] = []
        for entry in self._static_border:
            endpoint = medium.endpoint(entry[0])
            if endpoint.advertising and endpoint.powered_on:
                report.append(entry)
        targets = self.plan.border_targets(
            distances, self.shard_index, self.params.ghost_margin_m
        )
        for device, (x, y), device_targets in zip(self._movers, positions, targets):
            if not device_targets:
                continue
            endpoint = medium.endpoint(device.device_id)
            if endpoint.advertising and endpoint.powered_on:
                report.append(
                    (device.device_id, x, y, device.role.value, device_targets)
                )
        return report

    # ------------------------------------------------------------------
    def finish(self) -> Tuple[RunMetrics, Dict[str, int]]:
        """Shutdown, drain, and snapshot this shard's metrics."""
        self.framework.shutdown()
        horizon = self.params.duration_s + self.params.drain_s
        self.sim.run_until(horizon)
        metrics = collect_metrics(
            self.devices.values(),
            self.network.combined_ledger,
            self.server,
            horizon_s=horizon,
            perf=self.medium.perf.to_dict(),
        )
        stats = {
            "handovers": self.handovers,
            "ghost_registrations": self.ghost_registrations,
            "events_fired": self.sim.events_fired,
            "n_devices": len(self.devices),
            "coalesced_pops": self.sim.queue.coalesced_pops,
        }
        return metrics, stats


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------
class _SerialBackend:
    """All shards in this process — the reference for backend identity."""

    def __init__(self, params: CrowdShardParams) -> None:
        self.shards = [
            _ShardState(i, params) for i in range(params.n_shards)
        ]

    def run_window(
        self, t_end: float, ghosts_by_shard: List[List[GhostEntry]]
    ) -> List[Tuple[List[ReportEntry], float]]:
        return [
            shard.run_window(t_end, ghosts_by_shard[i])
            for i, shard in enumerate(self.shards)
        ]

    def finish(self) -> List[Tuple[RunMetrics, Dict[str, int]]]:
        return [shard.finish() for shard in self.shards]

    def close(self) -> None:
        pass


def _shard_worker(conn, params: CrowdShardParams, shard_index: int) -> None:
    """Worker-process loop: build the shard world, serve window commands."""
    state = _ShardState(shard_index, params)
    try:
        while True:
            message = conn.recv()
            if message[0] == "window":
                conn.send(state.run_window(message[1], message[2]))
            elif message[0] == "finish":
                conn.send(state.finish())
                return
            else:  # pragma: no cover - protocol error
                raise ValueError(f"unknown shard command {message[0]!r}")
    finally:
        conn.close()


class _ProcessBackend:
    """One OS process per shard, command/response over pipes.

    The window protocol is executed in exactly the order the serial
    backend uses (send to all, then receive in shard order), so the two
    backends are observationally identical — that identity is what the
    determinism guard pins.
    """

    def __init__(self, params: CrowdShardParams) -> None:
        self.pipes = []
        self.processes = []
        for i in range(params.n_shards):
            parent_conn, child_conn = multiprocessing.Pipe()
            process = multiprocessing.Process(
                target=_shard_worker,
                args=(child_conn, params, i),
                daemon=True,
                name=f"shard-{i}",
            )
            process.start()
            child_conn.close()
            self.pipes.append(parent_conn)
            self.processes.append(process)

    def run_window(
        self, t_end: float, ghosts_by_shard: List[List[GhostEntry]]
    ) -> List[Tuple[List[ReportEntry], float]]:
        for i, pipe in enumerate(self.pipes):
            pipe.send(("window", t_end, ghosts_by_shard[i]))
        return [pipe.recv() for pipe in self.pipes]

    def finish(self) -> List[Tuple[RunMetrics, Dict[str, int]]]:
        for pipe in self.pipes:
            pipe.send(("finish",))
        results = [pipe.recv() for pipe in self.pipes]
        for process in self.processes:
            process.join(timeout=60)
        return results

    def close(self) -> None:
        for pipe in self.pipes:
            try:
                pipe.close()
            except OSError:  # pragma: no cover - teardown best-effort
                pass
        for process in self.processes:
            if process.is_alive():  # pragma: no cover - error teardown
                process.terminate()
                process.join(timeout=10)


def _route_reports(
    reports: List[List[ReportEntry]], n_shards: int
) -> List[List[GhostEntry]]:
    """Border reports → per-shard ghost lists, sorted by device id."""
    ghosts_by_shard: List[List[GhostEntry]] = [[] for _ in range(n_shards)]
    for report in reports:
        for device_id, x, y, role, targets in report:
            for target in targets:
                ghosts_by_shard[target].append((device_id, x, y, role))
    for ghosts in ghosts_by_shard:
        ghosts.sort()
    return ghosts_by_shard


# ----------------------------------------------------------------------
# metrics merge
# ----------------------------------------------------------------------
def _merge_perf(
    perfs: List[Optional[Dict[str, float]]]
) -> Optional[Dict[str, float]]:
    """Numeric sum of per-shard perf counters."""
    merged: Dict[str, float] = {}
    for perf in perfs:
        if not perf:
            continue
        for key, value in perf.items():
            if isinstance(value, (int, float)):
                merged[key] = merged.get(key, 0) + value
    return merged or None


def _merge_metrics(
    per_shard: List[RunMetrics], horizon_s: float
) -> RunMetrics:
    """Union of per-shard device metrics plus summed aggregates.

    Shards partition the device set, so the per-device dicts are
    disjoint; delivery counts add, and the mean delay is the
    received-weighted mean of the shard means.
    """
    devices: Dict[str, Any] = {}
    for metrics in per_shard:
        devices.update(metrics.devices)
    received = on_time = late = relayed = 0
    delay_weighted = 0.0
    have_delivery = False
    for metrics in per_shard:
        delivery = metrics.delivery
        if delivery is None:
            continue
        have_delivery = True
        received += delivery.received
        on_time += delivery.on_time
        late += delivery.late
        relayed += delivery.relayed
        delay_weighted += delivery.mean_delay_s * delivery.received
    merged_delivery = None
    if have_delivery:
        merged_delivery = DeliveryMetrics(
            received=received,
            on_time=on_time,
            late=late,
            relayed=relayed,
            mean_delay_s=delay_weighted / received if received else 0.0,
        )
    return RunMetrics(
        horizon_s=horizon_s,
        devices=devices,
        delivery=merged_delivery,
        total_l3_messages=sum(m.total_l3_messages for m in per_shard),
        faults=None,
        perf=_merge_perf([m.perf for m in per_shard]),
        channel=None,
    )


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
@dataclasses.dataclass
class ShardedRunResult:
    """Merged outcome of one sharded crowd run."""

    metrics: RunMetrics
    params: CrowdShardParams
    backend: str
    windows: int
    handovers: int
    ghost_registrations: int
    events_fired: int
    devices_per_shard: List[int]
    #: per-shard load report: ``devices``, ``events``, ``work_s``,
    #: ``barrier_wait_s`` (idle time the shard would spend at window
    #: barriers waiting for the slowest peer), handover/ghost churn and
    #: ``coalesced_pops`` (the event kernel's same-timestamp pop count)
    shard_load: List[Dict[str, float]] = dataclasses.field(default_factory=list)
    #: sum over windows of the slowest shard's work — the wall time an
    #: ideal one-core-per-shard machine needs for the windowed portion
    critical_path_s: float = 0.0
    #: sum of every shard's window work (what a single core must do)
    total_work_s: float = 0.0

    @property
    def device_skew(self) -> float:
        """Max/mean shard device count — 1.0 is a perfectly balanced plan."""
        counts = self.devices_per_shard
        if not counts or not sum(counts):
            return 0.0
        return max(counts) / (sum(counts) / len(counts))


def run_crowd_scenario_sharded(
    n_devices: int = 40,
    relay_fraction: float = 0.2,
    duration_s: float = 1800.0,
    arena: Optional[Arena] = None,
    hotspots: int = 3,
    hotspot_spread_m: float = 8.0,
    mobile_fraction: float = 0.0,
    capacity: int = 10,
    seed: int = 0,
    relay_selection: str = "roundrobin",
    drain_s: float = DEFAULT_DRAIN_S,
    heartbeat_period_s: Optional[float] = None,
    storm_scan_period_s: Optional[float] = None,
    shards: int = 2,
    cells_x: Optional[int] = None,
    cells_y: int = 2,
    sync_window_s: float = 5.0,
    ghost_margin_m: float = WIFI_DIRECT.max_range_m,
    shard_plan: str = "tiles",
    backend: str = "serial",
    mode: str = "d2d",
    channel: Optional[str] = None,
    shadowing_sigma_db: Optional[float] = None,
    selection_policy: Optional[str] = None,
    chaos=None,
    audit: Optional[bool] = None,
) -> ShardedRunResult:
    """Run a crowd scenario on the cell-sharded kernel.

    ``backend="serial"`` runs every shard in this process (the reference
    implementation); ``backend="process"`` runs one worker process per
    shard. Both execute the identical window protocol and must produce
    byte-identical merged metrics. Cells are partitioned into
    load-balanced rectangular tiles (see :class:`ShardPlan`);
    ``shard_plan`` accepts only ``"tiles"``.

    The ``mode``/``channel``/``shadowing_sigma_db``/``selection_policy``/
    ``chaos``/``audit`` parameters exist only to make unsupported
    combinations loud: the sharded kernel currently runs the d2d
    framework on the fixed-cost channel with the default link model and
    the distance ranking, without fault injection. Options it cannot
    honor raise rather than silently computing something different — and
    the error lists *every* offending option at once, so a sweep config
    with several bad knobs needs one round trip to fix, not several.
    """
    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    if backend not in ("serial", "process"):
        raise ValueError(f"backend must be 'serial' or 'process', got {backend!r}")
    blockers: List[str] = []
    if shard_plan != "tiles":
        blockers.append(
            f"shard_plan={shard_plan!r} (tiles are the only partition)"
        )
    if mode != "d2d":
        blockers.append(
            f"mode={mode!r} (only the d2d framework is sharded; the "
            f"original system needs the single global ledger)"
        )
    if channel not in (None, "fixed"):
        blockers.append(
            f"channel={channel!r} (the SINR channel's shared resource "
            f"blocks are global state)"
        )
    if shadowing_sigma_db is not None:
        blockers.append(
            f"shadowing_sigma_db={shadowing_sigma_db!r} (shards run the "
            f"default link model)"
        )
    if selection_policy not in (None, "distance"):
        blockers.append(
            f"selection_policy={selection_policy!r} (channel-aware ranking "
            f"needs the SINR channel)"
        )
    if chaos is not None:
        blockers.append(
            f"chaos={chaos!r} (fault scheduling draws from one global "
            f"chaos timeline)"
        )
    if audit:
        blockers.append(
            "audit=True (the invariant auditor tracks cross-device "
            "global state)"
        )
    if blockers:
        raise ValueError(
            "sharded kernel does not support: " + "; ".join(blockers)
        )
    if sync_window_s <= 0:
        raise ValueError(f"sync_window_s must be positive, got {sync_window_s}")
    arena = arena or Arena(60.0, 60.0)
    if cells_x is None:
        cells_x = max(2, 2 * shards)
    params = CrowdShardParams(
        n_devices=n_devices,
        relay_fraction=relay_fraction,
        duration_s=duration_s,
        arena_w=arena.width,
        arena_h=arena.height,
        hotspots=hotspots,
        hotspot_spread_m=hotspot_spread_m,
        mobile_fraction=mobile_fraction,
        seed=seed,
        capacity=capacity,
        relay_selection=relay_selection,
        drain_s=drain_s,
        heartbeat_period_s=heartbeat_period_s,
        storm_scan_period_s=storm_scan_period_s,
        n_shards=shards,
        cells_x=cells_x,
        cells_y=cells_y,
        sync_window_s=sync_window_s,
        ghost_margin_m=ghost_margin_m,
    )
    params.plan()  # validate the partition before any worker starts

    runner = (
        _SerialBackend(params) if backend == "serial"
        else _ProcessBackend(params)
    )
    work_s = [0.0] * shards
    barrier_wait_s = [0.0] * shards
    critical_path_s = 0.0
    try:
        stop_at = max(0.0, duration_s - 1.0)
        ghosts_by_shard: List[List[GhostEntry]] = [[] for _ in range(shards)]
        windows = 0
        t = 0.0
        while t < stop_at:
            t = min(t + sync_window_s, stop_at)
            outcomes = runner.run_window(t, ghosts_by_shard)
            reports = [report for report, _work in outcomes]
            window_work = [work for _report, work in outcomes]
            # the slowest shard sets the window barrier: everyone else's
            # gap to it is idle time on a one-core-per-shard machine
            peak = max(window_work)
            critical_path_s += peak
            for i, shard_work in enumerate(window_work):
                work_s[i] += shard_work
                barrier_wait_s[i] += peak - shard_work
            ghosts_by_shard = _route_reports(reports, shards)
            windows += 1
        results = runner.finish()
    finally:
        runner.close()

    metrics = _merge_metrics(
        [metrics for metrics, _stats in results], duration_s + drain_s
    )
    stats = [shard_stats for _metrics, shard_stats in results]
    shard_load = [
        {
            "shard": i,
            "devices": s["n_devices"],
            "events": s["events_fired"],
            "work_s": work_s[i],
            "barrier_wait_s": barrier_wait_s[i],
            "handovers": s["handovers"],
            "ghost_registrations": s["ghost_registrations"],
            "coalesced_pops": s["coalesced_pops"],
        }
        for i, s in enumerate(stats)
    ]
    return ShardedRunResult(
        metrics=metrics,
        params=params,
        backend=backend,
        windows=windows,
        handovers=sum(s["handovers"] for s in stats),
        ghost_registrations=sum(s["ghost_registrations"] for s in stats),
        events_fired=sum(s["events_fired"] for s in stats),
        devices_per_shard=[s["n_devices"] for s in stats],
        shard_load=shard_load,
        critical_path_s=critical_path_s,
        total_work_s=sum(work_s),
    )
