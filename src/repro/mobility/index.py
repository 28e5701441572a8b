"""Uniform-grid spatial index for neighbor discovery.

Every D2D scan needs "who is within ``max_range_m`` of me?". Answering it
by walking all N endpoints makes a crowd scan O(N) and a scan storm O(N²);
the :class:`SpatialIndex` bins devices into square cells of
``cell_size_m`` (one radio range per cell) so a query touches only the
cells overlapping the query disc — O(local density) instead of O(N).

The index is an *acceleration structure, not an oracle*: it returns a
candidate superset and callers re-check exact distances, so correctness
never depends on binned positions being perfectly fresh. Staleness is
handled with the drift-bound contract:

- devices whose mobility model has a known speed bound are rebinned
  incrementally via :meth:`update`; a query expands its radius by the
  caller-supplied ``slack_m`` (max speed × staleness) so a device can
  never drift out of its candidate cell unseen;
- devices with an unknown speed bound don't belong in the index at all —
  the owner keeps them in an always-checked side set.

All methods are O(1) or O(candidate cells); nothing is O(N).
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.mobility.space import Position

Cell = Tuple[int, int]


class SpatialIndex:
    """Uniform grid over an unbounded plane (cells exist on demand).

    Parameters
    ----------
    cell_size_m:
        Edge of one square cell, in metres. Use the radio technology's
        ``max_range_m`` so a range query touches at most a 3×3 block plus
        the slack ring.
    """

    __slots__ = (
        "cell_size_m",
        "_cells",
        "_where",
        "_version",
        "updates",
    )

    def __init__(self, cell_size_m: float) -> None:
        if cell_size_m <= 0:
            raise ValueError(f"cell size must be positive, got {cell_size_m}")
        self.cell_size_m = float(cell_size_m)
        #: cell → {device_id: None} (dict for O(1) removal, stable order)
        self._cells: Dict[Cell, Dict[str, None]] = {}
        self._where: Dict[str, Cell] = {}
        #: bumped on every membership/bin change; owners stamp caches of
        #: query results with it
        self._version = 0
        #: position updates applied (read into ``PerfCounters.index_updates``)
        self.updates = 0

    # ------------------------------------------------------------------
    def _cell_of(self, pos: Position) -> Cell:
        size = self.cell_size_m
        return (math.floor(pos[0] / size), math.floor(pos[1] / size))

    def __len__(self) -> int:
        return len(self._where)

    def __contains__(self, device_id: str) -> bool:
        return device_id in self._where

    # ------------------------------------------------------------------
    def insert(self, device_id: str, pos: Position) -> None:
        """Add a device at ``pos``; it must not already be indexed."""
        if device_id in self._where:
            raise ValueError(f"{device_id!r} is already indexed")
        cell = self._cell_of(pos)
        self._cells.setdefault(cell, {})[device_id] = None
        self._where[device_id] = cell
        self._version += 1

    def remove(self, device_id: str) -> None:
        """Drop a device from the index; unknown ids are ignored."""
        cell = self._where.pop(device_id, None)
        if cell is None:
            return
        bucket = self._cells.get(cell)
        if bucket is not None:
            bucket.pop(device_id, None)
            if not bucket:
                del self._cells[cell]
        self._version += 1

    def update(self, device_id: str, pos: Position) -> None:
        """Rebin a device after it moved — O(1), no-op if the cell held."""
        self.updates += 1
        new_cell = self._cell_of(pos)
        old_cell = self._where.get(device_id)
        if old_cell == new_cell:
            return
        if old_cell is not None:
            bucket = self._cells.get(old_cell)
            if bucket is not None:
                bucket.pop(device_id, None)
                if not bucket:
                    del self._cells[old_cell]
        self._cells.setdefault(new_cell, {})[device_id] = None
        self._where[device_id] = new_cell
        self._version += 1

    # ------------------------------------------------------------------
    def query_neighbors(
        self, pos: Position, radius_m: float, slack_m: float = 0.0
    ) -> List[str]:
        """Ids of every indexed device whose cell overlaps the query disc.

        Returns a *superset* of the devices within ``radius_m`` of ``pos``
        (cell granularity; callers re-check exact distances). ``slack_m``
        widens the disc to absorb drift of not-yet-rebinned movers. Order
        is unspecified — callers needing determinism must sort. A plain
        list (not a generator) on purpose: this sits on the scan hot path
        and generator frame switches cost more than the list build.
        """
        reach = radius_m + slack_m
        found: List[str] = []
        if reach < 0:
            return found
        size = self.cell_size_m
        cells = self._cells
        x_lo = math.floor((pos[0] - reach) / size)
        x_hi = math.floor((pos[0] + reach) / size)
        y_lo = math.floor((pos[1] - reach) / size)
        y_hi = math.floor((pos[1] + reach) / size)
        for cx in range(x_lo, x_hi + 1):
            for cy in range(y_lo, y_hi + 1):
                bucket = cells.get((cx, cy))
                if bucket:
                    found.extend(bucket)
        return found

    def query_block(
        self, pos: Position, radius_m: float, slack_m: float = 0.0
    ) -> List[str]:
        """Block query: a (possibly wider) superset of
        :meth:`query_neighbors`.

        Merges the ``(2k+1)²`` cells within ``k = ceil(reach / cell_size)``
        of the query's own cell — a conservative cover of the query disc
        regardless of where in its cell ``pos`` falls, which is what makes
        the result cacheable per *(cell, k)* instead of per position
        (:class:`~repro.d2d.base.D2DMedium` caches it, stamped with
        ``_version``). Returns a fresh list the caller owns.
        """
        reach = radius_m + slack_m
        if reach < 0:
            return []
        cx, cy = self._cell_of(pos)
        k = max(0, math.ceil(reach / self.cell_size_m))
        cells = self._cells
        found: List[str] = []
        for x in range(cx - k, cx + k + 1):
            for y in range(cy - k, cy + k + 1):
                bucket = cells.get((x, y))
                if bucket:
                    found.extend(bucket)
        return found

    def cell_population(self) -> List[int]:
        """Occupancy of each non-empty cell (diagnostics/benchmarks)."""
        return sorted(len(bucket) for bucket in self._cells.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SpatialIndex(cell={self.cell_size_m:g} m, "
            f"{len(self._where)} devices in {len(self._cells)} cells)"
        )
