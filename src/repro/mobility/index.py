"""Uniform-grid spatial index for neighbor discovery.

Every D2D scan needs "who is within ``max_range_m`` of me?". Answering it
by walking all N endpoints makes a crowd scan O(N) and a scan storm O(N²);
the :class:`SpatialIndex` bins devices into square cells of
``cell_size_m`` (one radio range per cell) so a query touches only the
cells overlapping the query disc — O(local density) instead of O(N).

The index is an *acceleration structure, not an oracle*: it returns a
candidate superset and callers re-check exact distances. It holds
*static* devices only (a zero speed bound), binned once at insert, so a
bin is never stale. :class:`~repro.d2d.base.D2DMedium` keeps every
device that can move out of the index and range-filters all of them in
one numpy pass per scan, with positions from one
:class:`~repro.mobility.models.TrajectoryBatch` call per instant.

All methods are O(1) or O(candidate cells); nothing is O(N).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.mobility.space import Position

Cell = Tuple[int, int]


class SpatialIndex:
    """Uniform grid over an unbounded plane (cells exist on demand).

    Parameters
    ----------
    cell_size_m:
        Edge of one square cell, in metres. Use the radio technology's
        ``max_range_m`` so a range query touches at most a 3×3 block.
    """

    __slots__ = ("cell_size_m", "_cells", "_where")

    def __init__(self, cell_size_m: float) -> None:
        if cell_size_m <= 0:
            raise ValueError(f"cell size must be positive, got {cell_size_m}")
        self.cell_size_m = float(cell_size_m)
        #: cell → {device_id: None} (dict for O(1) removal, stable order)
        self._cells: Dict[Cell, Dict[str, None]] = {}
        self._where: Dict[str, Cell] = {}

    # ------------------------------------------------------------------
    def _cell_of(self, pos: Position) -> Cell:
        size = self.cell_size_m
        return (math.floor(pos[0] / size), math.floor(pos[1] / size))

    def __len__(self) -> int:
        return len(self._where)

    def __contains__(self, device_id: str) -> bool:
        return device_id in self._where

    # ------------------------------------------------------------------
    def insert(self, device_id: str, pos: Position) -> Cell:
        """Add a device at ``pos``; it must not already be indexed.
        Returns the cell it was binned into."""
        if device_id in self._where:
            raise ValueError(f"{device_id!r} is already indexed")
        cell = self._cell_of(pos)
        self._cells.setdefault(cell, {})[device_id] = None
        self._where[device_id] = cell
        return cell

    def remove(self, device_id: str) -> Optional[Cell]:
        """Drop a device from the index and return the cell it was in;
        unknown ids are ignored (``None``)."""
        cell = self._where.pop(device_id, None)
        if cell is None:
            return None
        bucket = self._cells.get(cell)
        if bucket is not None:
            bucket.pop(device_id, None)
            if not bucket:
                del self._cells[cell]
        return cell

    # ------------------------------------------------------------------
    def query_neighbors(self, pos: Position, radius_m: float) -> List[str]:
        """Ids of every indexed device whose cell overlaps the query disc.

        Returns a *superset* of the devices within ``radius_m`` of ``pos``
        (cell granularity; callers re-check exact distances). Order is
        unspecified — callers needing determinism must sort.
        """
        found: List[str] = []
        if radius_m < 0:
            return found
        size = self.cell_size_m
        cells = self._cells
        x_lo = math.floor((pos[0] - radius_m) / size)
        x_hi = math.floor((pos[0] + radius_m) / size)
        y_lo = math.floor((pos[1] - radius_m) / size)
        y_hi = math.floor((pos[1] + radius_m) / size)
        for cx in range(x_lo, x_hi + 1):
            for cy in range(y_lo, y_hi + 1):
                bucket = cells.get((cx, cy))
                if bucket:
                    found.extend(bucket)
        return found

    def query_block(self, pos: Position, radius_m: float) -> List[str]:
        """Block query: a (possibly wider) superset of
        :meth:`query_neighbors`.

        Merges the ``(2k+1)²`` cells within ``k = ceil(radius / cell_size)``
        of the query's own cell — a conservative cover of the query disc
        regardless of where in its cell ``pos`` falls, which is what makes
        the result cacheable per cell instead of per position
        (:class:`~repro.d2d.base.D2DMedium` caches its static blocks per
        cell). Returns a fresh list the caller owns.
        """
        if radius_m < 0:
            return []
        cx, cy = self._cell_of(pos)
        k = max(0, math.ceil(radius_m / self.cell_size_m))
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
