"""Multi-cell cellular network.

The paper's evaluation is single-cell, but the storm it motivates is an
operator-scale phenomenon: crowds concentrate in particular cells. This
module models a small network of base stations with position-based
attachment so experiments can ask per-cell questions — which cells storm,
how relay deployment shifts the load — without changing any device-side
code: each phone is simply built against its attachment cell's base
station and ledger.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as _np

from repro.cellular.basestation import BaseStation
from repro.cellular.signaling import L3Message, SignalingLedger
from repro.mobility.space import Position, distance_between
from repro.sim.engine import Simulator


def grid_cell_positions(
    arena_width: float,
    arena_height: float,
    cells_x: int,
    cells_y: int,
) -> List[Position]:
    """Cell-center positions of a ``cells_x × cells_y`` grid over an arena.

    Row-major with x fastest: cell index ``c`` sits at column
    ``c % cells_x`` — the layout the sharded kernel's tile partition
    relies on.
    """
    if cells_x < 1 or cells_y < 1:
        raise ValueError(f"need at least a 1x1 grid, got {cells_x}x{cells_y}")
    return [
        ((i + 0.5) * arena_width / cells_x, (j + 0.5) * arena_height / cells_y)
        for j in range(cells_y)
        for i in range(cells_x)
    ]


def nearest_cell(cell_positions: Sequence[Position], position: Position) -> int:
    """Index of the cell nearest ``position``; the first of equals wins."""
    return min(
        range(len(cell_positions)),
        key=lambda c: distance_between(cell_positions[c], position),
    )


def cell_distances(
    cell_positions: Sequence[Position], positions: Sequence[Position]
) -> _np.ndarray:
    """``positions × cells`` matrix of :func:`distance_between` values.

    Each entry is ``sqrt(dx*dx + dy*dy)`` with ``dx = cell_x - x``: the
    IEEE-754 sequence :func:`distance_between` performs, so every entry
    equals the scalar distance bit for bit.
    """
    cells = _np.asarray(cell_positions, dtype=_np.float64).reshape(-1, 2)
    points = _np.asarray(positions, dtype=_np.float64).reshape(-1, 2)
    dx = cells[None, :, 0] - points[:, 0:1]
    dy = cells[None, :, 1] - points[:, 1:2]
    # in place: two matrices live at a time, not five
    dx *= dx
    dy *= dy
    dx += dy
    return _np.sqrt(dx, out=dx)


def nearest_cells(
    cell_positions: Sequence[Position], positions: Sequence[Position]
) -> List[int]:
    """:func:`nearest_cell` for many positions in one numpy pass.

    ``argmin`` keeps the first minimum of the exact distances, so ties
    break to the lowest cell index exactly as :func:`nearest_cell`'s
    ``min`` does.
    """
    return _np.argmin(cell_distances(cell_positions, positions), axis=1).tolist()


@dataclasses.dataclass
class Cell:
    """One cell: a base station, its own signaling capture, a location."""

    cell_id: str
    position: Position
    basestation: BaseStation
    ledger: SignalingLedger


class CombinedLedger:
    """Read-only aggregate view over every cell's ledger.

    Implements the subset of the :class:`SignalingLedger` interface the
    metrics layer consumes, so `collect_metrics` works unchanged on
    multi-cell runs.
    """

    def __init__(self, ledgers: Sequence[SignalingLedger]) -> None:
        self._ledgers = list(ledgers)

    @property
    def total(self) -> int:
        return sum(ledger.total for ledger in self._ledgers)

    @property
    def total_cycles(self) -> int:
        return sum(ledger.total_cycles for ledger in self._ledgers)

    def count_for(self, device_id: str) -> int:
        return sum(ledger.count_for(device_id) for ledger in self._ledgers)

    def cycles_for(self, device_id: str) -> int:
        return sum(ledger.cycles_for(device_id) for ledger in self._ledgers)

    def device_totals(self) -> Tuple[Mapping[str, int], Mapping[str, int]]:
        """Per-device ``(messages, cycles)`` summed over every cell in one
        pass, for reading every device at once."""
        counts: Counter = Counter()
        cycles: Counter = Counter()
        for ledger in self._ledgers:
            ledger_counts, ledger_cycles = ledger.device_totals()
            counts.update(ledger_counts)
            cycles.update(ledger_cycles)
        return counts, cycles

    def messages(self, device_id: Optional[str] = None) -> List[L3Message]:
        out: List[L3Message] = []
        for ledger in self._ledgers:
            out.extend(ledger.messages(device_id))
        out.sort(key=lambda m: m.time_s)
        return out

    def __len__(self) -> int:
        return self.total


class CellularNetwork:
    """A set of cells with nearest-cell attachment."""

    def __init__(
        self,
        sim: Simulator,
        cell_positions: Sequence[Position],
        core_latency_s: float = 0.05,
        control_channel_capacity_msgs_per_s: float = 50.0,
    ) -> None:
        if not cell_positions:
            raise ValueError("a network needs at least one cell")
        self.sim = sim
        self.cells: List[Cell] = []
        for i, position in enumerate(cell_positions):
            ledger = SignalingLedger()
            basestation = BaseStation(
                sim,
                ledger=ledger,
                core_latency_s=core_latency_s,
                control_channel_capacity_msgs_per_s=(
                    control_channel_capacity_msgs_per_s
                ),
            )
            self.cells.append(
                Cell(f"cell-{i}", (float(position[0]), float(position[1])),
                     basestation, ledger)
            )
        self._cell_positions = [cell.position for cell in self.cells]
        self._attachment: Dict[str, Cell] = {}

    # ------------------------------------------------------------------
    def attach(self, device_id: str, position: Position) -> Cell:
        """Attach a device to its nearest cell (build-time attachment)."""
        return self.attach_cell(device_id, nearest_cell(self._cell_positions, position))

    def attach_cell(self, device_id: str, cell_index: int) -> Cell:
        """Attach a device to ``cells[cell_index]``, for callers that
        computed the nearest cells of a whole crowd in one pass."""
        cell = self.cells[cell_index]
        self._attachment[device_id] = cell
        return cell

    def reattach(self, device_id: str, position: Position) -> Tuple[Cell, bool]:
        """Re-evaluate nearest-cell attachment (handover check).

        Returns ``(cell, changed)`` where ``changed`` is true when the
        device moved to a different cell than it was attached to. The
        caller (e.g. the sharded kernel's handover pass) is responsible
        for rebinding the device's modem to the new cell's base station
        and ledger — this method only updates the attachment map.
        """
        new_cell = self.cells[nearest_cell(self._cell_positions, position)]
        old_cell = self._attachment.get(device_id)
        self._attachment[device_id] = new_cell
        return new_cell, old_cell is not new_cell

    def cell_of(self, device_id: str) -> Cell:
        try:
            return self._attachment[device_id]
        except KeyError:
            raise KeyError(f"device {device_id!r} is not attached") from None

    def attach_sink_everywhere(self, sink) -> None:
        """Attach one payload sink (e.g. the IM server) to every cell."""
        for cell in self.cells:
            cell.basestation.attach_sink(sink)

    # ------------------------------------------------------------------
    # aggregate views
    # ------------------------------------------------------------------
    @property
    def combined_ledger(self) -> CombinedLedger:
        return CombinedLedger([cell.ledger for cell in self.cells])

    def load_by_cell(self) -> Dict[str, int]:
        """Cell id → total layer-3 messages."""
        return {cell.cell_id: cell.ledger.total for cell in self.cells}

    def attached_by_cell(self) -> Dict[str, int]:
        """Cell id → number of attached devices."""
        counts = {cell.cell_id: 0 for cell in self.cells}
        for cell in self._attachment.values():
            counts[cell.cell_id] += 1
        return counts

    def storming_cells(self, window_s: float = 60.0) -> List[str]:
        """Cells whose peak signaling exceeds their control capacity."""
        return [
            cell.cell_id
            for cell in self.cells
            if cell.basestation.is_storming(window_s)
        ]

    def hottest_cell(self) -> Tuple[str, int]:
        """(cell id, L3 count) of the most loaded cell."""
        cell = max(self.cells, key=lambda c: c.ledger.total)
        return cell.cell_id, cell.ledger.total
