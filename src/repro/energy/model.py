"""Per-device energy accounting.

An :class:`EnergyModel` is attached to each simulated smartphone. Radios
and the framework charge it with ``charge(phase, uah)``; the model keeps a
per-phase breakdown (the paper's Table III is exactly such a breakdown),
drains the attached battery, and notifies an optional power monitor so
current traces can be synthesized.

The hot path is aggregate-only by design: ``charge`` adds into a flat
per-phase slot array (one dict lookup + one float add), and the per-charge
log exists only behind :attr:`EnergyModel.keep_log`. ``breakdown()``/
``snapshot()`` read the aggregates, never the log.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional, Tuple


class EnergyPhase(str, enum.Enum):
    """Phases of energy expenditure tracked separately (paper Table III)."""

    D2D_DISCOVERY = "d2d_discovery"
    D2D_CONNECTION = "d2d_connection"
    D2D_FORWARD = "d2d_forward"  # UE-side D2D transmit
    D2D_RECEIVE = "d2d_receive"  # relay-side D2D receive
    D2D_ACK = "d2d_ack"  # feedback ack exchange
    CELLULAR_SETUP = "cellular_setup"
    CELLULAR_TX = "cellular_tx"
    CELLULAR_TAIL = "cellular_tail"
    IDLE = "idle"
    OTHER = "other"


#: Phases counted as "D2D" in aggregate reports.
D2D_PHASES = frozenset(
    {
        EnergyPhase.D2D_DISCOVERY,
        EnergyPhase.D2D_CONNECTION,
        EnergyPhase.D2D_FORWARD,
        EnergyPhase.D2D_RECEIVE,
        EnergyPhase.D2D_ACK,
    }
)

#: Phases counted as "cellular" in aggregate reports.
CELLULAR_PHASES = frozenset(
    {
        EnergyPhase.CELLULAR_SETUP,
        EnergyPhase.CELLULAR_TX,
        EnergyPhase.CELLULAR_TAIL,
    }
)

#: Stable slot order for the flat per-phase accumulator array.
_PHASES: Tuple[EnergyPhase, ...] = tuple(EnergyPhase)
_SLOT: Dict[EnergyPhase, int] = {phase: i for i, phase in enumerate(_PHASES)}
_N_SLOTS = len(_PHASES)
_D2D_SLOTS: Tuple[int, ...] = tuple(
    i for i, phase in enumerate(_PHASES) if phase in D2D_PHASES
)
_CELLULAR_SLOTS: Tuple[int, ...] = tuple(
    i for i, phase in enumerate(_PHASES) if phase in CELLULAR_PHASES
)


class EnergyModel:
    """Charge ledger for one device.

    Parameters
    ----------
    owner:
        Identifier of the owning device, used in reports.
    battery:
        Optional battery to drain on every charge; when the battery is
        depleted it raises and the device should be treated as dead.
    on_charge:
        Optional hook ``(time_s, phase, uah, duration_s)`` — used by
        :class:`~repro.energy.power_monitor.PowerMonitor`.
    """

    def __init__(
        self,
        owner: str = "",
        battery: Optional["Battery"] = None,
        on_charge: Optional[Callable[[float, EnergyPhase, float, float], None]] = None,
    ) -> None:
        self.owner = owner
        self.battery = battery
        self.on_charge = on_charge
        # flat accumulator indexed by phase slot: the aggregate-only hot
        # path — no per-charge allocation, no growing structures
        self._totals: List[float] = [0.0] * _N_SLOTS
        self.keep_log = False
        self._log: List[Tuple[float, EnergyPhase, float]] = []

    # ------------------------------------------------------------------
    # charging
    # ------------------------------------------------------------------
    def charge(
        self,
        phase: EnergyPhase,
        uah: float,
        time_s: float = 0.0,
        duration_s: float = 0.0,
    ) -> None:
        """Record ``uah`` µAh spent in ``phase`` starting at ``time_s``."""
        if uah < 0:
            raise ValueError(f"cannot charge negative energy {uah}")
        if uah == 0:
            return
        self._totals[_SLOT[phase]] += uah
        if self.keep_log:
            self._log.append((time_s, phase, uah))
        if self.battery is not None:
            self.battery.drain_uah(uah)
        if self.on_charge is not None:
            self.on_charge(time_s, phase, uah, duration_s)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def total_uah(self) -> float:
        """Total charge spent across all phases."""
        return sum(self._totals)

    def phase_uah(self, phase: EnergyPhase) -> float:
        """Charge spent in one phase."""
        return self._totals[_SLOT[phase]]

    @property
    def d2d_uah(self) -> float:
        """Total charge spent on D2D activity."""
        totals = self._totals
        return sum(totals[i] for i in _D2D_SLOTS)

    @property
    def cellular_uah(self) -> float:
        """Total charge spent on cellular activity."""
        totals = self._totals
        return sum(totals[i] for i in _CELLULAR_SLOTS)

    def breakdown(self) -> Dict[str, float]:
        """Phase → µAh mapping (stable key order for reports)."""
        totals = self._totals
        return {phase.value: totals[i] for i, phase in enumerate(_PHASES)}

    def log(self) -> List[Tuple[float, EnergyPhase, float]]:
        """The charge log (only populated when :attr:`keep_log` is set)."""
        return list(self._log)

    def snapshot(self) -> Dict[EnergyPhase, float]:
        """Copy of the raw per-phase totals (phases actually charged)."""
        totals = self._totals
        return {
            phase: totals[i] for i, phase in enumerate(_PHASES) if totals[i]
        }

    def reset(self) -> None:
        """Zero all counters (battery state is left untouched)."""
        self._totals = [0.0] * _N_SLOTS
        self._log.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EnergyModel(owner={self.owner!r}, total={self.total_uah:.2f}uAh)"


# imported late to avoid a cycle in type checking only
from repro.energy.battery import Battery  # noqa: E402  (re-export convenience)
