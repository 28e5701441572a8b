"""Layer-3 signaling messages and the ledger that counts them.

The paper measures signaling cost by capturing **layer-3 messages** with
NetOptiMaster on a live WCDMA network (Sec. V-B, Fig. 15). Each heartbeat
transmission from IDLE triggers a full RRC connection establish/release
cycle; Fig. 15's slope is ≈ 8 layer-3 messages per cycle, which matches the
8-message cycle modelled here (5 to establish, 3 to release).

Oversized transmissions additionally trigger a radio-bearer
reconfiguration — the paper observes that a relay carrying more UEs' beats
"incurs slightly more cellular signaling traffic ... more data in once
transmission incurs more cellular traffic".
"""

from __future__ import annotations

import dataclasses
import enum
from collections import Counter
from typing import Dict, Iterable, List, Mapping, Optional, Tuple


class L3MessageType(str, enum.Enum):
    """The layer-3 (RRC) message types the model emits."""

    RRC_CONNECTION_REQUEST = "rrc_connection_request"
    RRC_CONNECTION_SETUP = "rrc_connection_setup"
    RRC_CONNECTION_SETUP_COMPLETE = "rrc_connection_setup_complete"
    RADIO_BEARER_SETUP = "radio_bearer_setup"
    RADIO_BEARER_SETUP_COMPLETE = "radio_bearer_setup_complete"
    RADIO_BEARER_RECONFIGURATION = "radio_bearer_reconfiguration"
    SIGNALLING_CONNECTION_RELEASE_INDICATION = "signalling_connection_release_indication"
    RRC_CONNECTION_RELEASE = "rrc_connection_release"
    RRC_CONNECTION_RELEASE_COMPLETE = "rrc_connection_release_complete"
    # FACH↔DCH transitions in the three-state WCDMA machine
    CELL_UPDATE = "cell_update"
    CELL_UPDATE_CONFIRM = "cell_update_confirm"


class Direction(str, enum.Enum):
    """Uplink (UE → network) or downlink (network → UE)."""

    UPLINK = "uplink"
    DOWNLINK = "downlink"


#: Messages exchanged to establish an RRC connection (5 messages).
SETUP_SEQUENCE: Tuple[Tuple[L3MessageType, Direction], ...] = (
    (L3MessageType.RRC_CONNECTION_REQUEST, Direction.UPLINK),
    (L3MessageType.RRC_CONNECTION_SETUP, Direction.DOWNLINK),
    (L3MessageType.RRC_CONNECTION_SETUP_COMPLETE, Direction.UPLINK),
    (L3MessageType.RADIO_BEARER_SETUP, Direction.DOWNLINK),
    (L3MessageType.RADIO_BEARER_SETUP_COMPLETE, Direction.UPLINK),
)

#: Messages exchanged to release an RRC connection (3 messages).
RELEASE_SEQUENCE: Tuple[Tuple[L3MessageType, Direction], ...] = (
    (L3MessageType.SIGNALLING_CONNECTION_RELEASE_INDICATION, Direction.UPLINK),
    (L3MessageType.RRC_CONNECTION_RELEASE, Direction.DOWNLINK),
    (L3MessageType.RRC_CONNECTION_RELEASE_COMPLETE, Direction.UPLINK),
)

#: Messages for a FACH → DCH re-promotion (2 messages, three-state WCDMA).
FACH_PROMOTION_SEQUENCE: Tuple[Tuple[L3MessageType, Direction], ...] = (
    (L3MessageType.CELL_UPDATE, Direction.UPLINK),
    (L3MessageType.CELL_UPDATE_CONFIRM, Direction.DOWNLINK),
)

#: A radio-bearer reconfiguration is triggered for every additional
#: ``RECONFIG_PAYLOAD_STEP_BYTES`` of payload beyond the first step —
#: the "slightly more signaling for bigger aggregates" effect of Fig. 15.
RECONFIG_PAYLOAD_STEP_BYTES = 150


def reconfiguration_count(payload_bytes: int) -> int:
    """Extra L3 messages needed for a ``payload_bytes`` transmission."""
    if payload_bytes < 0:
        raise ValueError(f"payload must be non-negative, got {payload_bytes}")
    return payload_bytes // RECONFIG_PAYLOAD_STEP_BYTES


@dataclasses.dataclass(frozen=True)
class L3Message:
    """One captured layer-3 message (what NetOptiMaster would log)."""

    time_s: float
    device_id: str
    msg_type: L3MessageType
    direction: Direction


class SignalingLedger:
    """Append-only capture of layer-3 messages, with per-device counts.

    The ledger is shared between every modem and the base station of one
    simulation, mirroring a single air-interface capture.
    """

    def __init__(self, keep_messages: bool = True) -> None:
        self.keep_messages = keep_messages
        self._messages: List[L3Message] = []
        self._count_by_device: Counter = Counter()
        self._count_by_type: Counter = Counter()
        self._cycles_by_device: Counter = Counter()
        self.total = 0

    # ------------------------------------------------------------------
    def record(
        self, time_s: float, device_id: str, msg_type: L3MessageType, direction: Direction
    ) -> None:
        """Record one layer-3 message."""
        self.total += 1
        self._count_by_device[device_id] += 1
        self._count_by_type[msg_type] += 1
        if self.keep_messages:
            self._messages.append(L3Message(time_s, device_id, msg_type, direction))

    def record_sequence(
        self,
        time_s: float,
        device_id: str,
        sequence: Iterable[Tuple[L3MessageType, Direction]],
    ) -> int:
        """Record a whole message sequence; returns how many were recorded."""
        n = 0
        for msg_type, direction in sequence:
            self.record(time_s, device_id, msg_type, direction)
            n += 1
        return n

    def record_cycle(self, device_id: str) -> None:
        """Note a completed RRC establish/release cycle for ``device_id``."""
        self._cycles_by_device[device_id] += 1

    # ------------------------------------------------------------------
    def count_for(self, device_id: str) -> int:
        """Layer-3 messages attributed to one device."""
        return self._count_by_device.get(device_id, 0)

    def count_for_type(self, msg_type: L3MessageType) -> int:
        return self._count_by_type.get(msg_type, 0)

    def cycles_for(self, device_id: str) -> int:
        """Completed RRC cycles for one device."""
        return self._cycles_by_device.get(device_id, 0)

    def device_totals(self) -> Tuple[Mapping[str, int], Mapping[str, int]]:
        """``(messages, cycles)`` per device id, for reading every device
        at once; ids with neither are absent. The ledger's own counters,
        not copies: callers must not mutate them."""
        return self._count_by_device, self._cycles_by_device

    @property
    def total_cycles(self) -> int:
        return sum(self._cycles_by_device.values())

    def messages(self, device_id: Optional[str] = None) -> List[L3Message]:
        """Captured messages, optionally filtered to one device."""
        if device_id is None:
            return list(self._messages)
        return [m for m in self._messages if m.device_id == device_id]

    def count_between(self, start_s: float, end_s: float) -> int:
        """Kept messages with ``start_s <= time_s <= end_s`` (0 without
        kept messages).

        Two bisections rather than a scan: every writer records at the
        simulator's current time, so the capture is sorted by time.
        """
        return max(0, self._bisect(end_s, right=True) - self._bisect(start_s))

    def _bisect(self, t: float, right: bool = False) -> int:
        """Index of the first kept message at or after ``t``, or strictly
        after it when ``right`` (``bisect_left``/``bisect_right`` keyed
        by ``time_s``)."""
        messages = self._messages
        lo, hi = 0, len(messages)
        while lo < hi:
            mid = (lo + hi) // 2
            mid_s = messages[mid].time_s
            if mid_s < t or (right and mid_s == t):
                lo = mid + 1
            else:
                hi = mid
        return lo

    def rate_per_second(self, window_start_s: float, window_end_s: float) -> float:
        """Average L3 message rate over a time window (needs kept messages)."""
        if window_end_s <= window_start_s:
            raise ValueError("window must have positive length")
        if not self.keep_messages:
            raise RuntimeError("rate queries require keep_messages=True")
        n = sum(1 for m in self._messages if window_start_s <= m.time_s < window_end_s)
        return n / (window_end_s - window_start_s)

    def by_device(self) -> Dict[str, int]:
        """Device → message-count mapping."""
        return dict(self._count_by_device)

    def __len__(self) -> int:
        return self.total
