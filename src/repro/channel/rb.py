"""Resource-block pool: who holds spectrum, on which block, since when.

A :class:`ResourceBlockPool` tracks one lease per directed D2D link.
Resource blocks are *shared*, not exclusive — several leases may sit on
the same block, and that co-channel sharing is exactly what the SINR
computation turns into interference. What the pool does guarantee (and
what the physics property suite pins) is honest bookkeeping:

- a lease occupies **exactly one** block — granting an already-live
  lease is an error (the "no double-booking" invariant);
- every grant lands on a block inside ``[0, num_rbs)``;
- release is exact: a released lease is gone from every per-block
  bucket, and per-block occupancy always sums to the live-lease count.

The pool also integrates busy time per block so a run can report RB
utilization as a time-weighted fraction rather than a point sample, and
keeps the live leases' geometry in slot-aligned numpy arrays, so an
allocator can price every block against every live lease in one vector
pass (:meth:`ResourceBlockPool.lease_arrays`).
"""

from __future__ import annotations

import dataclasses
import heapq
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.mobility.space import Position

#: Slots the lease arrays start with; they double whenever they fill up.
_INITIAL_SLOTS = 64


@dataclasses.dataclass
class RBLease:
    """One directed link's hold on a resource block.

    Positions are set on every transfer the lease carries. With a
    position resolver installed (the medium installs one), the channel
    also moves a movable lease's endpoints to their current positions
    before every SINR evaluation, so interference against it is exact.
    A ``fixed`` lease has two static endpoints: its positions never
    change, so the channel never re-resolves them. Once the lease is
    granted, move it with :meth:`ResourceBlockPool.move`, which keeps the
    pool's lease arrays in step.
    """

    lease_id: str
    rb: int
    tx_id: str
    rx_id: str
    tx_pos: Position
    rx_pos: Position
    created_s: float
    #: End of the latest airtime carried on this lease; the lease expires
    #: ``idle_timeout`` after this instant. Once granted it may only grow
    #: (the pool's expiry heap is keyed on it).
    busy_until_s: float
    #: Both endpoints are static (zero speed bound), as seen at grant.
    fixed: bool = False


class ResourceBlockPool:
    """Lease bookkeeping over ``num_rbs`` shared resource blocks."""

    def __init__(self, num_rbs: int) -> None:
        if num_rbs < 1:
            raise ValueError(f"need at least one resource block, got {num_rbs}")
        self.num_rbs = num_rbs
        self._leases: Dict[str, RBLease] = {}
        self._by_rb: List[Dict[str, RBLease]] = [{} for _ in range(num_rbs)]
        #: the live leases that are not ``fixed``, in grant order
        self._movable: Dict[str, RBLease] = {}
        #: Slot-aligned lease geometry, rows tx_x, rx_x, tx_y, rx_y, and
        #: each slot's block. A lease holds one slot from grant to
        #: release; a freed slot sits in the sentinel block ``num_rbs``
        #: until a grant reuses it, and so do slots never used yet.
        self._geom = np.zeros((4, _INITIAL_SLOTS))
        self._slot_rb = np.full(_INITIAL_SLOTS, num_rbs, dtype=np.intp)
        self._slot_of: Dict[str, int] = {}
        self._free_slots: List[int] = []
        #: slots ever handed out: ``[0, _used)`` holds every live slot
        self._used = 0
        #: expiry heap of ``(busy_until_s, grant seq, lease_id)``, one
        #: live entry per lease, keyed on ``busy_until_s`` as of the push:
        #: a lease extended since is pushed again when its entry pops,
        #: and an entry whose grant seq is no longer live is dropped.
        self._expiry: List[Tuple[float, int, str]] = []
        #: lease_id → the grant seq of its live grant (``grants`` so far)
        self._grant_seq: Dict[str, int] = {}
        # busy-time integral: active-lease-seconds accumulated per block
        self._busy_s: List[float] = [0.0] * num_rbs
        self._last_event_s = 0.0
        # statistics
        self.grants = 0
        self.releases = 0
        self.peak_live = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._leases)

    def __contains__(self, lease_id: str) -> bool:
        return lease_id in self._leases

    def get(self, lease_id: str) -> Optional[RBLease]:
        return self._leases.get(lease_id)

    def live_leases(self) -> List[RBLease]:
        """Snapshot of every live lease, in grant order."""
        return list(self._leases.values())

    def movable_leases(self) -> List[RBLease]:
        """Snapshot of the live leases that are not ``fixed``, in grant order."""
        return list(self._movable.values())

    def lease_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The live leases' geometry as ``(geom, blocks)`` views.

        ``geom`` has rows tx_x, rx_x, tx_y, rx_y and one column per slot;
        ``blocks`` gives each slot's block, or ``num_rbs`` for a free
        slot. Slot order is not grant order. Read-only by contract; a
        grant may reallocate the arrays, so take fresh views after one.
        """
        used = self._used
        return self._geom[:, :used], self._slot_rb[:used]

    def co_channel(self, rb: int, exclude_id: Optional[str] = None) -> List[RBLease]:
        """Leases sharing block ``rb`` (the interferer set), in grant order."""
        return [
            lease
            for lease_id, lease in self._by_rb[rb].items()
            if lease_id != exclude_id
        ]

    def occupancy(self) -> List[int]:
        """Live lease count per block."""
        return [len(bucket) for bucket in self._by_rb]

    # ------------------------------------------------------------------
    def grant(self, lease: RBLease, now: float) -> RBLease:
        """Admit ``lease`` onto its block; rejects double-booking."""
        if lease.lease_id in self._leases:
            raise ValueError(
                f"lease {lease.lease_id!r} is already live on rb "
                f"{self._leases[lease.lease_id].rb} — release it first"
            )
        if not 0 <= lease.rb < self.num_rbs:
            raise ValueError(
                f"rb {lease.rb} out of range [0, {self.num_rbs})"
            )
        self._advance(now)
        self._leases[lease.lease_id] = lease
        self._by_rb[lease.rb][lease.lease_id] = lease
        if not lease.fixed:
            self._movable[lease.lease_id] = lease
        if self._free_slots:
            slot = self._free_slots.pop()
        else:
            slot = self._used
            if slot == self._slot_rb.size:
                self._grow()
            self._used += 1
        self._slot_of[lease.lease_id] = slot
        self._slot_rb[slot] = lease.rb
        self._write(slot, lease.tx_pos, lease.rx_pos)
        self._grant_seq[lease.lease_id] = self.grants
        heapq.heappush(self._expiry, (lease.busy_until_s, self.grants, lease.lease_id))
        self.grants += 1
        self.peak_live = max(self.peak_live, len(self._leases))
        return lease

    def release(self, lease_id: str, now: float) -> Optional[RBLease]:
        """Drop a lease; unknown ids are ignored (idempotent)."""
        lease = self._leases.pop(lease_id, None)
        if lease is None:
            return None
        self._advance(now)
        self._by_rb[lease.rb].pop(lease_id, None)
        self._movable.pop(lease_id, None)
        del self._grant_seq[lease_id]
        slot = self._slot_of.pop(lease_id)
        self._slot_rb[slot] = self.num_rbs
        self._free_slots.append(slot)
        self.releases += 1
        return lease

    def move(self, lease: RBLease, tx_pos: Position, rx_pos: Position) -> None:
        """Set a live lease's endpoint positions, in the lease and in the
        lease arrays."""
        lease.tx_pos = tx_pos
        lease.rx_pos = rx_pos
        self._write(self._slot_of[lease.lease_id], tx_pos, rx_pos)

    def reap_idle(self, now: float, idle_timeout_s: float) -> List[RBLease]:
        """Release every lease idle past ``idle_timeout_s``, in grant
        order; returns them.

        Pops only the expiry heap's due entries instead of walking every
        live lease. ``busy_until_s + idle_timeout_s <= now`` is monotone
        in ``busy_until_s``, so no lease behind the first entry that is
        not due can be due either.
        """
        heap = self._expiry
        if not heap or heap[0][0] + idle_timeout_s > now:
            return []
        leases = self._leases
        grant_seq = self._grant_seq
        due: List[Tuple[int, RBLease]] = []
        while heap and heap[0][0] + idle_timeout_s <= now:
            __, seq, lease_id = heapq.heappop(heap)
            if grant_seq.get(lease_id) != seq:
                continue  # released since this entry was pushed
            lease = leases[lease_id]
            if lease.busy_until_s + idle_timeout_s <= now:
                due.append((seq, lease))
            else:  # extended since: wait for its new expiry
                heapq.heappush(heap, (lease.busy_until_s, seq, lease_id))
        due.sort()  # grant order; seqs are unique
        expired = [lease for __, lease in due]
        for lease in expired:
            self.release(lease.lease_id, now)
        return expired

    # ------------------------------------------------------------------
    def _write(self, slot: int, tx_pos: Position, rx_pos: Position) -> None:
        geom = self._geom
        geom[0, slot], geom[2, slot] = tx_pos
        geom[1, slot], geom[3, slot] = rx_pos

    def _grow(self) -> None:
        """Double the lease arrays; new slots start in the sentinel block."""
        size = self._slot_rb.size
        self._geom = np.concatenate((self._geom, np.zeros((4, size))), axis=1)
        self._slot_rb = np.concatenate(
            (self._slot_rb, np.full(size, self.num_rbs, dtype=np.intp))
        )

    def _advance(self, now: float) -> None:
        """Integrate per-block busy time up to ``now``."""
        dt = now - self._last_event_s
        if dt > 0.0:
            for rb, bucket in enumerate(self._by_rb):
                if bucket:
                    self._busy_s[rb] += dt
            self._last_event_s = now

    def busy_seconds(self, now: Optional[float] = None) -> List[float]:
        """Per-block lease-held seconds, optionally advanced to ``now``."""
        if now is not None:
            self._advance(now)
        return list(self._busy_s)

    def utilization(self, horizon_s: float) -> float:
        """Mean fraction of (block × time) held over ``horizon_s``."""
        if horizon_s <= 0.0:
            return 0.0
        return sum(self.busy_seconds(horizon_s)) / (self.num_rbs * horizon_s)

    def audit(self) -> Tuple[bool, str]:
        """Internal consistency check used by the property suite.

        Returns ``(ok, reason)``: every live lease sits in exactly one
        per-block bucket, buckets only hold live leases, occupancy sums to
        the live count, the movable set is exactly the live leases that
        are not ``fixed``, and the lease arrays agree with the lease
        table — one slot per live lease holding its block and
        coordinates, every other slot in the sentinel block — and the
        expiry heap holds one live entry per live lease, due no later
        than the lease.
        """
        seen: Dict[str, int] = {}
        for rb, bucket in enumerate(self._by_rb):
            for lease_id, lease in bucket.items():
                if lease_id in seen:
                    return False, f"lease {lease_id!r} booked on rb {seen[lease_id]} and {rb}"
                if lease.rb != rb:
                    return False, f"lease {lease_id!r} filed under rb {rb} but claims {lease.rb}"
                seen[lease_id] = rb
        if set(seen) != set(self._leases):
            return False, "per-block buckets disagree with the lease table"
        movable = {
            lease_id
            for lease_id, lease in self._leases.items()
            if not lease.fixed
        }
        if set(self._movable) != movable:
            return False, "movable set disagrees with the lease table"
        ok, reason = self._audit_expiry()
        if not ok:
            return ok, reason
        return self._audit_arrays()

    def _audit_expiry(self) -> Tuple[bool, str]:
        if set(self._grant_seq) != set(self._leases):
            return False, "grant seqs disagree with the lease table"
        keys: Dict[str, float] = {}
        for key, seq, lease_id in self._expiry:
            if self._grant_seq.get(lease_id) != seq:
                continue
            if lease_id in keys:
                return False, f"lease {lease_id!r} has two live expiry entries"
            keys[lease_id] = key
        if set(keys) != set(self._leases):
            return False, "expiry heap disagrees with the lease table"
        for lease_id, key in keys.items():
            if key > self._leases[lease_id].busy_until_s:
                return False, f"expiry entry of {lease_id!r} is later than the lease"
        return True, ""

    def _audit_arrays(self) -> Tuple[bool, str]:
        if set(self._slot_of) != set(self._leases):
            return False, "slot table disagrees with the lease table"
        live_slots = list(self._slot_of.values())
        slots = live_slots + self._free_slots
        if sorted(slots) != list(range(self._used)):
            return False, "live and free slots do not partition the used slots"
        for lease_id, slot in self._slot_of.items():
            lease = self._leases[lease_id]
            if self._slot_rb[slot] != lease.rb:
                return False, f"slot {slot} of {lease_id!r} is on the wrong block"
            (tx_x, tx_y), (rx_x, rx_y) = lease.tx_pos, lease.rx_pos
            if tuple(self._geom[:, slot]) != (tx_x, rx_x, tx_y, rx_y):
                return False, f"slot {slot} of {lease_id!r} has stale coordinates"
        parked = np.ones(self._slot_rb.size, dtype=bool)
        parked[live_slots] = False
        if (self._slot_rb[parked] != self.num_rbs).any():
            return False, "a free slot is outside the sentinel block"
        return True, ""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ResourceBlockPool({len(self._leases)} leases over "
            f"{self.num_rbs} RBs, occupancy={self.occupancy()})"
        )
