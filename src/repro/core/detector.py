"""D2D Detector (paper Fig. 2, Sec. IV-C).

Orchestrates discovery on top of the D2D medium for one device: one-shot
scans, optional periodic rescans (a disconnected UE keeps looking for a
relay), and a cache of the most recent scan results with their age, so the
matcher can decide whether a fresh scan is worth its energy.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.d2d.base import D2DMedium, PeerInfo
from repro.sim.engine import PeriodicProcess, Simulator


class D2DDetector:
    """Discovery orchestration for one device."""

    def __init__(
        self,
        sim: Simulator,
        device_id: str,
        medium: D2DMedium,
        cache_ttl_s: float = 30.0,
    ) -> None:
        if cache_ttl_s <= 0:
            raise ValueError(f"cache TTL must be positive, got {cache_ttl_s}")
        self.sim = sim
        self.device_id = device_id
        self.medium = medium
        self.cache_ttl_s = cache_ttl_s
        self._last_peers: List[PeerInfo] = []
        self._last_scan_s: Optional[float] = None
        self._scan_in_progress = False
        self._waiters: List[Callable[[List[PeerInfo]], None]] = []
        self._periodic: Optional[PeriodicProcess] = None
        self.scans = 0
        self.scan_joins = 0

    # ------------------------------------------------------------------
    def discover(self, on_complete: Callable[[List[PeerInfo]], None]) -> bool:
        """Start one scan; ``False`` if one is already in flight.

        On ``False`` the callback was *not* registered — callers that
        still need the result must :meth:`join_scan` the in-flight scan
        (or fall back), otherwise they wait forever on a completion that
        will never be delivered to them.
        """
        if self._scan_in_progress:
            return False
        self._scan_in_progress = True
        self.scans += 1
        self._waiters = [on_complete]

        def finish(peers: List[PeerInfo]) -> None:
            self._scan_in_progress = False
            self._last_peers = peers
            self._last_scan_s = self.sim.now
            waiters, self._waiters = self._waiters, []
            for waiter in waiters:
                waiter(peers)

        self.medium.discover(self.device_id, finish)
        return True

    def join_scan(self, on_complete: Callable[[List[PeerInfo]], None]) -> bool:
        """Attach a callback to the scan already in flight.

        Returns ``False`` when no scan is running (nothing to join). One
        physical scan then serves every waiter — the radio work and its
        energy are spent once, and no caller is left dangling because a
        rescan happened to be in the air when it asked.
        """
        if not self._scan_in_progress:
            return False
        self._waiters.append(on_complete)
        self.scan_joins += 1
        return True

    @property
    def scan_in_progress(self) -> bool:
        """Whether a scan is currently in flight."""
        return self._scan_in_progress

    def cached_peers(self) -> Optional[List[PeerInfo]]:
        """The last scan's results if still fresh, else ``None``."""
        if self._last_scan_s is None:
            return None
        if self.sim.now - self._last_scan_s > self.cache_ttl_s:
            return None
        return list(self._last_peers)

    # ------------------------------------------------------------------
    def start_periodic(
        self, period_s: float, on_peers: Callable[[List[PeerInfo]], None]
    ) -> None:
        """Rescan every ``period_s`` seconds until stopped."""
        if self._periodic is not None:
            raise RuntimeError("periodic discovery already running")

        def tick() -> None:
            self.discover(on_peers)

        self._periodic = self.sim.every(period_s, tick, name="d2d_periodic_scan")

    def stop_periodic(self) -> None:
        if self._periodic is not None:
            self._periodic.stop()
            self._periodic = None

    @property
    def periodic_running(self) -> bool:
        return self._periodic is not None and not self._periodic.stopped
