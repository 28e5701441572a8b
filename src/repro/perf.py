"""Lightweight performance counters and timers.

The scaling work (spatial-index discovery, adjacency maps, the event-kernel
fast path) is only trustworthy if it is *observable*: this module is the
one place hot paths book what they did — candidates examined per scan,
index rebins, events fired per wall second — so `repro-sim bench` and
`RunMetrics` can report a perf trajectory instead of anecdotes.

Counters are plain integer attributes bumped inline (no locks, no dict
lookups on the hot path); timers accumulate wall-clock seconds under a
name. Everything folds into a flat ``{name: number}`` dict via
:meth:`PerfCounters.to_dict`.

These numbers are **observability, not results**: two runs that produce
identical simulation output (the determinism guard's contract) may book
different counter values — e.g. a run scanned by the test suite's
brute-force oracle books no index queries at all.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, Iterator


class PerfCounters:
    """Counter/timer sink shared by one simulation's hot paths."""

    __slots__ = (
        "scans",
        "scan_candidates_examined",
        "scan_peers_returned",
        "scan_cache_served",
        "index_queries",
        "index_updates",
        "index_moves",
        "index_rebuild_passes",
        "vectorized_scans",
        "vector_block_builds",
        "_timers",
    )

    def __init__(self) -> None:
        #: discovery scans completed
        self.scans = 0
        #: endpoints examined across all scans (the O(N) vs O(local) story)
        self.scan_candidates_examined = 0
        #: peers actually returned to scan callbacks
        self.scan_peers_returned = 0
        #: discovery requests served from a detector's still-fresh cache
        #: (no radio work at all — the cheapest scan is the one not made)
        self.scan_cache_served = 0
        #: spatial-index range queries issued
        self.index_queries = 0
        #: incremental position updates applied to the index
        self.index_updates = 0
        #: updates that actually crossed a cell boundary
        self.index_moves = 0
        #: lazy refresh passes over the mobile-endpoint set
        self.index_rebuild_passes = 0
        #: scans whose distance math ran on the numpy block path (every
        #: scan; kept while bench reports read it)
        self.vectorized_scans = 0
        #: aligned coordinate-block (re)builds behind vectorized scans
        self.vector_block_builds = 0
        self._timers: Dict[str, float] = {}

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Accumulate the wall-clock duration of the block under ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._timers[name] = self._timers.get(name, 0.0) + elapsed

    def add_seconds(self, name: str, seconds: float) -> None:
        """Accumulate already-measured wall seconds under ``name``.

        The hot-path spelling of :meth:`timer`: callers bracket the section
        with two ``time.perf_counter()`` reads and book the difference, so
        per-call instrumentation costs two C calls instead of a generator
        context manager. Used for the phase attribution sections (discover /
        transfer / energy / shard-sync) that `repro-sim bench` surfaces.
        """
        self._timers[name] = self._timers.get(name, 0.0) + seconds

    def timer_seconds(self, name: str) -> float:
        return self._timers.get(name, 0.0)

    # ------------------------------------------------------------------
    @property
    def mean_candidates_per_scan(self) -> float:
        """Average endpoints examined per scan."""
        return (
            self.scan_candidates_examined / self.scans if self.scans else 0.0
        )

    def to_dict(self) -> Dict[str, float]:
        """Flat snapshot for `RunMetrics`/JSON export."""
        data: Dict[str, float] = {
            "scans": self.scans,
            "scan_candidates_examined": self.scan_candidates_examined,
            "scan_peers_returned": self.scan_peers_returned,
            "scan_cache_served": self.scan_cache_served,
            "index_queries": self.index_queries,
            "index_updates": self.index_updates,
            "index_moves": self.index_moves,
            "index_rebuild_passes": self.index_rebuild_passes,
            "vectorized_scans": self.vectorized_scans,
            "vector_block_builds": self.vector_block_builds,
            "mean_candidates_per_scan": self.mean_candidates_per_scan,
        }
        for name, seconds in sorted(self._timers.items()):
            data[f"timer_{name}_s"] = seconds
        return data

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PerfCounters(scans={self.scans}, "
            f"examined={self.scan_candidates_examined}, "
            f"mean/scan={self.mean_candidates_per_scan:.1f})"
        )
