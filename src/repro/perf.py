"""Lightweight performance counters.

The scaling work (spatial-index discovery, the event-kernel fast path) is
only trustworthy if it is *observable*: this module is the one place hot
paths book what they did — scans, candidates examined per scan, index
queries — so the repo benchmark (``python -m bench``) and
`RunMetrics` can report a perf trajectory instead of anecdotes.

Counters are plain integer attributes bumped inline (no locks, no dict
lookups on the hot path); named wall-second sections accumulate under
:meth:`PerfCounters.add_seconds`. Everything folds into a flat
``{name: number}`` dict via :meth:`PerfCounters.to_dict`.

These numbers are **observability, not results**: two runs that produce
identical simulation output (the determinism guard's contract) may book
different counter values — e.g. a run scanned by the test suite's
brute-force oracle books no index queries at all.
"""

from __future__ import annotations

from typing import Dict


class PerfCounters:
    """Counter sink shared by one simulation's hot paths."""

    __slots__ = (
        "scans",
        "scan_candidates_examined",
        "scan_peers_returned",
        "index_queries",
        "vectorized_scans",
        "vector_block_builds",
        "_timers",
    )

    def __init__(self) -> None:
        #: discovery scans completed
        self.scans = 0
        #: candidate-block entries examined across all scans, each
        #: scan's requester excluded: the statics near its cell plus
        #: every mover (the O(N) vs O(local) story)
        self.scan_candidates_examined = 0
        #: peers actually returned to scan callbacks
        self.scan_peers_returned = 0
        #: block queries issued to the static spatial index: every
        #: candidate-block build and every lookup from a cell with no
        #: static within one cell (never cached). Movers are not indexed.
        self.index_queries = 0
        #: scans whose distance math ran on the numpy block path (every
        #: scan; kept while bench reports read it)
        self.vectorized_scans = 0
        #: candidate-block (re)builds: first scans from a cell, and
        #: rebuilds after static churn within one cell evicted the block.
        #: A mover register or unregister edits every cached block in
        #: place and books no build.
        self.vector_block_builds = 0
        self._timers: Dict[str, float] = {}

    def add_seconds(self, name: str, seconds: float) -> None:
        """Accumulate already-measured wall seconds under ``name``.

        The sharded kernel books its per-window ghost/handover/report
        bookkeeping here as ``shard-sync``; it surfaces as
        ``timer_shard-sync_s`` in :meth:`to_dict`.
        """
        self._timers[name] = self._timers.get(name, 0.0) + seconds

    def to_dict(self) -> Dict[str, float]:
        """Flat snapshot for `RunMetrics`/JSON export."""
        data: Dict[str, float] = {
            "scans": self.scans,
            "scan_candidates_examined": self.scan_candidates_examined,
            "scan_peers_returned": self.scan_peers_returned,
            "index_queries": self.index_queries,
            "vectorized_scans": self.vectorized_scans,
            "vector_block_builds": self.vector_block_builds,
        }
        for name, seconds in sorted(self._timers.items()):
            data[f"timer_{name}_s"] = seconds
        return data

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PerfCounters(scans={self.scans}, "
            f"examined={self.scan_candidates_examined})"
        )
