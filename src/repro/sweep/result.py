"""Sweep result containers: points, per-point failures, the strict-mode error.

:class:`SweepResult` is the value every sweep produces — the same
canonical-order point list whether the grid ran serially, in a process
pool, or resumed from the cache. Fault tolerance adds :class:`SweepError` (one structured record per
point that exhausted its attempts) and :class:`SweepFailure` (the
exception strict mode raises *after* the whole grid has been driven, so
completed points are already published to the cache and the sweep is
resumable).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.metrics import SweepTelemetry


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One grid point: the parameters used and the metrics produced."""

    params: Mapping[str, Any]
    metrics: Mapping[str, float]


@dataclasses.dataclass(frozen=True)
class SweepError:
    """One grid point that failed after exhausting its retry budget.

    ``error`` is the ``TypeName: message`` form of the last exception;
    ``traceback`` its formatted traceback (empty when the worker process
    died before it could report one). ``attempts`` counts runner
    invocations made for the point.
    """

    index: int
    params: Mapping[str, Any]
    error: str
    traceback: str = ""
    attempts: int = 1


class SweepFailure(RuntimeError):
    """Strict-mode sweep outcome: one or more points failed.

    Raised only after every point has been driven to a terminal state, so
    ``errors`` lists every failed point (not just the first) and all
    successful points are already in the cache — re-running the sweep
    recomputes only the failures. ``telemetry`` carries the interrupted
    sweep's counters for observability.
    """

    def __init__(
        self,
        errors: Sequence[SweepError],
        total: int,
        telemetry: Optional[SweepTelemetry] = None,
    ) -> None:
        self.errors = list(errors)
        self.total = int(total)
        self.telemetry = telemetry
        first = self.errors[0] if self.errors else None
        detail = (
            f"; first: {first.error} at {dict(first.params)}" if first else ""
        )
        super().__init__(
            f"{len(self.errors)} of {self.total} sweep points failed"
            f"{detail} (completed points stay in the cache when one is "
            "attached; re-run to resume)"
        )


class SweepResult:
    """The collected points of one grid sweep.

    ``telemetry`` (when present) carries the executor's per-point timings
    and cache counters; it is observational and deliberately excluded
    from any equality comparison over ``points``.

    ``errors`` lists the points that failed under ``on_error="keep-going"``
    (always empty in strict mode, which raises :class:`SweepFailure`
    instead); failed points are absent from ``points`` but the surviving
    points keep canonical grid order.
    """

    def __init__(
        self,
        param_names: Sequence[str],
        points: List[SweepPoint],
        telemetry: Optional[SweepTelemetry] = None,
        errors: Optional[List[SweepError]] = None,
    ) -> None:
        self.param_names = list(param_names)
        self.points = points
        self.telemetry = telemetry
        self.errors: List[SweepError] = list(errors or [])

    def __len__(self) -> int:
        return len(self.points)

    @property
    def ok(self) -> bool:
        """Whether every grid point produced metrics."""
        return not self.errors

    # ------------------------------------------------------------------
    def metric_names(self) -> List[str]:
        if not self.points:
            return []
        return sorted(self.points[0].metrics)

    def where(self, **conditions: Any) -> List[SweepPoint]:
        """Points whose parameters match every condition."""
        return [
            point
            for point in self.points
            if all(point.params.get(k) == v for k, v in conditions.items())
        ]

    def series(self, x_param: str, metric: str, **fixed: Any) -> List[Tuple[Any, float]]:
        """(x, metric) pairs along one parameter, other params fixed."""
        if x_param not in self.param_names:
            raise KeyError(f"unknown parameter {x_param!r}")
        rows = [
            (point.params[x_param], point.metrics[metric])
            for point in self.where(**fixed)
        ]
        rows.sort(key=lambda pair: pair[0])
        return rows

    def pivot(
        self, row_param: str, col_param: str, metric: str
    ) -> Dict[Any, Dict[Any, float]]:
        """row value → {column value → metric} (a 2-D slice)."""
        table: Dict[Any, Dict[Any, float]] = {}
        for point in self.points:
            row = point.params[row_param]
            col = point.params[col_param]
            table.setdefault(row, {})[col] = point.metrics[metric]
        return table

    def best(self, metric: str, maximize: bool = True) -> SweepPoint:
        """The point with the extreme value of ``metric``."""
        if not self.points:
            raise ValueError("empty sweep")
        chooser = max if maximize else min
        return chooser(self.points, key=lambda p: p.metrics[metric])

    def rows(self) -> List[List[Any]]:
        """Header row + one row per point (for `reporting.format_table`)."""
        header: List[Any] = list(self.param_names) + self.metric_names()
        out: List[List[Any]] = [header]
        for point in self.points:
            out.append(
                [point.params[name] for name in self.param_names]
                + [point.metrics[name] for name in self.metric_names()]
            )
        return out
