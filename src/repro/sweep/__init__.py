"""Parameter-sweep utilities: grids, one executor, a result cache.

Define a grid of named parameters and a runner mapping one parameter
combination to a dict of metrics, and get a :class:`SweepResult` that can
slice, tabulate, and pivot:

    sweep = grid_sweep(
        {"distance_m": [1, 5, 10], "periods": [1, 4, 7]},
        lambda distance_m, periods: {"saved": run(distance_m, periods)},
    )
    sweep.pivot("distance_m", "periods", "saved")

``workers`` picks how pending points run: the inline loop for
``workers`` below 2 (the default), a local ``ProcessPoolExecutor`` of
that size from 2 up. Four guarantees make both paths safe to adopt:

- **Determinism.** With ``base_seed=`` set, every point's runner receives
  ``seed=spawn(base_seed, point_index)`` (:func:`repro.sim.rng.spawn`),
  which depends only on the point's position in the grid — so serial
  and process-pool sweeps produce identical :class:`SweepPoint` lists,
  point for point.
- **Caching.** With ``cache=``/``cache_dir=`` set, finished points are
  stored on disk keyed by (params hash, seed, code-version tag) — see
  :class:`SweepCache` — so re-running a grid only computes changed points,
  and an interrupted sweep resumes from what it already finished.
- **Fault tolerance.** Every point runs under bounded retry/backoff and
  reaches a terminal state; one raising runner can no longer abort the
  sweep or discard in-flight results. Failed points surface as a
  structured :class:`SweepError` list (``on_error="keep-going"``) or a
  post-hoc :class:`SweepFailure` (strict mode, the default).
- **Observability.** Every sweep records per-point wall-clock timings,
  attempts, and retry/error counters in a
  :class:`repro.metrics.SweepTelemetry`, attached as
  ``SweepResult.telemetry``.

Parallel runners must be picklable: module-level functions (or
``functools.partial`` over them), e.g. the canned runners in
:mod:`repro.scenarios`. Closures and lambdas only work serially.
"""

from repro.sweep.cache import CODE_VERSION_TAG, SweepCache
from repro.sweep.grid import PointOutcome, RetryPolicy, execute_point, grid_sweep
from repro.sweep.result import (
    SweepError,
    SweepFailure,
    SweepPoint,
    SweepResult,
)

__all__ = [
    "CODE_VERSION_TAG",
    "PointOutcome",
    "RetryPolicy",
    "SweepCache",
    "SweepError",
    "SweepFailure",
    "SweepPoint",
    "SweepResult",
    "execute_point",
    "grid_sweep",
]
