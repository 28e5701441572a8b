"""The grid-sweep executor: combos, seeds, cache precheck, dispatch.

``grid_sweep`` enumerates the grid in canonical order, derives per-point
seeds, serves cached points, runs the rest, books telemetry and
assembles the :class:`SweepResult`. ``workers`` picks one of two paths
for the pending points: the inline loop (``workers`` below 2) or a
``ProcessPoolExecutor`` of that size. Both run every point through
:func:`execute_point` under one :class:`RetryPolicy`, and the executor
books each outcome as it arrives. Failures never abort the dispatch
loop: every point reaches a terminal state, and strict mode raises
:class:`SweepFailure` only after the fact (with every completed point
already in the cache).
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import itertools
import time
import traceback as traceback_module
from typing import (
    Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

from repro.metrics import SweepTelemetry
from repro.sim.rng import spawn
from repro.sweep.cache import CODE_VERSION_TAG, SweepCache
from repro.sweep.result import SweepError, SweepFailure, SweepPoint, SweepResult

#: Runner signature: ``runner(**params[, seed=...]) -> {metric: value}``.
Runner = Callable[..., Mapping[str, float]]


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Bounded per-point retry/backoff applied on both execution paths.

    A point is attempted ``1 + max_retries`` times; attempt ``n`` waits
    ``backoff_s * 2**(n-1)`` seconds first (wall clock — retries exist for
    flaky infrastructure, not simulation time).
    """

    max_retries: int = 0
    backoff_s: float = 0.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {self.backoff_s}")


@dataclasses.dataclass(frozen=True)
class PointOutcome:
    """Terminal state of one point's execution: metrics or a captured error."""

    metrics: Optional[Dict[str, float]]
    seconds: float
    attempts: int
    error: Optional[str] = None
    traceback: str = ""

    @property
    def ok(self) -> bool:
        return self.metrics is not None


def execute_point(
    runner: Runner,
    params: Mapping[str, Any],
    seed: Optional[int],
    policy: RetryPolicy = RetryPolicy(),
) -> PointOutcome:
    """Run one grid point under the retry policy; never raises.

    Module-level so a ``ProcessPoolExecutor`` can pickle it; the timing is
    taken inside the worker (summed over attempts), so it measures
    compute, not queueing. Exceptions are captured as strings because the
    exception object itself may not survive the pickle boundary back to
    the dispatcher.
    """
    kwargs = dict(params)
    if seed is not None:
        kwargs["seed"] = seed
    attempts = 0
    seconds = 0.0
    error = ""
    trace = ""
    while attempts <= policy.max_retries:
        if attempts and policy.backoff_s:
            time.sleep(policy.backoff_s * (2 ** (attempts - 1)))
        attempts += 1
        started = time.perf_counter()
        try:
            metrics = dict(runner(**kwargs))
        except Exception as exc:
            seconds += time.perf_counter() - started
            error = f"{type(exc).__name__}: {exc}"
            trace = traceback_module.format_exc()
            continue
        seconds += time.perf_counter() - started
        return PointOutcome(metrics=metrics, seconds=seconds, attempts=attempts)
    return PointOutcome(
        metrics=None, seconds=seconds, attempts=attempts,
        error=error, traceback=trace,
    )


def _outcomes(
    pending: Sequence[Tuple[int, Dict[str, Any], Optional[int]]],
    runner: Runner,
    policy: RetryPolicy,
    workers: int,
) -> Iterator[Tuple[int, PointOutcome]]:
    """``(index, outcome)`` per pending point, in completion order.

    ``workers`` below 2 runs the points inline, one after another. From
    2 up they fan out over a ``ProcessPoolExecutor`` of that size (the
    runner must be picklable). A point whose worker dies — or whose
    crash breaks the pool — becomes a failed outcome for that point;
    every already-finished point keeps its result.
    """
    if workers < 2 or not pending:
        for index, params, seed in pending:
            yield index, execute_point(runner, params, seed, policy)
        return
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {
            pool.submit(execute_point, runner, params, seed, policy): index
            for index, params, seed in pending
        }
        for future in concurrent.futures.as_completed(futures):
            try:
                outcome = future.result()
            except Exception as exc:
                # worker or pool death (e.g. BrokenProcessPool): this point
                # failed, the loop still collects every other future's state
                outcome = PointOutcome(
                    metrics=None, seconds=0.0, attempts=1,
                    error=f"{type(exc).__name__}: {exc}",
                )
            yield futures[future], outcome


def _check_metrics(
    metrics: Mapping[str, float],
    expected: Optional[frozenset],
    params: Mapping[str, Any],
) -> frozenset:
    """Enforce one metric set across all points (same error as ever)."""
    names = frozenset(metrics)
    if expected is not None and names != expected:
        raise ValueError(
            f"runner returned inconsistent metrics at {dict(params)}: "
            f"{sorted(names)} vs {sorted(expected)}"
        )
    return names


def grid_sweep(
    param_grid: Mapping[str, Sequence[Any]],
    runner: Runner,
    *,
    workers: Optional[int] = None,
    base_seed: Optional[int] = None,
    cache: Optional[SweepCache] = None,
    cache_dir: Optional[str] = None,
    version_tag: Optional[str] = None,
    progress: Optional[Callable[[SweepTelemetry], None]] = None,
    max_retries: int = 0,
    retry_backoff_s: float = 0.0,
    on_error: str = "raise",
) -> SweepResult:
    """Run ``runner(**params)`` for every combination in the grid.

    The runner must return a mapping of metric name → value; the metric
    set must be identical across points.

    ``workers``: ``None``/``0``/``1`` run the serial inline loop;
    ``workers >= 2`` fans misses out over a ``ProcessPoolExecutor`` of
    that size (the runner must then be picklable — a module-level
    function or a ``functools.partial`` over one).

    ``base_seed``: when set, each point's runner is additionally called
    with ``seed=spawn(base_seed, point_index)`` so parallel and serial
    runs see identical randomness. The grid must not itself contain a
    ``seed`` axis in that case.

    ``cache``/``cache_dir``: an explicit :class:`SweepCache`, or a
    directory to build one in (with ``version_tag`` overriding the
    default code-version tag). Cached points are served without invoking
    the runner; fresh points are stored after they complete.

    ``progress``: optional callback invoked with the live
    :class:`~repro.metrics.SweepTelemetry` after each point completes.

    ``max_retries``/``retry_backoff_s``: bounded per-point retry with
    exponential backoff before a point is declared failed.

    ``on_error``: ``"raise"`` (strict — raise :class:`SweepFailure` after
    the whole grid has been driven; completed points stay cached, so a
    re-run resumes) or ``"keep-going"`` (failed points surface as
    ``SweepResult.errors`` and the surviving points are returned).

    Point order in the result is always canonical grid order
    (``itertools.product`` over the grid as given), independent of
    execution order.
    """
    if not param_grid:
        raise ValueError("parameter grid must not be empty")
    names = list(param_grid)
    for name, values in param_grid.items():
        if not values:
            raise ValueError(f"parameter {name!r} has no values")
    if base_seed is not None and "seed" in param_grid:
        raise ValueError(
            "param_grid already has a 'seed' axis; drop it or omit base_seed"
        )
    if on_error not in ("raise", "keep-going"):
        raise ValueError(
            f"on_error must be 'raise' or 'keep-going', got {on_error!r}"
        )
    if cache is None and cache_dir is not None:
        cache = SweepCache(cache_dir, version_tag or CODE_VERSION_TAG)
    workers = int(workers) if workers and workers > 1 else 1
    policy = RetryPolicy(max_retries=max_retries, backoff_s=retry_backoff_s)

    combos: List[Dict[str, Any]] = [
        dict(zip(names, combo))
        for combo in itertools.product(*(param_grid[name] for name in names))
    ]
    seeds: List[Optional[int]] = [
        spawn(base_seed, index) if base_seed is not None else None
        for index in range(len(combos))
    ]

    telemetry = SweepTelemetry(
        total=len(combos),
        mode="process-pool" if workers > 1 else "serial",
        workers=workers,
    )
    wall_started = time.perf_counter()

    results: List[Optional[Dict[str, float]]] = [None] * len(combos)
    errors: List[SweepError] = []
    pending: List[Tuple[int, Dict[str, Any], Optional[int]]] = []
    for index, params in enumerate(combos):
        if cache is not None:
            lookup_started = time.perf_counter()
            stored = cache.get(params, seeds[index])
            if stored is not None:
                results[index] = stored
                telemetry.record(
                    index, params, time.perf_counter() - lookup_started,
                    cached=True, attempts=0,
                )
                if progress is not None:
                    progress(telemetry)
                continue
        pending.append((index, params, seeds[index]))

    for index, outcome in _outcomes(pending, runner, policy, workers):
        params = combos[index]
        if outcome.ok:
            results[index] = outcome.metrics
            if cache is not None:
                cache.put(params, seeds[index], outcome.metrics)
            # with no cache attached neither cache counter moves
            telemetry.record(
                index, params, outcome.seconds,
                cached=None if cache is None else False,
                attempts=outcome.attempts,
            )
        else:
            errors.append(SweepError(
                index=index,
                params=dict(params),
                error=outcome.error or "?",
                traceback=outcome.traceback,
                attempts=outcome.attempts,
            ))
            telemetry.record_error(outcome.attempts)
        if progress is not None:
            progress(telemetry)

    telemetry.wall_seconds = time.perf_counter() - wall_started
    errors.sort(key=lambda e: e.index)

    if errors and on_error == "raise":
        raise SweepFailure(errors, total=len(combos), telemetry=telemetry)

    points: List[SweepPoint] = []
    expected: Optional[frozenset] = None
    failed_indices = {error.index for error in errors}
    for index, (params, metrics) in enumerate(zip(combos, results)):
        if metrics is None:
            assert index in failed_indices, (
                f"point {index} has neither metrics nor a failure record"
            )
            continue
        expected = _check_metrics(metrics, expected, params)
        points.append(SweepPoint(params=params, metrics=metrics))
    return SweepResult(names, points, telemetry=telemetry, errors=errors)
