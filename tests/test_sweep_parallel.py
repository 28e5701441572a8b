"""The sweep executor: equivalence, caching, observability, fault tolerance.

The contract under test (see ``repro/sweep/``):

1. a serial run and a ``workers=4`` run of the same grid produce
   identical :class:`SweepPoint` lists — same order, same params, same
   metric values — for a fixed ``base_seed``;
2. the on-disk cache serves unchanged points without re-running them,
   and any config change (parameter value, seed, version tag) misses;
3. every sweep exports per-point timings and progress counters through
   :class:`repro.metrics.SweepTelemetry`;
4. a raising runner never aborts the dispatch loop: with
   ``on_error="keep-going"`` the surviving points come back with a
   structured error list, with the default strict mode a
   :class:`SweepFailure` is raised *after* the whole grid was driven and
   completed points stay in the cache, so a re-run resumes.

The runners used with ``workers>1`` are module-level on purpose: the
``ProcessPoolExecutor`` path pickles the callable, which is exactly the
regression the smoke CI job also guards.
"""

import pytest

from repro.metrics import SweepPointTiming, SweepTelemetry
from repro.scenarios import relay_savings_runner
from repro.sim.rng import make_rng, spawn
from repro.sweep import (
    CODE_VERSION_TAG,
    RetryPolicy,
    SweepCache,
    SweepFailure,
    grid_sweep,
)

GRID = {"a": [1, 2], "b": [10, 20, 30]}


def seeded_runner(a, b, seed):
    """Deterministic in (a, b, seed) — and genuinely seed-sensitive."""
    rng = make_rng(seed, "sweep-parallel-test")
    return {"value": rng.random() + a * b, "seed_echo": float(seed % 1000)}


def unseeded_runner(a, b):
    return {"product": float(a * b)}


def failing_runner(a, b):
    if a == 2 and b == 20:
        raise RuntimeError("synthetic point failure")
    return {"product": float(a * b)}


class TestSerialParallelEquivalence:
    def test_identical_points_for_fixed_base_seed(self):
        serial = grid_sweep(GRID, seeded_runner, base_seed=2017, workers=0)
        parallel = grid_sweep(GRID, seeded_runner, base_seed=2017, workers=4)
        assert serial.points == parallel.points
        assert serial.param_names == parallel.param_names

    def test_workers_one_is_the_serial_fallback(self):
        one = grid_sweep(GRID, seeded_runner, base_seed=5, workers=1)
        none = grid_sweep(GRID, seeded_runner, base_seed=5)
        assert one.points == none.points
        assert one.telemetry.mode == "serial"

    def test_real_simulator_grid_matches(self):
        """A 2×2 paired-scenario grid survives pickling and matches serial."""
        grid = {"distance_m": [1.0, 10.0], "periods": [1, 2]}
        serial = grid_sweep(grid, relay_savings_runner)
        parallel = grid_sweep(grid, relay_savings_runner, workers=4)
        assert serial.points == parallel.points

    def test_seed_axis_conflicts_with_base_seed(self):
        with pytest.raises(ValueError):
            grid_sweep({"seed": [1, 2]}, seeded_runner, base_seed=3)

    def test_point_order_is_canonical_grid_order(self):
        parallel = grid_sweep(GRID, unseeded_runner, workers=4)
        expected = [(a, b) for a in GRID["a"] for b in GRID["b"]]
        got = [(p.params["a"], p.params["b"]) for p in parallel.points]
        assert got == expected


class CountingRunner:
    """Serial-only runner that records how often it actually ran."""

    def __init__(self):
        self.calls = 0

    def __call__(self, a, b, seed):
        self.calls += 1
        return seeded_runner(a, b, seed)


class TestCache:
    def test_second_run_is_all_hits_and_skips_the_runner(self, tmp_path):
        runner = CountingRunner()
        first = grid_sweep(GRID, runner, base_seed=1, cache_dir=str(tmp_path))
        assert runner.calls == len(first)
        assert first.telemetry.cache_misses == len(first)

        second = grid_sweep(GRID, runner, base_seed=1, cache_dir=str(tmp_path))
        assert runner.calls == len(first)  # nothing recomputed
        assert second.telemetry.cache_hits == len(first)
        assert second.telemetry.cache_misses == 0
        assert second.points == first.points

    def test_changed_grid_value_misses(self, tmp_path):
        runner = CountingRunner()
        grid_sweep(GRID, runner, base_seed=1, cache_dir=str(tmp_path))
        calls_before = runner.calls
        changed = {"a": [1, 3], "b": GRID["b"]}  # a=3 rows are new
        grid_sweep(changed, runner, base_seed=1, cache_dir=str(tmp_path))
        # a=1 rows were already cached under identical (params, seed) keys
        assert runner.calls == calls_before + len(GRID["b"])

    def test_changed_base_seed_misses_everything(self, tmp_path):
        runner = CountingRunner()
        grid_sweep(GRID, runner, base_seed=1, cache_dir=str(tmp_path))
        calls_before = runner.calls
        grid_sweep(GRID, runner, base_seed=2, cache_dir=str(tmp_path))
        assert runner.calls == calls_before + len(GRID["a"]) * len(GRID["b"])

    def test_version_tag_segregates_entries(self, tmp_path):
        runner = CountingRunner()
        grid_sweep(GRID, runner, base_seed=1, cache_dir=str(tmp_path))
        calls_before = runner.calls
        grid_sweep(GRID, runner, base_seed=1, cache_dir=str(tmp_path),
                   version_tag="runner-v2")
        assert runner.calls == 2 * calls_before

    def test_parallel_run_populates_cache_serial_run_reads_it(self, tmp_path):
        parallel = grid_sweep(GRID, seeded_runner, base_seed=9, workers=4,
                              cache_dir=str(tmp_path))
        serial = grid_sweep(GRID, seeded_runner, base_seed=9,
                            cache_dir=str(tmp_path))
        assert serial.points == parallel.points
        assert serial.telemetry.cache_hits == len(parallel)

    def test_cache_layout_and_key_stability(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        key = cache.key_for({"a": 1}, seed=7)
        assert cache.key_for({"a": 1}, seed=7) == key
        assert cache.key_for({"a": 2}, seed=7) != key
        assert cache.key_for({"a": 1}, seed=8) != key
        assert cache.version_tag == CODE_VERSION_TAG
        path = cache.put({"a": 1}, 7, {"m": 1.5})
        assert path.endswith(f"{key}.json")
        assert f"/{key[:2]}/" in path
        assert cache.get({"a": 1}, 7) == {"m": 1.5}

    def test_corrupt_entry_counts_as_miss(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        path = cache.put({"a": 1}, None, {"m": 2.0})
        with open(path, "w") as handle:
            handle.write("{not json")
        assert cache.get({"a": 1}, None) is None
        assert cache.misses == 1


class TestTelemetry:
    def test_every_point_gets_a_measured_timing(self):
        sweep = grid_sweep(GRID, seeded_runner, base_seed=3, workers=4)
        telemetry = sweep.telemetry
        assert isinstance(telemetry, SweepTelemetry)
        assert telemetry.mode == "process-pool"
        assert telemetry.workers == 4
        assert telemetry.completed == telemetry.total == len(sweep)
        assert telemetry.pending == 0
        assert {t.index for t in telemetry.timings} == set(range(len(sweep)))
        assert all(isinstance(t, SweepPointTiming) for t in telemetry.timings)
        assert all(t.seconds > 0.0 for t in telemetry.timings)
        assert telemetry.wall_seconds > 0.0
        assert telemetry.busy_seconds() > 0.0
        assert telemetry.throughput() > 0.0

    def test_summary_and_dict_export(self):
        sweep = grid_sweep(GRID, unseeded_runner, workers=2)
        summary = sweep.telemetry.summary()
        assert "process-pool" in summary and "workers=2" in summary
        exported = sweep.telemetry.to_dict()
        assert exported["completed"] == len(sweep)
        assert len(exported["timings"]) == len(sweep)

    def test_progress_callback_sees_every_completion(self):
        seen = []
        grid_sweep(GRID, unseeded_runner,
                   progress=lambda t: seen.append(t.completed))
        assert seen == list(range(1, len(GRID["a"]) * len(GRID["b"]) + 1))


class TestSeedDerivation:
    def test_runner_receives_spawned_seeds_in_grid_order(self):
        sweep = grid_sweep(GRID, seeded_runner, base_seed=42, workers=4)
        for index, point in enumerate(sweep.points):
            assert point.metrics["seed_echo"] == float(spawn(42, index) % 1000)


class TestCounterHygiene:
    def test_cacheless_sweep_reports_no_cache_traffic(self):
        """Regression: a sweep with no cache attached used to report every
        point as a cache *miss*, making `hits/(hits+misses)` look like a
        0% hit rate instead of 'no cache in play'."""
        sweep = grid_sweep(GRID, unseeded_runner)
        assert sweep.telemetry.cache_hits == 0
        assert sweep.telemetry.cache_misses == 0
        assert "cache" not in sweep.telemetry.summary()

    def test_telemetry_counters_reconcile_with_the_cache(self, tmp_path):
        cold_cache = SweepCache(str(tmp_path))
        cold = grid_sweep(GRID, unseeded_runner, cache=cold_cache)
        assert cold.telemetry.cache_misses == cold_cache.misses == len(cold)
        assert cold.telemetry.cache_hits == cold_cache.hits == 0

        warm_cache = SweepCache(str(tmp_path))
        warm = grid_sweep(GRID, unseeded_runner, cache=warm_cache)
        assert warm.telemetry.cache_hits == warm_cache.hits == len(warm)
        assert warm.telemetry.cache_misses == warm_cache.misses == 0

    def test_attempts_distinguish_computed_from_cache_served(self, tmp_path):
        grid_sweep(GRID, unseeded_runner, cache_dir=str(tmp_path))
        warm = grid_sweep(GRID, unseeded_runner, cache_dir=str(tmp_path))
        cold_attempts = {t.attempts for t in
                         grid_sweep(GRID, unseeded_runner).telemetry.timings}
        assert cold_attempts == {1}
        assert {t.attempts for t in warm.telemetry.timings} == {0}


class FlakyRunner:
    """Fails each point ``failures`` times before succeeding (serial only)."""

    def __init__(self, failures):
        self.failures = failures
        self.attempts = {}

    def __call__(self, a, b):
        key = (a, b)
        self.attempts[key] = self.attempts.get(key, 0) + 1
        if self.attempts[key] <= self.failures:
            raise RuntimeError(f"transient failure #{self.attempts[key]}")
        return unseeded_runner(a, b)


class TestRetry:
    def test_bounded_retry_recovers_transient_failures(self):
        runner = FlakyRunner(failures=2)
        sweep = grid_sweep(GRID, runner, max_retries=2)
        assert sweep.ok
        assert len(sweep) == 6
        assert sweep.telemetry.retries == 12  # 2 extra attempts per point
        assert all(t.attempts == 3 for t in sweep.telemetry.timings)

    def test_retry_budget_exhausted_is_a_failure(self):
        runner = FlakyRunner(failures=5)
        with pytest.raises(SweepFailure) as excinfo:
            grid_sweep(GRID, runner, max_retries=1)
        assert all(e.attempts == 2 for e in excinfo.value.errors)

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=-0.5)


class TestKeepGoing:
    def test_surviving_points_come_back_with_the_error_list(self):
        sweep = grid_sweep(GRID, failing_runner, on_error="keep-going")
        assert not sweep.ok
        assert len(sweep) == 5  # 6 points, 1 failed
        assert len(sweep.errors) == 1
        error = sweep.errors[0]
        assert error.params == {"a": 2, "b": 20}
        assert "synthetic point failure" in error.error
        assert "RuntimeError" in error.traceback
        assert sweep.telemetry.errors == 1
        assert sweep.telemetry.pending == 0
        assert "errors 1" in sweep.telemetry.summary()

    def test_strict_mode_raises_after_driving_the_whole_grid(self):
        with pytest.raises(SweepFailure) as excinfo:
            grid_sweep(GRID, failing_runner)
        failure = excinfo.value
        assert failure.total == 6
        assert len(failure.errors) == 1
        assert failure.telemetry.completed == 5  # the rest still ran
        assert "1 of 6 sweep points failed" in str(failure)
        assert "re-run to resume" in str(failure)

    def test_parallel_worker_crash_is_contained(self):
        """One raising point in a process pool must not abort the loop."""
        sweep = grid_sweep(GRID, failing_runner, workers=2,
                           on_error="keep-going")
        assert len(sweep) == 5
        assert len(sweep.errors) == 1
        assert sweep.errors[0].params == {"a": 2, "b": 20}

    def test_invalid_on_error_rejected(self):
        with pytest.raises(ValueError):
            grid_sweep(GRID, unseeded_runner, on_error="ignore")


class TestResume:
    def test_interrupted_sweep_resumes_from_the_cache(self, tmp_path):
        """Strict failure, then a re-run: completed points are served from
        the cache and only the failed point is recomputed."""
        with pytest.raises(SweepFailure):
            grid_sweep(GRID, failing_runner, cache_dir=str(tmp_path))
        assert len(list(tmp_path.rglob("*.json"))) == 5

        sweep = grid_sweep(GRID, unseeded_runner, cache_dir=str(tmp_path))
        assert sweep.ok and len(sweep) == 6
        assert sweep.telemetry.cache_hits == 5
        assert sweep.telemetry.cache_misses == 1
