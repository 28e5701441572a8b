"""Self-tests of the benchmark, at smoke scale (under 30 s in all).

Run with ``PYTHONPATH=src python -m pytest bench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, out: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", "--smoke", "--out", str(out), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def bench_ok(tmp_path: Path, *args: str):
    """(last stdout line as JSON, result file) of a passing invocation."""
    out = tmp_path / "result.json"
    proc = run_bench(ROOT, out, *args)
    assert proc.returncode == 0, proc.stderr + proc.stdout[-3000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return last, json.loads(out.read_text())


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Every workload: two timed repetitions plus the traced one."""
    return bench_ok(tmp_path_factory.mktemp("traced"), "--repeats", "2", "--trace")


@pytest.fixture(scope="module")
def steady(tmp_path_factory):
    """The contract's single-workload form, tracing off."""
    return bench_ok(
        tmp_path_factory.mktemp("steady"), "--workload", "heartbeat-steady",
        "--seconds", "1", "--trace", "0",
    )


def test_workloads_match_spec():
    from bench.workloads import WORKLOADS as DEFINED

    assert list(DEFINED) == WORKLOADS


def test_end_to_end_names_and_units_match_spec(steady):
    last, _result = steady
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in last["metrics"].values())


def test_per_layer_names_and_units_match_spec(traced):
    last, _result = traced
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload in WORKLOADS:
        got = {
            key.split("/", 1)[1]: value["unit"]
            for key, value in last["metrics"].items()
            if key.startswith(workload + "/")
        }
        assert got == expected, workload


def test_every_check_passes(traced):
    last, result = traced
    assert last["correct"] is True and last["failed"] == 0
    for workload in WORKLOADS:
        checks = result["workloads"][workload]["checks"]
        assert checks["digest_stable"] and checks["trace_digest_matches"], workload
        assert all(checks.values()), (workload, checks)


def test_trace_reconciles(traced):
    _last, result = traced
    for workload in WORKLOADS:
        traced_run = result["workloads"][workload]["traced"]
        layer = traced_run["per_layer"]
        assert abs(layer["bench.other_s"]) <= 0.03 * layer["bench.traced_wall_s"]
        assert layer["bench.trace_overhead"] > 0


def test_same_seed_repeats_digest_and_seed_1_changes_it(traced, steady, tmp_path):
    _last, result = traced
    _steady_last, steady_result = steady
    digest = result["workloads"]["heartbeat-steady"]["output_digest"]
    assert steady_result["workloads"]["heartbeat-steady"]["output_digest"] == digest
    _other_last, other = bench_ok(
        tmp_path, "--workload", "heartbeat-steady", "--repeats", "1", "--seed", "1"
    )
    assert other["workloads"]["heartbeat-steady"]["output_digest"] != digest


def test_process_workers_report_spans_and_counters(traced):
    _last, result = traced
    city = result["workloads"]["sharded-city"]
    shards = city["params"]["shards"]
    assert city["checks"]["workers_reported"]
    assert len(city["traced"]["workers"]) == shards
    layer = city["traced"]["per_layer"]
    # the parent runs no simulator: these come only from the workers
    assert layer["sim.dispatch_self_s"] > 0
    assert layer["shard.setup_s"] > 0
    assert layer["workload.beats_generated"] == city["ops"] > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench(
        tmp_path, tmp_path / "result.json", "--workload", "heartbeat-steady",
        "--seed", "0", "--seconds", "1", "--trace", "0",
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
