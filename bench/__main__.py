"""Benchmark runner: ``PYTHONPATH=src python -m bench [options]``.

Runs each selected workload in fresh child processes (:mod:`bench.child`),
one at a time: a closed loop with one run outstanding. Every repetition
is timed with tracing off; ``--trace`` adds one traced repetition per
workload for the per-layer numbers. The runner prints every metric with
its unit, checks the outputs, writes ``bench/results/<rev>.json`` and
ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics, or with ``--trace 1`` the per-layer ones.
Metric names and units come from ``BENCHMARK.json``. Exit status: 0 when
every check passed, 1 when one failed, 2 when a run could not complete.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from bench.calib import calibrate, fingerprint
from bench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: with ``--seconds``, repetitions continue until the budget would be
#: exceeded, but never fewer than this (set-up time is their median)
MIN_TIMED_REPS = 3
CHILD_TIMEOUT_S = 120.0
#: the traced run must attribute all but this share of its wall time
OTHER_SHARE_MAX = 0.03
TOP_SPANS = 25


class ChildFailed(RuntimeError):
    """A repetition crashed or timed out: no result can be reported."""


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m bench", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--workloads", "--workload", default=",".join(WORKLOADS),
        help=f"comma-separated subset of {', '.join(WORKLOADS)}",
    )
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="timed repetitions per workload (default 5)",
    )
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="time budget per workload instead of --repeats "
             f"(at least {MIN_TIMED_REPS} repetitions)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="workload seed (default: each workload's own)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="add a traced repetition and report the per-layer metrics",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="run every workload at about 1/20 scale",
    )
    parser.add_argument(
        "--out", default=None,
        help="result file (default bench/results/<rev>.json)",
    )
    args = parser.parse_args(argv)
    args.workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    unknown = [w for w in args.workloads if w not in WORKLOADS]
    if unknown or not args.workloads:
        parser.error(f"unknown workload(s) {unknown}; known: {list(WORKLOADS)}")
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    return args


def current_rev() -> str:
    """Short git revision of the checkout, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def run_child(name: str, seed: int, smoke: bool, trace: bool) -> Dict[str, Any]:
    """One repetition in a fresh interpreter; returns its JSON record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [
        sys.executable, "-m", "bench.child",
        name, str(seed), str(int(smoke)), str(int(trace)),
    ]
    # a session of its own, so a timeout also kills the shard workers
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(
            f"{name} (seed {seed}) timed out after {CHILD_TIMEOUT_S:.0f} s"
        ) from None
    except BaseException:  # interrupted: take the whole session down too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise ChildFailed(
            f"{name} (seed {seed}) exited with {proc.returncode}:\n{err[-3000:]}"
        )
    return json.loads(out.strip().splitlines()[-1])


def measure(name: str, seed: int, args: argparse.Namespace
            ) -> Tuple[List[Dict[str, Any]], Optional[Dict[str, Any]]]:
    """Timed repetitions of one workload, plus the traced one if asked."""
    reps: List[Dict[str, Any]] = []
    started = time.perf_counter()
    longest = 0.0
    while True:
        t = time.perf_counter()
        rep = run_child(name, seed, args.smoke, trace=False)
        longest = max(longest, time.perf_counter() - t)
        reps.append(rep)
        print(
            f"  {name} rep {len(reps)}: wall {rep['wall_s']:.4f} s, "
            f"setup {rep['setup_s']:.4f} s, digest {rep['output_digest'][:12]}",
            flush=True,
        )
        if args.seconds is None:
            if len(reps) >= args.repeats:
                break
        elif (len(reps) >= MIN_TIMED_REPS
              and time.perf_counter() - started + longest > args.seconds):
            break
    traced = None
    if args.trace:
        traced = run_child(name, seed, args.smoke, trace=True)
        print(f"  {name} traced: wall {traced['wall_s']:.4f} s", flush=True)
    return reps, traced


def _identity(run: Dict[str, Any]) -> tuple:
    return (run["output_digest"], run["ops"], run["on_time"])


def summarize(name: str, seed: int, smoke: bool, reps: List[Dict[str, Any]],
              traced: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate one workload's runs into metrics, checks and op counts."""
    first = reps[0]
    ops = first["ops"]
    walls = [r["wall_s"] for r in reps]
    # the minimum: noise on a shared host is one-sided (CPU steal), and
    # the workload itself never varies between repetitions
    wall = min(walls)
    end_to_end = {
        "wall_s": wall,
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "beats_per_s": ops / wall,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "l3_per_beat": first["l3_messages"] / max(ops, 1),
        "uah_per_beat": first["energy_uah"] / max(ops, 1),
        "on_time_fraction": first["on_time"] / max(ops, 1),
    }
    runs = reps + ([traced] if traced else [])
    checks: Dict[str, bool] = {}
    for run in runs:
        for check, ok in run["checks"].items():
            checks[check] = checks.get(check, True) and ok
    checks["digest_stable"] = all(_identity(r) == _identity(first) for r in reps)
    summary: Dict[str, Any] = {
        "seed": seed,
        "params": WORKLOADS[name].kwargs(seed, smoke),
        "repetitions": len(reps),
        "wall_s_all": walls,
        "wall_s_median": statistics.median(walls),
        "wall_s_max": max(walls),
        "setup_s_all": [r["setup_s"] for r in reps],
        "ops": ops,
        "ops_late": ops - first["on_time"],
        "output_digest": first["output_digest"],
        "end_to_end": end_to_end,
    }
    if "audit_violations" in first:
        summary["audit_violations"] = first["audit_violations"]
    if traced is not None:
        checks["trace_digest_matches"] = _identity(traced) == _identity(first)
        checks["reconciles"] = (
            abs(traced["other_s"]) <= OTHER_SHARE_MAX * traced["wall_s"]
        )
        summary["traced"] = {
            "wall_s": traced["wall_s"],
            "other_s": traced["other_s"],
            "workers": traced["workers"],
            "per_layer": dict(
                traced["per_layer"],
                **{
                    "bench.other_s": traced["other_s"],
                    "bench.trace_overhead": traced["wall_s"] / wall,
                    "bench.traced_wall_s": traced["wall_s"],
                },
            ),
            "top_spans": sorted(
                (
                    {"span": key, "calls": rec[0], "total_s": rec[1],
                     "self_s": rec[2], "self_share": rec[2] / traced["wall_s"]}
                    for key, rec in traced["spans"].items()
                ),
                key=lambda row: -row["self_s"],
            )[:TOP_SPANS],
        }
    summary["checks"] = checks
    summary["correct"] = all(checks.values())
    summary["attempted"] = sum(r["ops"] for r in runs)
    # a failed check fails every operation of the runs it covers
    summary["ops_failed"] = 0 if summary["correct"] else summary["attempted"]
    return summary


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(name: str, summary: Dict[str, Any], spec: Dict[str, Any]) -> None:
    """Print one workload's metrics with their units."""
    e2e_spec = {m["name"]: m for m in spec["end_to_end"]}
    print(f"{name}: seed {summary['seed']}, {summary['repetitions']} timed repetitions")
    for metric, value in summary["end_to_end"].items():
        m = e2e_spec[metric]
        print(f"  {metric:<18} {_fmt(value):>14} {m['unit']:<9} "
              f"({m['better']} is better, bound {m['bound']:.0%})")
    print(f"  wall_s median {summary['wall_s_median']:.4f} s, "
          f"max {summary['wall_s_max']:.4f} s (not gated)")
    print(f"  ops {summary['ops']}, ops_late {summary['ops_late']}, "
          f"ops_failed {summary['ops_failed']}, "
          f"output_digest {summary['output_digest']}")
    if "audit_violations" in summary:
        print(f"  audit violations by kind: {summary['audit_violations']}")
    print("  checks: " + ", ".join(
        f"{check} {'ok' if ok else 'FAILED'}" for check, ok in summary["checks"].items()
    ))
    traced = summary.get("traced")
    if traced is None:
        return
    wall = traced["wall_s"]
    values = traced["per_layer"]
    print(f"  per-layer, traced wall {wall:.4f} s "
          f"({values['bench.trace_overhead']:.2f}x untraced); layer seconds "
          "also as a share of traced wall (shard workers' time is summed):")
    for m in spec["per_layer"]:
        metric, unit = m["name"], m["unit"]
        layer_time = unit == "s" and not metric.startswith(("host.", "bench."))
        share = f" {values[metric] / wall:7.1%}" if layer_time else ""
        print(f"    {metric:<34} {_fmt(values[metric]):>14} {unit}{share}")


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"bench: no simulator sources under {SRC} or no {spec_path.name}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    host = fingerprint()
    calib_before = calibrate()
    print(f"host: {host}\ncalibration before: {calib_before}", flush=True)
    summaries: Dict[str, Dict[str, Any]] = {}
    samples: Dict[str, List[Dict[str, Any]]] = {}
    try:
        for name in args.workloads:
            seed = WORKLOADS[name].default_seed if args.seed is None else args.seed
            reps, traced = measure(name, seed, args)
            summaries[name] = summarize(name, seed, args.smoke, reps, traced)
            if traced is not None:
                samples[name] = traced["samples"]
    except ChildFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    calib_after = calibrate()
    print(f"calibration after: {calib_after}")
    calib = {k: min(calib_before[k], calib_after[k]) for k in calib_before}

    wanted = {
        "end_to_end": [m["name"] for m in spec["end_to_end"]],
        "per_layer": [m["name"] for m in spec["per_layer"]],
    }
    for name, summary in summaries.items():
        traced = summary.get("traced")
        if traced is not None:
            traced["per_layer"].update({
                "host.calib_py_s": calib["calib_py_s"],
                "host.calib_np_s": calib["calib_np_s"],
                "host.nproc": host["nproc"],
            })
        for kind, values in (("end_to_end", summary["end_to_end"]),
                             ("per_layer", traced and traced["per_layer"])):
            if values is not None and sorted(values) != sorted(wanted[kind]):
                raise RuntimeError(
                    f"{name}: {kind} metrics differ from BENCHMARK.json: "
                    f"{sorted(set(values) ^ set(wanted[kind]))}"
                )
        report(name, summary, spec)

    rev = current_rev()
    out = Path(args.out) if args.out else ROOT / "bench" / "results" / f"{rev}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    correct = all(s["correct"] for s in summaries.values())
    document = {
        "rev": rev,
        "generated_unix": time.time(),
        "args": {k: v for k, v in vars(args).items() if k != "out"},
        "host": host,
        "calibration": {"before": calib_before, "after": calib_after},
        "correct": correct,
        "workloads": summaries,
    }
    out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    if args.trace:
        spans_path = out.with_name(out.stem + "-spans.jsonl")
        with spans_path.open("w") as handle:
            for name, rows in samples.items():
                for row in rows:
                    handle.write(json.dumps(dict(row, workload=name)) + "\n")

    kind = "per_layer" if args.trace else "end_to_end"
    metrics: Dict[str, Dict[str, Any]] = {}
    for name, summary in summaries.items():
        values = summary["traced"]["per_layer"] if args.trace else summary["end_to_end"]
        prefix = "" if len(summaries) == 1 else f"{name}/"
        for m in spec[kind]:
            metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["ops_failed"] for s in summaries.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
