"""Sensitivity grid — where does the framework win, across the whole
(distance × connection-length) plane?

The paper's figures probe one axis at a time (Fig. 9 sweeps k at 1 m,
Fig. 12 sweeps distance at fixed k). This bench sweeps both and checks
the joint structure: savings grow along k everywhere, shrink along
distance everywhere, and the break-even frontier sits where the paper's
prejudgment mechanism would refuse to pair.

The grid runs through the parallel sweep executor (``workers=2``) with
the picklable :func:`repro.scenarios.relay_savings_runner`; the
per-point wall-clock timings it records via ``repro.metrics`` are
printed and asserted below, so the parallel path stays observable.
"""

import pytest

from benchmarks.conftest import print_header, run_once
from repro.reporting import format_table
from repro.scenarios import relay_savings_runner
from repro.sweep import grid_sweep

DISTANCES = (1.0, 8.0, 15.0, 19.0)
PERIODS = (1, 3, 7)
WORKERS = 2


def run_grid():
    return grid_sweep(
        {"distance_m": list(DISTANCES), "periods": list(PERIODS)},
        relay_savings_runner,
        workers=WORKERS,
    )


@pytest.mark.benchmark(group="sensitivity")
def test_sensitivity_distance_periods(benchmark):
    sweep = run_once(benchmark, run_grid)

    telemetry = sweep.telemetry
    print_header("Sweep execution — parallel path telemetry")
    print(format_table(
        ["point", "distance_m", "periods", "seconds"],
        [[t.index, t.params["distance_m"], t.params["periods"],
          f"{t.seconds:.4f}"]
         for t in sorted(telemetry.timings, key=lambda t: t.index)],
    ))
    print(telemetry.summary())
    # the parallel path measured every point, not just ran it
    assert telemetry.mode == "process-pool" and telemetry.workers == WORKERS
    assert telemetry.completed == len(sweep) == len(DISTANCES) * len(PERIODS)
    assert all(t.seconds > 0.0 for t in telemetry.timings)
    # no point needed fault-tolerance handling on the happy path
    assert sweep.ok and telemetry.errors == 0 and telemetry.retries == 0
    assert all(t.attempts == 1 for t in telemetry.timings)

    pivot = sweep.pivot("distance_m", "periods", "system_saved")
    print_header("System energy saved (fraction) over distance × periods")
    rows = [
        [f"{d:.0f} m"] + [pivot[d][k] for k in PERIODS] for d in DISTANCES
    ]
    print(format_table(["distance \\ k"] + [str(k) for k in PERIODS], rows,
                       float_format="{:+.3f}"))

    # monotone along k at every distance
    for d in DISTANCES:
        series = sweep.series("periods", "system_saved", distance_m=d)
        values = [v for __, v in series]
        assert all(b > a for a, b in zip(values, values[1:])), d
    # monotone (decreasing) along distance at every k
    for k in PERIODS:
        series = sweep.series("distance_m", "system_saved", periods=k)
        values = [v for __, v in series]
        assert all(b < a for a, b in zip(values, values[1:])), k
    # the best corner is near+long, the worst is far+short
    assert sweep.best("system_saved").params == {
        "distance_m": 1.0, "periods": 7,
    }
    assert sweep.best("system_saved", maximize=False).params == {
        "distance_m": 19.0, "periods": 1,
    }
    # at 19 m, one transmission, the framework no longer pays off for the
    # system — exactly the regime the prejudgment exists to refuse
    assert pivot[19.0][1] < 0.0
    # the UE itself still saves over most of the plane
    ue_pivot = sweep.pivot("distance_m", "periods", "ue_saved")
    assert ue_pivot[1.0][7] > 0.7
