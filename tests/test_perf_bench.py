"""Smoke tests for the benchmark harness and its regression gate."""

import json

from repro import bench


GATE = "crowd-20000-balanced"


def _report(gate_speedup, schema=bench.BENCH_SCHEMA, identical=True):
    return {
        "schema": schema,
        "rev": "deadbee",
        "cases": {
            GATE: {
                "wall_s": 1.0,
                "speedup_tiles_critical": gate_speedup,
                "identical_metrics": identical,
            }
        },
    }


class TestCases:
    def test_kernel_case_fires_the_expected_events(self):
        case = bench.bench_kernel(events=3_000)
        # A third of the handles are cancelled before the drain.
        assert case.detail["events_fired"] == 3_000 - len(range(0, 3_000, 3))
        assert case.detail["events_per_s"] > 0
        assert case.wall_s > 0

    def test_pair_case_runs_the_relay_rig(self):
        case = bench.bench_pair(repeats=1)
        assert case.detail["events_fired"] > 0
        assert case.wall_s > 0

    def test_crowd_storm_case_times_the_scan(self):
        case = bench.bench_crowd_storm(
            "tiny-storm",
            n_devices=20,
            arena_m=400.0,
            hotspots=4,
            duration_s=30.0,
            scan_period_s=10.0,
            repeats=1,
        )
        assert case.detail["scans"] > 0
        assert case.detail["mean_candidates_per_scan"] > 0
        assert case.wall_s > 0

    def test_channel_crowd_case_shows_contention_and_replays(self):
        case = bench.bench_channel_crowd(
            "tiny-channel", n_devices=60, duration_s=120.0, repeats=1
        )
        assert case.detail["identical_metrics"] is True
        assert case.detail["transfers"] > 0
        assert case.detail["rb_utilization"] > 0.0
        assert case.detail["rate_degrades_with_density"] is True

    def test_run_suite_only_selects_one_case(self):
        report = bench.run_suite(quick=True, repeats=1, only="kernel")
        assert list(report["cases"]) == ["kernel"]

    def test_run_suite_only_unknown_case_raises(self):
        import pytest

        with pytest.raises(ValueError, match="unknown bench case"):
            bench.run_suite(quick=True, repeats=1, only="warp-drive")


class TestReport:
    def test_write_report_uses_rev_in_filename(self, tmp_path):
        report = _report(3.0)
        path = bench.write_report(report, out_dir=str(tmp_path))
        assert path.endswith("BENCH_deadbee.json")
        with open(path, encoding="utf-8") as handle:
            assert json.load(handle) == report

    def test_case_result_to_dict_flattens_detail(self):
        case = bench.CaseResult("x", 0.5, {"scans": 2})
        assert case.to_dict() == {"wall_s": 0.5, "scans": 2}


class TestCompareReports:
    def test_equal_reports_pass(self):
        assert bench.compare_reports(_report(3.0), _report(3.0)) == []

    def test_small_dip_within_tolerance_passes(self):
        assert bench.compare_reports(_report(2.5), _report(3.0), tolerance=0.25) == []

    def test_large_regression_fails(self):
        failures = bench.compare_reports(_report(1.5), _report(3.0), tolerance=0.25)
        assert failures and "regressed" in failures[0]

    def test_speedup_improvements_always_pass(self):
        assert bench.compare_reports(_report(9.0), _report(3.0)) == []

    def test_schema_mismatch_asks_for_regeneration(self):
        failures = bench.compare_reports(_report(3.0), _report(3.0, schema=0))
        assert failures and "schema mismatch" in failures[0]

    def test_identity_divergence_fails_regardless_of_speedup(self):
        failures = bench.compare_reports(_report(9.0, identical=False), _report(3.0))
        assert failures and "diverged" in failures[0]

    def test_missing_gate_case_fails(self):
        # the gate case ran but did not report its ratio
        current = _report(3.0)
        del current["cases"][GATE]["speedup_tiles_critical"]
        failures = bench.compare_reports(current, _report(3.0))
        assert failures and "missing" in failures[0]


class TestCompareReportsMultiCase:
    """The gate generalizes: per-case ratios, partial runs, delivery."""

    @staticmethod
    def _balanced_report(speedup_critical, delivery=True, only=None):
        report = {
            "schema": bench.BENCH_SCHEMA,
            "rev": "deadbee",
            "cases": {
                "crowd-20000-balanced": {
                    "wall_s": 1.0,
                    "speedup_tiles_critical": speedup_critical,
                    "delivery_close": delivery,
                }
            },
        }
        if only is not None:
            report["only"] = only
        return report

    def test_partial_only_run_may_omit_the_gate_case(self):
        current = {
            "schema": bench.BENCH_SCHEMA,
            "rev": "deadbee",
            "only": "kernel",
            "cases": {"kernel": {"wall_s": 1.0}},
        }
        assert bench.compare_reports(current, self._balanced_report(1.7)) == []

    def test_delivery_divergence_fails(self):
        current = self._balanced_report(
            1.7, delivery=False, only="crowd-20000-balanced"
        )
        failures = bench.compare_reports(current, self._balanced_report(1.7))
        assert failures and "delivered different" in failures[0]

    def test_per_case_ratio_regression_fails(self):
        current = self._balanced_report(1.0, only="crowd-20000-balanced")
        failures = bench.compare_reports(current, self._balanced_report(1.7))
        assert failures and "speedup_tiles_critical regressed" in failures[0]

    def test_cases_absent_from_the_baseline_are_not_gated(self):
        # a baseline predating a new case must not block it
        current = self._balanced_report(1.7, only="crowd-20000-balanced")
        baseline = {"schema": bench.BENCH_SCHEMA, "rev": "0ld0ld0", "cases": {}}
        assert bench.compare_reports(current, baseline) == []


class TestCommaSeparatedOnly:
    def test_run_suite_selects_multiple_cases(self):
        report = bench.run_suite(quick=True, repeats=1, only="kernel,pair")
        assert list(report["cases"]) == ["kernel", "pair"]
        assert report["only"] == "kernel,pair"

    def test_unknown_member_of_a_list_raises(self):
        import pytest

        with pytest.raises(ValueError, match="unknown bench case"):
            bench.run_suite(quick=True, repeats=1, only="kernel,warp-drive")
