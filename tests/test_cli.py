"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        actions = {
            name
            for action in parser._subparsers._actions  # noqa: SLF001
            if hasattr(action, "choices") and action.choices
            for name in action.choices
        }
        assert {"pair", "crowd", "sweep", "grid", "chaos", "breakeven",
                "table1", "calibration"} <= actions

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])


class TestCommands:
    def test_pair(self, capsys):
        assert main(["pair", "--ues", "1", "--periods", "2"]) == 0
        out = capsys.readouterr().out
        assert "original" in out and "d2d" in out
        assert "signaling saved" in out

    def test_pair_headline_numbers_present(self, capsys):
        main(["pair", "--periods", "5"])
        out = capsys.readouterr().out
        assert "50.0%" in out  # the signaling headline

    def test_crowd(self, capsys):
        assert main(["crowd", "--devices", "10", "--duration", "600"]) == 0
        out = capsys.readouterr().out
        assert "beats via D2D" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "--max-periods", "3"]) == 0
        out = capsys.readouterr().out
        assert "system saved %" in out
        assert "sweep: 3/3 points" in out  # telemetry summary line

    def test_sweep_parallel_with_cache(self, capsys, tmp_path):
        args = ["sweep", "--max-periods", "2", "--workers", "2",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "process-pool" in cold and "2 miss" in cold
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "2 hit" in warm
        # the numbers themselves are identical either way
        assert cold.split("sweep:")[0] == warm.split("sweep:")[0]

    def test_grid(self, capsys, tmp_path):
        assert main(["grid", "--distances", "1,10", "--periods", "1,2",
                     "--workers", "2", "--cache-dir", str(tmp_path),
                     "--timings"]) == 0
        out = capsys.readouterr().out
        assert "distance \\ k" in out
        assert "per-point wall-clock timings" in out
        assert "sweep: 4/4 points" in out

    def test_breakeven(self, capsys):
        assert main(["breakeven"]) == 0
        out = capsys.readouterr().out
        assert "beats/session" in out

    def test_table1(self, capsys):
        assert main(["table1", "--days", "2"]) == 0
        out = capsys.readouterr().out
        assert "wechat" in out and "Paper" in out

    def test_calibration(self, capsys):
        assert main(["calibration"]) == 0
        out = capsys.readouterr().out
        assert "Cellular tail" in out and "455.23" in out

    def test_timeline(self, capsys):
        assert main(["timeline", "--ues", "1", "--periods", "2",
                     "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "relay-0" in out and "ue-0" in out
        assert "d2d send" in out  # the legend



class TestDispatchFlags:
    def test_sweep_and_grid_accept_dispatch_flags(self):
        parser = build_parser()
        for command in ("sweep", "grid"):
            args = parser.parse_args(
                [command, "--max-retries", "2", "--keep-going"]
            )
            assert args.max_retries == 2
            assert args.keep_going is True


class TestBadSweepInput:
    """Malformed sweep/grid input exits 2 with a message, not a traceback
    and never a silently dropped axis."""

    def test_negative_max_retries_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--max-periods", "1", "--max-retries", "-1"])
        assert err.value.code == 2
        assert "retry count of at least 0" in capsys.readouterr().err

    def test_repeated_param_key_exits_2(self, capsys):
        assert main(["sweep", "--runner", "relay-savings",
                     "--param", "periods=1,2", "--param", "periods=3"]) == 2
        captured = capsys.readouterr()
        assert "'periods' is already given" in captured.err
        assert "sweep:" not in captured.out  # nothing ran

    @pytest.mark.parametrize("distances", ["", "1,x"])
    def test_bad_grid_distances_exit_2(self, capsys, distances):
        assert main(["grid", "--distances", distances,
                     "--periods", "1"]) == 2
        assert "bad --distances" in capsys.readouterr().err


class TestChaosFlags:
    def test_pair_with_chaos_profile_audits(self, capsys):
        assert main(["pair", "--ues", "1", "--periods", "2",
                     "--chaos-profile", "mild", "--chaos-seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "chaos[mild seed=3]" in out
        assert "audit OK" in out

    def test_chaos_subcommand_passes(self, capsys):
        assert main(["chaos", "--profiles", "mild", "--seeds", "0",
                     "--ues", "1", "--periods", "2"]) == 0
        out = capsys.readouterr().out
        assert "differential chaos harness" in out
        assert "PASS" in out
        assert "1/1 cases passed" in out

    def test_chaos_unknown_profile_errors(self):
        with pytest.raises(ValueError, match="unknown chaos profile"):
            main(["chaos", "--profiles", "nope", "--seeds", "0"])


class TestChannelFlags:
    def test_pair_with_sinr_channel_prints_summary(self, capsys):
        assert main(["pair", "--ues", "2", "--periods", "2",
                     "--channel", "sinr"]) == 0
        out = capsys.readouterr().out
        assert "channel (centralized, 6 RBs)" in out
        assert "mean SINR" in out

    def test_crowd_with_channel_knobs(self, capsys):
        assert main(["crowd", "--devices", "12", "--duration", "300",
                     "--channel", "sinr", "--allocator", "message-passing",
                     "--num-rbs", "4"]) == 0
        out = capsys.readouterr().out
        assert "channel (message-passing, 4 RBs)" in out

    def test_fixed_channel_prints_no_summary(self, capsys):
        assert main(["crowd", "--devices", "10", "--duration", "300",
                     "--channel", "fixed"]) == 0
        assert "channel (" not in capsys.readouterr().out

    def test_shadowing_sigma_flag_accepted(self, capsys):
        assert main(["pair", "--ues", "1", "--periods", "2",
                     "--shadowing-sigma", "8.0"]) == 0

    def test_runner_sweep_forwards_channel_params(self, capsys):
        assert main(["sweep", "--runner", "crowd-metrics",
                     "--param", "n_devices=10,14",
                     "--param", "duration_s=300",
                     "--channel", "sinr"]) == 0
        out = capsys.readouterr().out
        assert "channel_transfers" in out


class TestRunnerDispatch:
    def test_sweep_runner_by_name(self, capsys):
        assert main(["sweep", "--runner", "relay-savings",
                     "--param", "periods=1,2", "--param", "n_ues=1"]) == 0
        out = capsys.readouterr().out
        assert "runner 'relay-savings'" in out
        assert "system_saved" in out

    def test_grid_runner_by_name_with_chaos(self, capsys):
        assert main(["grid", "--runner", "chaos-differential",
                     "--param", "profile=mild", "--param", "seed=0,1",
                     "--param", "periods=2", "--param", "n_ues=1"]) == 0
        out = capsys.readouterr().out
        assert "runner 'chaos-differential'" in out
        assert "chaos_deadline_safe" in out

    def test_unknown_runner_exits_2(self, capsys):
        assert main(["sweep", "--runner", "nope", "--param", "x=1"]) == 2
        err = capsys.readouterr().err
        assert "unknown runner" in err
        assert "relay-savings" in err

    def test_runner_without_params_exits_2(self, capsys):
        assert main(["sweep", "--runner", "relay-savings"]) == 2
        assert "--param" in capsys.readouterr().err

    def test_runner_rejects_unknown_param(self, capsys):
        assert main(["sweep", "--runner", "relay-savings",
                     "--param", "warp=9"]) == 2
        assert "does not accept" in capsys.readouterr().err

    def test_malformed_param_exits_2(self, capsys):
        assert main(["sweep", "--runner", "relay-savings",
                     "--param", "periods"]) == 2
        assert "bad --param" in capsys.readouterr().err

    def test_param_values_coerced(self):
        from repro.cli import _parse_param_grid

        grid = _parse_param_grid(["a=1,2", "b=0.5", "c=x,y"])
        assert grid == {"a": [1, 2], "b": [0.5], "c": ["x", "y"]}
