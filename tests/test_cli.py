"""Tests for the command-line interface."""

import json

import pytest

from repro.cli.main import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.grid == 8 and args.rounds == 2500

    def test_experiment_names_restricted(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "fig8" in out and "fig9" in out

    def test_run_small(self, capsys):
        code = main(["run", "--rounds", "200", "--grid", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "monitor violations: 0" in out

    def test_run_with_turns(self, capsys):
        assert main(["run", "--rounds", "150", "--turns", "2", "--length", "6"]) == 0
        assert "consumed" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["run", "serve"])
    def test_corridor_off_the_grid_is_a_usage_error(self, command):
        """The default --length 8 on a 6x6 grid: one line, no traceback."""
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--grid", "6"])
        message = str(excinfo.value.code)
        assert "\n" not in message
        assert "does not fit a 6x6 grid" in message
        assert "(1, 6)" in message

    @pytest.mark.parametrize("command", ["run", "watch", "trace", "svg", "serve"])
    @pytest.mark.parametrize("engine", ["vectorized", "timed", "sharded"])
    def test_multiflow_engine_flag_is_a_usage_error(self, command, engine):
        """An engine multi-commodity runs do not support: one line, exit 1."""
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--commodities", "2", "--grid", "5", "--engine", engine])
        message = str(excinfo.value.code)
        assert "\n" not in message
        assert f"--engine {engine}" in message
        assert "reference and incremental" in message

    @pytest.mark.parametrize("command", ["run", "watch", "trace", "svg", "serve"])
    def test_multiflow_engine_from_the_environment_is_a_usage_error(
        self, command, monkeypatch
    ):
        monkeypatch.setenv("REPRO_ENGINE", "timed")
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--commodities", "2", "--grid", "5"])
        message = str(excinfo.value.code)
        assert "\n" not in message
        assert "REPRO_ENGINE=timed" in message

    @pytest.mark.parametrize("command", ["run", "watch", "trace", "svg", "serve"])
    @pytest.mark.parametrize("commodities", [[], ["--commodities", "2", "--grid", "5"]])
    def test_unknown_engine_from_the_environment_is_a_usage_error(
        self, command, commodities, monkeypatch
    ):
        """``--engine bogus`` is an argparse error; ``REPRO_ENGINE=bogus``
        exits 1 with one line naming the variable and the engines."""
        monkeypatch.setenv("REPRO_ENGINE", "bogus")
        with pytest.raises(SystemExit) as excinfo:
            main([command, *commodities])
        message = str(excinfo.value.code)
        assert "\n" not in message
        assert "REPRO_ENGINE=bogus: unknown round engine" in message
        assert "reference, incremental, vectorized, timed, sharded" in message

    def test_multiflow_engine_flag_overrides_the_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "vectorized")
        code = main(
            ["run", "--commodities", "2", "--grid", "5", "--rounds", "20",
             "--engine", "incremental"]
        )
        assert code == 0
        assert "commodities (produced/consumed/in-flight)" in capsys.readouterr().out

    def test_run_with_faults(self, capsys):
        code = main(
            ["run", "--rounds", "200", "--pf", "0.02", "--pr", "0.1", "--seed", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "failures/recovs" in out

    def test_watch(self, capsys):
        assert main(["watch", "--rounds", "30", "--frames", "3", "--routes"]) == 0
        out = capsys.readouterr().out
        assert "round 0" in out
        assert "TT" in out

    def test_ablation_token(self, capsys):
        assert main(["ablation", "token", "--rounds", "300"]) == 0
        out = capsys.readouterr().out
        assert "round-robin" in out and "sticky" in out

    def test_ablation_unsafe(self, capsys):
        assert main(["ablation", "unsafe", "--rounds", "300"]) == 0
        assert "greedy" in capsys.readouterr().out

    def test_trace_roundtrip(self, capsys, tmp_path):
        out_file = tmp_path / "run.jsonl"
        code = main(["trace", "--rounds", "150", "--out", str(out_file)])
        assert code == 0
        assert out_file.exists()
        out = capsys.readouterr().out
        assert "0 violations" in out

    def test_svg_output(self, capsys, tmp_path):
        out_file = tmp_path / "state.svg"
        assert main(["svg", "--rounds", "100", "--out", str(out_file)]) == 0
        assert out_file.read_text().startswith("<svg")

    def test_experiment_tiny(self, capsys, tmp_path):
        code = main(
            ["experiment", "fig8", "--rounds", "60", "--out", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert "turns" in out
        assert "shape check" in out
        saved = json.loads((tmp_path / "fig8.json").read_text())
        assert saved["name"] == "fig8"
        assert (tmp_path / "fig8.csv").exists()
        assert code in (0, 1)  # shape checks may be noisy at 60 rounds
