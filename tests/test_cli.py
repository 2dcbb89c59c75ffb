"""Tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def cli_artifacts(tmp_path_factory):
    """One small simulation driven through the CLI itself."""
    out = tmp_path_factory.mktemp("cli") / "run"
    code = main(
        [
            "simulate",
            str(out),
            "--preset",
            "small",
            "--seed",
            "9",
            "--job-scale",
            "0.01",
        ]
    )
    assert code == 0
    return out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "out"])
        assert args.preset == "small"
        assert args.seed == 2022
        assert args.job_scale is None

    def test_report_flags(self):
        args = build_parser().parse_args(
            ["report", "dir", "--compare", "--nodes", "8"]
        )
        assert args.compare
        assert args.nodes == 8

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "out", "--preset", "huge"])

    @pytest.mark.parametrize("flag", ["--checkpoint", "--resume"])
    def test_pipeline_resume_flags_gone(self, flag):
        # A rerun resumes from the scan cache; there is no flag for it.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["pipeline", "dir", flag])


class TestSimulate:
    def test_artifacts_written(self, cli_artifacts, capsys):
        assert (cli_artifacts / "sacct.csv").exists()
        assert (cli_artifacts / "inventory.json").exists()
        assert (cli_artifacts / "syslog").is_dir()


class TestPipeline:
    def test_pipeline_summary(self, cli_artifacts, capsys):
        code = main(["pipeline", str(cli_artifacts)])
        assert code == 0
        out = capsys.readouterr().out
        assert "coalesced errors" in out
        assert "excluded XID 13/43 lines" in out

    def test_custom_window(self, cli_artifacts, capsys):
        code = main(
            ["pipeline", str(cli_artifacts), "--coalesce-window", "120"]
        )
        assert code == 0
        assert "dt=120s" in capsys.readouterr().out


class TestReport:
    def test_report_prints_all_tables(self, cli_artifacts, capsys):
        code = main(["report", str(cli_artifacts), "--nodes", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Table II" in out
        assert "Table III" in out
        assert "Figure 2" in out
        assert "MMU Error" in out

    def test_report_with_compare(self, cli_artifacts, capsys):
        code = main(["report", str(cli_artifacts), "--nodes", "8", "--compare"])
        assert code == 0
        out = capsys.readouterr().out
        assert "paper comparisons" in out
        assert "within tolerance" in out


class TestSummary:
    def test_summary_renders(self, cli_artifacts, capsys):
        code = main(["summary", str(cli_artifacts), "--nodes", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "GPU RESILIENCE STUDY SUMMARY" in out
        assert "-- reliability --" in out
        assert "-- availability --" in out
        assert "weakest components" in out


class TestObservability:
    def test_telemetry_flags_parse_on_every_run_command(self):
        parser = build_parser()
        for command in ("simulate", "pipeline", "report"):
            args = parser.parse_args(
                [command, "d", "--metrics-out", "m.prom", "--trace-out",
                 "t.jsonl", "--log-json", "l.jsonl", "--obs"]
            )
            assert args.metrics_out == "m.prom"
            assert args.trace_out == "t.jsonl"
            assert args.log_json == "l.jsonl"
            assert args.obs

    @pytest.fixture(scope="class")
    def telemetry_artifacts(self, tmp_path_factory):
        """One telemetry-enabled simulation via the CLI."""
        root = tmp_path_factory.mktemp("cli_obs")
        code = main(
            [
                "simulate", str(root / "run"),
                "--preset", "small", "--seed", "5", "--job-scale", "0.005",
                "--metrics-out", str(root / "m.prom"),
                "--trace-out", str(root / "t.jsonl"),
                "--log-json", str(root / "l.jsonl"),
            ]
        )
        assert code == 0
        return root

    def test_simulate_writes_telemetry_artifacts(
        self, telemetry_artifacts, capsys
    ):
        prom = (telemetry_artifacts / "m.prom").read_text()
        assert "# TYPE faults_injected_total counter" in prom
        assert "sim_events_executed_total{" in prom
        trace_lines = (
            (telemetry_artifacts / "t.jsonl").read_text().splitlines()
        )
        names = {json.loads(line)["name"] for line in trace_lines}
        assert {"simulate", "build", "engine-run"} <= names
        log_lines = (telemetry_artifacts / "l.jsonl").read_text().splitlines()
        events = {json.loads(line)["event"] for line in log_lines}
        assert "simulate.done" in events

    def test_run_report_printed(self, telemetry_artifacts, capsys):
        out_dir = telemetry_artifacts / "run2"
        code = main(
            ["simulate", str(out_dir), "--preset", "small",
             "--seed", "5", "--job-scale", "0.005", "--obs"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "run report" in out
        assert "wall time per stage" in out
        assert "sim events/sec" in out
        assert "hottest subsystems" in out

    def test_obs_renders_metrics_table(self, telemetry_artifacts, capsys):
        code = main(["obs", str(telemetry_artifacts / "m.prom")])
        assert code == 0
        out = capsys.readouterr().out
        assert "faults_injected_total" in out
        assert "metric" in out and "value" in out

    def test_obs_json_snapshot_also_renders(
        self, telemetry_artifacts, capsys
    ):
        out_dir = telemetry_artifacts / "run3"
        code = main(
            ["simulate", str(out_dir), "--preset", "small",
             "--seed", "5", "--job-scale", "0.005",
             "--metrics-out", str(telemetry_artifacts / "m.json")]
        )
        assert code == 0
        capsys.readouterr()
        snapshot = json.loads((telemetry_artifacts / "m.json").read_text())
        assert snapshot["schema"] == "repro-metrics-v1"
        code = main(["obs", str(telemetry_artifacts / "m.json")])
        assert code == 0
        assert "faults_injected_total" in capsys.readouterr().out

    def test_obs_chrome_conversion(self, telemetry_artifacts, capsys):
        chrome = telemetry_artifacts / "t.chrome.json"
        code = main(
            ["obs", str(telemetry_artifacts / "t.jsonl"),
             "--chrome", str(chrome)]
        )
        assert code == 0
        doc = json.loads(chrome.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert all(e["ph"] == "X" for e in doc["traceEvents"])
        assert {e["name"] for e in doc["traceEvents"]} >= {
            "simulate", "engine-run"
        }

    def test_same_seed_cli_runs_identical_artifacts(
        self, telemetry_artifacts, tmp_path
    ):
        code = main(
            ["simulate", str(tmp_path / "again"), "--preset", "small",
             "--seed", "5", "--job-scale", "0.005",
             "--metrics-out", str(tmp_path / "m.prom"),
             "--trace-out", str(tmp_path / "t.jsonl")]
        )
        assert code == 0
        assert (tmp_path / "m.prom").read_text() == (
            telemetry_artifacts / "m.prom"
        ).read_text()
        assert (tmp_path / "t.jsonl").read_text() == (
            telemetry_artifacts / "t.jsonl"
        ).read_text()


class TestExitCodes:
    def test_mapping(self):
        from repro.cli import (
            EXIT_CONFIG_ERROR,
            EXIT_INTERRUPTED,
            EXIT_RUNTIME_ERROR,
            exit_code_for,
        )
        from repro.core.exceptions import (
            CampaignError,
            CheckpointError,
            ConfigurationError,
        )

        assert exit_code_for(ConfigurationError("x")) == EXIT_CONFIG_ERROR
        assert exit_code_for(CampaignError("x")) == EXIT_RUNTIME_ERROR
        assert exit_code_for(CheckpointError("x")) == EXIT_RUNTIME_ERROR
        assert exit_code_for(KeyboardInterrupt()) == EXIT_INTERRUPTED

    def test_unknown_exceptions_propagate(self):
        from repro.cli import exit_code_for

        with pytest.raises(ValueError):
            exit_code_for(ValueError("not ours"))

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "exit codes:" in out
        assert "partial campaign success" in out

    def test_config_error_exits_2(self, tmp_path, capsys):
        code = main(
            ["study", str(tmp_path / "camp"), "--seeds", "not-a-seed"]
        )
        assert code == 2
        assert "bad --seeds" in capsys.readouterr().err


class TestSeedParsing:
    def test_comma_list_and_range(self):
        from repro.cli import _parse_seeds

        assert _parse_seeds("7,8,9") == (7, 8, 9)
        assert _parse_seeds("7..10") == (7, 8, 9, 10)
        assert _parse_seeds(" 5 ") == (5,)

    def test_bad_specs_rejected(self):
        from repro.cli import _parse_seeds
        from repro.core.exceptions import ConfigurationError

        for bad in ("x", "9..7", "1,two", ""):
            with pytest.raises(ConfigurationError):
                _parse_seeds(bad)


class TestStudyCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["study", "camp"])
        assert args.preset == "small"
        assert args.seeds == "2022..2025"
        assert args.max_workers == 4
        assert args.max_attempts == 3
        assert not args.resume

    def test_campaign_via_cli(self, tmp_path, capsys):
        camp = tmp_path / "camp"
        code = main(
            [
                "study", str(camp),
                "--seeds", "7,8",
                "--job-scale", "0.01",
                "--pre-days", "1", "--op-days", "3",
                "--max-workers", "2",
                "--chaos-garbage", "1.0",
                "--chaos-strikes", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "coverage: 2/2 cells (100.0%)" in out
        assert (camp / "manifest.json").is_file()
        summary = json.loads(
            (camp / "campaign_summary.json").read_text("utf-8")
        )
        assert summary["coverage"]["fraction"] == 1.0
        # Chaos forced a retry on every cell.
        manifest = json.loads((camp / "manifest.json").read_text("utf-8"))
        assert all(
            cell["attempts"] == 2 for cell in manifest["cells"].values()
        )

    def test_partial_campaign_exits_4(self, tmp_path, capsys):
        # Chaos seed 0 deterministically sabotages seed-8's only
        # attempt and spares seed-7's (asserted in test_supervise's
        # plan-determinism coverage), so exactly one cell fails.
        code = main(
            [
                "study", str(tmp_path / "camp"),
                "--seeds", "7,8",
                "--job-scale", "0.01",
                "--pre-days", "1", "--op-days", "3",
                "--max-attempts", "1",
                "--chaos-garbage", "0.5",
                "--chaos-seed", "0",
                "--chaos-strikes", "9",
            ]
        )
        captured = capsys.readouterr()
        assert code == 4
        assert "degraded campaign" in captured.err
        assert "coverage: 1/2 cells" in captured.out

    def test_day_overrides_need_small_preset(self, tmp_path, capsys):
        code = main(
            ["study", str(tmp_path / "camp"), "--preset", "delta",
             "--pre-days", "1"]
        )
        assert code == 2
        assert "only apply to --preset small" in capsys.readouterr().err
