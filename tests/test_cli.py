"""Unit tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.telemetry import NULL_TELEMETRY, get_telemetry


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parses_simulate_options(self):
        args = build_parser().parse_args(
            ["simulate", "braess", "--policy", "uniform", "--period", "0.1", "--fresh"]
        )
        assert args.command == "simulate"
        assert args.policy == "uniform"
        assert args.period == "0.1"
        assert args.fresh


class TestCommands:
    def test_list_instances(self, capsys):
        assert main(["list-instances"]) == 0
        output = capsys.readouterr().out
        assert "braess" in output
        assert "two-links" in output

    def test_describe(self, capsys):
        assert main(["describe", "braess"]) == 0
        output = capsys.readouterr().out
        assert "D (max path length)" in output
        assert "safe update period" in output

    def test_solve(self, capsys):
        assert main(["solve", "pigou-linear"]) == 0
        output = capsys.readouterr().out
        assert "Wardrop equilibrium" in output
        assert "duality gap" in output

    @staticmethod
    def _iterations(output):
        line = next(line for line in output.splitlines() if "iterations = " in line)
        return int(line.split("iterations = ")[1].split(",")[0])

    def test_solve_honours_explicit_zero_tolerance(self, capsys):
        # --tolerance 0 means "sweep until the gap is exactly met (or the
        # cap)", not "silently substitute the default tolerance": the run
        # takes more sweeps than the default's, and its returned flow, whose
        # gap is a rounding error above 0, is reported as not converged.
        assert main(["solve", "parallel-8-affine"]) == 0
        default = self._iterations(capsys.readouterr().out)
        assert main(["solve", "parallel-8-affine", "--tolerance", "0"]) == 0
        output = capsys.readouterr().out
        assert self._iterations(output) > default
        assert "converged = False" in output

    def test_solve_runs_projection_gradient_in_path_space(self, capsys):
        assert main(["solve", "pigou-linear"]) == 0
        output = capsys.readouterr().out
        assert "(projection gradient)" in output
        assert "converged = True" in output

    def test_solve_rejects_a_nan_tolerance(self, capsys):
        assert main(["solve", "pigou-quadratic", "--tolerance", "nan"]) == 2
        assert "tolerance" in capsys.readouterr().err

    def test_solve_conjugate_method_implies_edge_flow(self, capsys):
        assert main(["solve", "sioux-falls-mini", "--method", "bfw"]) == 0
        output = capsys.readouterr().out
        assert "Edge-flow equilibrium" in output
        assert "(bfw" in output

    def test_solve_has_no_path_space_method(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["solve", "braess", "--method", "pg"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'pg'" in capsys.readouterr().err

    def test_solve_edge_flow_reports_raw_tstt(self, capsys):
        assert main(["solve", "sioux-falls-mini", "--edge-flow"]) == 0
        output = capsys.readouterr().out
        assert "Edge-flow equilibrium" in output
        assert "TSTT (raw TNTP units)" in output
        assert "relative duality gap" in output
        # raw TSTT must be in vehicle-minutes territory, not normalised units
        tstt_line = next(line for line in output.splitlines() if "TSTT (raw" in line)
        assert float(tstt_line.split("=")[1]) > 1e4

    def test_simulate_with_scenario(self, capsys):
        assert main([
            "simulate", "braess", "--policy", "uniform", "--period", "0.25",
            "--horizon", "3", "--scenario", "morning-peak",
        ]) == 0
        output = capsys.readouterr().out
        assert "scenario: morning-peak" in output

    def test_simulate_rejects_unknown_scenario(self, capsys):
        assert main([
            "simulate", "braess", "--period", "0.25", "--scenario", "nope",
        ]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_simulate_rejects_mismatched_scenario(self, capsys):
        # braess-closure needs the Braess shortcut edge
        assert main([
            "simulate", "pigou-linear", "--period", "0.25",
            "--scenario", "braess-closure",
        ]) == 2
        assert "braess" in capsys.readouterr().err

    def test_sweep_with_scenario_echoes_column(self, capsys):
        assert main([
            "sweep", "braess", "--policy", "uniform", "--periods", "0.2,0.4",
            "--horizon", "2",
            "--scenario", "morning-peak",
        ]) == 0
        output = capsys.readouterr().out
        assert "scenario" in output
        assert "morning-peak" in output

    def test_simulate_auto_period(self, capsys):
        assert main(["simulate", "two-links", "--policy", "replicator",
                     "--horizon", "10"]) == 0
        output = capsys.readouterr().out
        assert "update period" in output
        assert "final eq. violation" in output

    def test_simulate_explicit_period_fresh(self, capsys):
        assert main(["simulate", "pigou-linear", "--policy", "uniform",
                     "--period", "0.1", "--horizon", "5", "--fresh"]) == 0
        assert "fresh info" in capsys.readouterr().out

    def test_simulate_rejects_auto_for_non_smooth_policy(self, capsys):
        assert main(["simulate", "two-links", "--policy", "better-response",
                     "--horizon", "5"]) == 2

    def test_simulate_rejects_non_positive_period(self):
        assert main(["simulate", "two-links", "--period", "0", "--horizon", "5"]) == 2

    @pytest.mark.parametrize("period", ["nan", "inf"])
    def test_simulate_rejects_non_finite_period(self, period):
        assert main(["simulate", "two-links", "--period", period, "--horizon", "5"]) == 2

    def test_sweep_rejects_non_finite_periods(self):
        assert main(["sweep", "braess", "--periods", "0.2,nan"]) == 2

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_a_fresh_fluid_run_of_better_response_is_rejected_before_running(
        self, capsys, command
    ):
        # Better response is discontinuous, so its fresh fluid model is a
        # differential inclusion; the agent engine and stale runs accept it.
        period = ["--period", "0.1"] if command == "simulate" else ["--periods", "0.1,0.2"]
        assert main([command, "two-links", "--policy", "better-response", "--fresh",
                     *period, "--horizon", "3"]) == 2
        captured = capsys.readouterr()
        assert "error: policy better-response is not alpha-smooth" in captured.err
        assert captured.out == ""
        assert main([command, "two-links", "--policy", "better-response", "--fresh",
                     "--method", "agents", "--agents", "20", *period, "--horizon", "1"]) == 0

    @pytest.mark.parametrize("option", ["--delta", "--epsilon"])
    def test_sweep_rejects_a_nan_slack_before_running(self, capsys, option):
        assert main(["sweep", "braess", "--periods", "0.2", option, "nan"]) == 2
        captured = capsys.readouterr()
        assert f"error: {option[2:]} must" in captured.err
        assert captured.out == ""

    def test_oscillate(self, capsys):
        assert main(["oscillate", "--beta", "2", "--period", "0.5", "--phases", "10"]) == 0
        output = capsys.readouterr().out
        assert "predicted phase-start latency" in output
        assert "measured" in output

    def test_unknown_instance_raises(self):
        with pytest.raises(KeyError):
            main(["describe", "not-an-instance"])


class TestTelemetryFlags:
    def test_simulate_trace_writes_jsonl(self, capsys, tmp_path):
        path = tmp_path / "sim.jsonl"
        assert main([
            "simulate", "two-links", "--policy", "uniform", "--period", "0.2",
            "--horizon", "2", "--trace", str(path),
        ]) == 0
        assert f"wrote trace {path}" in capsys.readouterr().out
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["schema"] == "repro-trace/1"
        engines = [
            line["attrs"]["engine"] for line in lines
            if line.get("name") == "engine_run"
        ]
        assert engines == ["fluid-batch"]
        assert get_telemetry() is NULL_TELEMETRY

    def test_simulate_metrics_prints_table(self, capsys):
        assert main([
            "simulate", "two-links", "--policy", "uniform", "--period", "0.2",
            "--horizon", "2", "--metrics",
        ]) == 0
        output = capsys.readouterr().out
        assert "telemetry metrics" in output
        assert "batch.phases_integrated" in output

    def test_sweep_trace_metrics_and_progress(self, capsys, tmp_path):
        trace = tmp_path / "sweep.jsonl"
        csv_path = tmp_path / "sweep.csv"
        assert main([
            "sweep", "braess", "--policy", "uniform", "--periods", "0.2,0.4",
            "--horizon", "2",
            "--trace", str(trace), "--metrics", "--progress",
            "--csv", str(csv_path),
        ]) == 0
        captured = capsys.readouterr()
        # Progress events stream to stderr as they happen.
        assert "[case_finished]" in captured.err
        assert "telemetry metrics" in captured.out
        # Flattened metrics merge into the persisted rows as tele_* columns.
        header = csv_path.read_text().splitlines()[0]
        assert "tele_runner.cases_completed" in header
        assert trace.exists()

    def test_sweep_writes_csv_and_jsonl_without_telemetry(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        jsonl_path = tmp_path / "sweep.jsonl"
        assert main([
            "sweep", "braess", "--policy", "uniform", "--periods", "0.2,0.4",
            "--horizon", "2", "--csv", str(csv_path), "--jsonl", str(jsonl_path),
        ]) == 0
        output = capsys.readouterr().out
        assert "telemetry metrics" not in output
        assert f"wrote {csv_path}" in output
        header, *rows = csv_path.read_text().splitlines()
        assert len(rows) == 2
        assert header.startswith("instance,T,")
        assert "tele_" not in header
        records = [json.loads(line) for line in jsonl_path.read_text().splitlines()]
        assert [record["T"] for record in records] == [0.2, 0.4]

    def test_report_renders_a_recorded_trace(self, capsys, tmp_path):
        path = tmp_path / "sim.jsonl"
        assert main([
            "simulate", "two-links", "--policy", "uniform", "--period", "0.2",
            "--horizon", "2", "--trace", str(path),
        ]) == 0
        capsys.readouterr()
        assert main(["report", str(path)]) == 0
        output = capsys.readouterr().out
        assert "engine runs" in output
        assert "fluid-batch" in output
        assert "span breakdown" in output

    def test_report_bench_renders_throughput_matrix(self, capsys, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps({
            "schema": "repro-bench/1", "bench": "b", "section": "s",
            "engine": "fluid-batch", "instance": "two-links",
            "cases": 8, "seconds": 0.5, "rate": 16.0,
        }) + "\n")
        assert main(["report", str(path), "--bench"]) == 0
        output = capsys.readouterr().out
        assert "fluid-batch" in output
        assert "two-links" in output

    def test_report_missing_file_errors(self, capsys, tmp_path):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert capsys.readouterr().err


class TestReportErrorPaths:
    """Every bad input becomes one clean error line and exit code 2."""

    def _assert_clean_error(self, capsys, rc):
        assert rc == 2
        captured = capsys.readouterr()
        err_lines = [line for line in captured.err.splitlines() if line]
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error:")
        assert "Traceback" not in captured.err

    def test_missing_file(self, capsys, tmp_path):
        self._assert_clean_error(
            capsys, main(["report", str(tmp_path / "missing.jsonl")])
        )

    def test_empty_file(self, capsys, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        self._assert_clean_error(capsys, main(["report", str(path)]))

    def test_malformed_jsonl_line(self, capsys, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text(
            '{"kind": "meta", "schema": "repro-trace/1", "spans": 1}\n{oops\n'
        )
        rc = main(["report", str(path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "line 2" in captured.err
        assert "Traceback" not in captured.err

    def test_version_mismatched_header(self, capsys, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text('{"kind": "meta", "schema": "repro-trace/99", "spans": 0}\n')
        rc = main(["report", str(path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "repro-trace/99" in captured.err
        assert "Traceback" not in captured.err

    def test_bench_mode_rejects_broken_file(self, capsys, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text("not json at all\n")
        self._assert_clean_error(capsys, main(["report", str(path), "--bench"]))

    @pytest.mark.parametrize("bench", [False, True], ids=["trace", "bench"])
    @pytest.mark.parametrize(
        "second_line, problem",
        [("[1, 2]", "is not a JSON object"), ("{oops", "is not valid JSON")],
        ids=["non-object", "malformed"],
    )
    def test_bad_second_line_is_named(self, capsys, tmp_path, bench, second_line, problem):
        path = tmp_path / "records.jsonl"
        header = {"kind": "meta", "schema": "repro-trace/1", "spans": 1}
        if bench:
            header = {"schema": "repro-bench/1", "bench": "b", "section": "s",
                      "engine": "fluid-batch", "instance": "pigou", "rate": 10.0}
        path.write_text(json.dumps(header) + "\n" + second_line + "\n")
        rc = main(["report", str(path)] + (["--bench"] if bench else []))
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert rc == 2
        assert line.startswith(f"error: {path}: line 2 {problem}")

    def test_bench_and_network_are_mutually_exclusive(self, capsys, tmp_path):
        rc = main(["report", "sioux-falls", "--bench", "--network"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestObservabilityCli:
    def test_report_network_solves_and_prints_summary(self, capsys):
        assert main(["report", "braess", "--network"]) == 0
        output = capsys.readouterr().out
        assert "network report: braess: summary" in output
        assert "most congested links" in output
        assert "solved with" in output

    def test_report_network_unknown_instance_errors(self, capsys):
        assert main(["report", "no-such-instance", "--network"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_solve_report_prints_network_tables(self, capsys):
        assert main(["solve", "braess", "--report"]) == 0
        output = capsys.readouterr().out
        assert "largest OD pairs" in output

    def test_solve_edge_flow_report(self, capsys):
        assert main(["solve", "sioux-falls-mini", "--edge-flow", "--report"]) == 0
        output = capsys.readouterr().out
        assert "most congested links" in output
        assert "v/c" in output

    def test_simulate_profile_prints_sampler_table(self, capsys):
        assert main([
            "simulate", "two-links", "--policy", "uniform", "--period", "0.2",
            "--horizon", "2", "--profile",
        ]) == 0
        assert "sampling profiler" in capsys.readouterr().out

    def test_simulate_ledger_records_run(self, capsys, tmp_path):
        from repro.telemetry.ledger import load_ledger

        ledger_dir = tmp_path / "ledger"
        assert main([
            "simulate", "two-links", "--policy", "uniform", "--period", "0.2",
            "--horizon", "2", "--ledger", str(ledger_dir),
        ]) == 0
        assert "ledgered run" in capsys.readouterr().out
        entries = load_ledger(ledger_dir)
        assert len(entries) == 1
        assert entries[0]["engine"] == "fluid-batch"
        assert entries[0]["instance"] == "two-links"

    def test_sweep_ledger_records_cases(self, capsys, tmp_path):
        from repro.telemetry.ledger import load_ledger

        ledger_dir = tmp_path / "ledger"
        assert main([
            "sweep", "braess", "--policy", "uniform", "--periods", "0.2,0.4",
            "--horizon", "2",
            "--ledger", str(ledger_dir),
        ]) == 0
        capsys.readouterr()
        entries = load_ledger(ledger_dir)
        kinds = {entry["kind"] for entry in entries}
        assert "engine_run" in kinds
        assert "sweep" in kinds
