"""Bench-record schema, the throughput matrix, and trace-report rendering."""

from __future__ import annotations

import json

import pytest

from repro.core import simulate, uniform_policy
from repro.instances import two_link_network
from repro.telemetry import load_trace, render_trace_report, telemetry_session
from repro.telemetry.bench import (
    BENCH_SCHEMA,
    RECORDS_ENV,
    bench_timer,
    clear_records,
    collected_records,
    gap_matrix_rows,
    load_records,
    render_gap_matrix,
    render_throughput_matrix,
    throughput_matrix_rows,
)
from repro.telemetry.report import (
    engine_run_rows,
    event_rows,
    metrics_rows,
    span_breakdown_rows,
)


@pytest.fixture(autouse=True)
def isolated_records():
    clear_records()
    yield
    clear_records()


class TestBenchTimer:
    def test_timed_block_emits_one_schema_record(self):
        with bench_timer(
            "bench_x", "warm", engine="fluid-batch", instance="two-links",
            cases=8, extra_flag=True,
        ) as timer:
            pass
        assert timer.seconds > 0
        assert timer.rate == pytest.approx(8 / timer.seconds)
        (record,) = collected_records()
        assert record["schema"] == BENCH_SCHEMA
        assert record["bench"] == "bench_x"
        assert record["section"] == "warm"
        assert record["engine"] == "fluid-batch"
        assert record["extra_flag"] is True

    def test_raising_block_emits_no_record(self):
        with pytest.raises(ValueError):
            with bench_timer("bench_x", "broken"):
                raise ValueError("no partial timings")
        assert collected_records() == []

    def test_records_append_to_the_env_named_file(self, tmp_path, monkeypatch):
        path = tmp_path / "records.jsonl"
        monkeypatch.setenv(RECORDS_ENV, str(path))
        with bench_timer("bench_x", "a", engine="agents", instance="two-links", cases=2):
            pass
        with bench_timer("bench_x", "b", engine="agents", instance="braess", cases=4):
            pass
        records = load_records(path)
        assert [record["section"] for record in records] == ["a", "b"]

    def test_load_records_skips_foreign_lines(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            json.dumps({"schema": BENCH_SCHEMA, "engine": "e", "instance": "i", "rate": 1.0})
            + "\n"
            + json.dumps({"kind": "span", "name": "phase"})
            + "\n\n"
        )
        records = load_records(path)
        assert len(records) == 1


class TestThroughputMatrix:
    def test_best_rate_wins_per_cell(self):
        records = [
            {"engine": "fluid-batch", "instance": "two-links", "rate": 100.0},
            {"engine": "fluid-batch", "instance": "two-links", "rate": 250.0},
            {"engine": "fluid-scalar", "instance": "two-links", "rate": 10.0},
            {"engine": "fluid-batch", "instance": "sioux-falls", "rate": 5.0},
            {"engine": "edge-fw", "instance": "sioux-falls", "rate": float("nan")},
        ]
        rows = throughput_matrix_rows(records)
        by_engine = {row["engine"]: row for row in rows}
        assert by_engine["fluid-batch"]["two-links"] == 250.0
        assert by_engine["fluid-batch"]["sioux-falls"] == 5.0
        assert by_engine["fluid-scalar"] == {"engine": "fluid-scalar", "two-links": 10.0}
        # The all-NaN engine contributes no cells at all.
        assert "edge-fw" not in by_engine

    def test_render_includes_every_instance_column(self):
        text = render_throughput_matrix(
            [
                {"engine": "a", "instance": "x", "rate": 1.0},
                {"engine": "b", "instance": "y", "rate": 2.0},
            ]
        )
        header = text.splitlines()[1]
        assert "x" in header and "y" in header

    def test_render_empty_records(self):
        assert "(no bench records)" in render_throughput_matrix([])


class TestGapMatrix:
    def test_best_gap_wins_per_cell_and_throughput_records_are_skipped(self):
        records = [
            {"method": "fw", "instance": "sioux-falls", "gap": 9e-5, "seconds": 4.5},
            {"method": "fw", "instance": "sioux-falls", "gap": 5e-5, "seconds": 6.0},
            {"method": "bfw", "instance": "sioux-falls", "gap": 8e-5, "seconds": 0.7},
            # throughput-only record: no method/gap, never a gap-matrix cell
            {"engine": "fluid-batch", "instance": "two-links", "rate": 100.0},
        ]
        rows = gap_matrix_rows(records)
        by_method = {row["method"]: row for row in rows}
        assert set(by_method) == {"fw", "bfw"}
        assert by_method["fw"]["sioux-falls"] == "5.00e-05 @ 6.00s"
        assert by_method["bfw"]["sioux-falls"] == "8.00e-05 @ 0.70s"

    def test_render_gap_matrix(self):
        text = render_gap_matrix(
            [{"method": "cfw", "instance": "sioux-falls", "gap": 1e-4, "seconds": 1.0}]
        )
        assert "cfw" in text and "sioux-falls" in text
        assert "(no solver records)" in render_gap_matrix([])
        # Records without solver fields alone also render the empty note.
        assert "(no solver records)" in render_gap_matrix(
            [{"engine": "a", "instance": "x", "rate": 1.0}]
        )


class TestTraceReport:
    @pytest.fixture
    def trace_records(self, tmp_path):
        network = two_link_network(beta=2.0)
        policy = uniform_policy(network)
        path = tmp_path / "trace.jsonl"
        with telemetry_session(trace_path=path):
            simulate(network, policy, update_period=0.2, horizon=2.0)
        return load_trace(path)

    def test_engine_run_rows_count_phases(self, trace_records):
        (row,) = engine_run_rows(trace_records)
        assert row["engine"] == "fluid-batch"
        assert row["phases"] == 10
        assert row["seconds"] > 0
        assert row["phases/sec"] > 0

    def test_span_breakdown_shares_sum_below_one_per_engine(self, trace_records):
        rows = span_breakdown_rows(trace_records)
        names = {row["span"] for row in rows}
        assert {"phase", "field_eval", "integrate"} <= names
        phase_row = next(row for row in rows if row["span"] == "phase")
        assert phase_row["engine"] == "fluid-batch"
        assert phase_row["count"] == 10
        assert 0 < phase_row["share"] <= 1.0
        # Nested spans never exceed their engine's wall time.
        assert all(0 <= row["share"] <= 1.0 for row in rows)

    def test_metrics_and_event_rows(self, trace_records):
        metrics = {row["metric"]: row for row in metrics_rows(trace_records)}
        assert metrics["batch.phases_integrated"]["value"] == 10
        events = {row["event"]: row["count"] for row in event_rows(trace_records)}
        assert events["bulletin_refresh"] >= 1

    def test_render_trace_report_has_all_sections(self, trace_records):
        text = render_trace_report(trace_records, title="unit trace")
        assert "unit trace: engine runs" in text
        assert "span breakdown (per engine)" in text
        assert "metrics" in text
        assert "events" in text

    def test_render_empty_trace(self):
        assert render_trace_report([]) == "(empty trace)"


class TestRateGuards:
    """Degenerate timings yield nan rates, never division errors or inf."""

    def test_rate_is_nan_before_the_block_exits(self):
        timer = bench_timer("b", "s", cases=8)
        assert timer.rate != timer.rate

    def test_zero_elapsed_block_has_nan_rate(self):
        timer = bench_timer("b", "s", cases=8)
        timer.seconds = 0.0
        assert timer.rate != timer.rate

    def test_zero_cases_has_nan_rate(self):
        timer = bench_timer("b", "s", cases=0)
        timer.seconds = 1.0
        assert timer.rate != timer.rate

    def test_normal_block_has_finite_rate(self):
        with bench_timer("b", "s", cases=4) as timer:
            sum(range(1000))
        assert timer.rate > 0

    def test_nan_rate_records_are_skipped_by_the_matrix(self):
        records = [
            {"schema": BENCH_SCHEMA, "engine": "e", "instance": "i",
             "cases": 0, "seconds": 1.0, "rate": float("nan")},
            {"schema": BENCH_SCHEMA, "engine": "e", "instance": "i",
             "cases": 4, "seconds": 1.0, "rate": 4.0},
        ]
        (row,) = throughput_matrix_rows(records)
        assert row["i"] == 4.0
