"""The run ledger: fingerprints, automatic emission, loading."""

from __future__ import annotations

import json

import pytest

from repro.core import simulate, uniform_policy
from repro.instances import two_link_network
from repro.telemetry import telemetry_session
from repro.telemetry.bench import bench_timer, clear_records
from repro.telemetry.ledger import (
    LEDGER_ENV,
    LEDGER_SCHEMA,
    RUNS_FILENAME,
    config_fingerprint,
    ledger_dir,
    ledger_path,
    load_ledger,
    session_entries,
    set_ledger_dir,
)


@pytest.fixture(autouse=True)
def isolated_ledger(monkeypatch):
    monkeypatch.delenv(LEDGER_ENV, raising=False)
    previous = set_ledger_dir(None)
    clear_records()
    yield
    set_ledger_dir(previous)
    clear_records()


class TestFingerprint:
    def test_stable_across_key_order(self):
        a = config_fingerprint({"engine": "fluid-scalar", "instance": "braess"})
        b = config_fingerprint({"instance": "braess", "engine": "fluid-scalar"})
        assert a == b
        assert len(a) == 12

    def test_measurement_fields_do_not_change_it(self):
        base = {"engine": "edge-fw", "instance": "sioux-falls", "method": "bfw"}
        fast = config_fingerprint({**base, "seconds": 1.0, "rate": 8.0, "gap": 1e-6})
        slow = config_fingerprint({**base, "seconds": 9.0, "rate": 0.9, "gap": 1e-2})
        assert fast == slow

    def test_config_fields_do_change_it(self):
        a = config_fingerprint({"engine": "edge-fw", "method": "fw"})
        b = config_fingerprint({"engine": "edge-fw", "method": "bfw"})
        assert a != b


class TestDirectoryResolution:
    def test_disabled_by_default(self):
        assert ledger_dir() is None
        assert ledger_path() is None

    def test_env_variable_enables(self, monkeypatch, tmp_path):
        monkeypatch.setenv(LEDGER_ENV, str(tmp_path))
        assert ledger_dir() == tmp_path
        assert ledger_path() == tmp_path / RUNS_FILENAME

    def test_override_wins_over_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(LEDGER_ENV, str(tmp_path / "env"))
        set_ledger_dir(tmp_path / "override")
        assert ledger_dir() == tmp_path / "override"


class TestSessionEmission:
    def test_engine_run_is_ledgered_with_phases_and_fingerprint(self, tmp_path):
        set_ledger_dir(tmp_path)
        network = two_link_network(beta=1.0)
        with telemetry_session():
            simulate(network, uniform_policy(network), update_period=0.1, horizon=1.0)
        entries = load_ledger(tmp_path)
        assert len(entries) == 1
        (entry,) = entries
        assert entry["schema"] == LEDGER_SCHEMA
        assert entry["kind"] == "engine_run"
        assert entry["engine"] == "fluid-batch"
        assert entry["phases"] == 10
        assert entry["wall_seconds"] > 0
        assert len(entry["fingerprint"]) == 12
        assert entry["recorded_unix"] > 0

    def test_no_directory_means_no_write(self, tmp_path):
        network = two_link_network(beta=1.0)
        with telemetry_session():
            simulate(network, uniform_policy(network), update_period=0.1, horizon=1.0)
        assert not (tmp_path / RUNS_FILENAME).exists()

    def test_repeated_runs_share_a_fingerprint(self, tmp_path):
        set_ledger_dir(tmp_path)
        network = two_link_network(beta=1.0)
        for _ in range(2):
            with telemetry_session():
                simulate(
                    network, uniform_policy(network), update_period=0.1, horizon=1.0
                )
        entries = load_ledger(tmp_path)
        assert len(entries) == 2
        assert entries[0]["fingerprint"] == entries[1]["fingerprint"]

    def test_session_entries_empty_without_spans(self):
        with telemetry_session() as tele:
            pass
        assert session_entries(tele) == []


class TestBenchEmission:
    def test_bench_record_is_ledgered(self, tmp_path):
        set_ledger_dir(tmp_path)
        with bench_timer("bench_x", "warm", engine="fluid-batch", cases=4):
            pass
        entries = load_ledger(tmp_path)
        assert len(entries) == 1
        (entry,) = entries
        assert entry["kind"] == "bench"
        assert entry["bench"] == "bench_x"
        assert entry["engine"] == "fluid-batch"
        assert "fingerprint" in entry


class TestLoader:
    def test_loads_from_directory_or_file(self, tmp_path):
        set_ledger_dir(tmp_path)
        with bench_timer("bench_x", "warm"):
            pass
        by_dir = load_ledger(tmp_path)
        by_file = load_ledger(tmp_path / RUNS_FILENAME)
        assert by_dir == by_file

    def test_skips_foreign_and_broken_lines(self, tmp_path):
        path = tmp_path / RUNS_FILENAME
        with open(path, "w") as handle:
            handle.write(json.dumps({"schema": LEDGER_SCHEMA, "kind": "bench"}) + "\n")
            handle.write("not json\n")
            handle.write("[1, 2]\n")
            handle.write(json.dumps({"schema": "other/1"}) + "\n")
            handle.write("\n")
        assert len(load_ledger(path)) == 1
