"""Acceptance: the Sioux Falls workflows never enumerate the full path set.

``repro simulate sioux-falls`` and ``repro sweep sioux-falls`` must run end
to end without a single call to ``enumerate_commodity_paths`` on the full
network -- the loader seeds restricted path sets from the shortest-path
oracle and everything downstream (simulator, batched runner, column
generation, edge-flow Frank--Wolfe) stays oracle-driven.
"""

import numpy as np
import pytest

import repro.wardrop.paths as paths_module
from repro.cli import main


@pytest.fixture
def forbid_enumeration(monkeypatch):
    """Make any attempt at path enumeration an immediate test failure."""

    def exploded(*args, **kwargs):
        raise AssertionError("enumerate_commodity_paths must not run")

    monkeypatch.setattr(paths_module, "enumerate_commodity_paths", exploded)


def test_simulate_sioux_falls_runs_without_enumeration(forbid_enumeration, capsys):
    code = main(
        [
            "simulate", "sioux-falls", "--policy", "replicator",
            "--period", "auto", "--horizon", "0.05",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "update period T" in out


def test_simulate_sioux_falls_with_column_generation(forbid_enumeration, capsys):
    code = main(
        [
            "simulate", "sioux-falls-mini", "--policy", "uniform",
            "--period", "0.05", "--horizon", "0.3", "--column-generation",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "column generation" in out
    assert "active paths" in out


def test_sweep_sioux_falls_runs_without_enumeration(forbid_enumeration, capsys, tmp_path):
    csv_path = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep", "sioux-falls", "--policy", "uniform",
            "--periods", "0.05,0.1", "--horizon", "0.2",
            "--csv", str(csv_path),
        ]
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 3  # header + one row per period
    assert "bad_phases" in lines[0]


def test_sweep_sioux_falls_mini_with_column_generation(forbid_enumeration, capsys):
    code = main(
        [
            "sweep", "sioux-falls-mini", "--policy", "uniform",
            "--periods", "0.1,0.2", "--horizon", "0.4",
            "--column-generation",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Sweep of sioux-falls-mini" in out


@pytest.mark.parametrize("command, period", [("simulate", "--period"), ("sweep", "--periods")])
def test_column_generation_rejects_agent_method(capsys, command, period):
    code = main(
        [
            command, "sioux-falls-mini", "--method", "agents",
            period, "0.1", "--column-generation",
        ]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and captured.out == ""


def test_registered_road_instances_are_restricted(forbid_enumeration):
    from repro.instances import get_instance

    network = get_instance("sioux-falls-mini")
    assert network.num_paths == network.num_commodities
    flows = np.full(network.num_paths, 1.0 / network.num_paths)
    latencies = network.path_latencies(flows)
    assert latencies.shape == (network.num_paths,)
    assert np.all(latencies > 0)
