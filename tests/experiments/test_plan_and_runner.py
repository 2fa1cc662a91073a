"""Tests for experiment plans (deterministic seeds), the runner's one
dispatch rule (every fused row equals its case's one-case run), result
persistence and the ``repro sweep`` command-line entry point.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis import SweepCase, SweepResult, convergence_row_builder
from repro.batch import distance_stop
from repro.cli import build_parser, main
from repro.core import (
    replicator_policy,
    scaled_policy,
    simulate,
    simulate_agents,
    uniform_policy,
)
from repro.experiments import ExperimentPlan, case_seed, group_key, run_cases, run_plan
from repro.experiments.runner import _case_rows, _run_batch_group
from repro.instances import braess_network, pigou_network, two_link_network
from repro.wardrop import FlowVector


def pigou_plan(base_seed=0, periods=(0.1, 0.2), random_start=False):
    network = pigou_network(degree=1)
    policy = replicator_policy(network)

    def build(params, rng):
        start = FlowVector.random(network, rng) if random_start else None
        return SweepCase(
            parameters=dict(params),
            network=network,
            policy=policy,
            update_period=params["update_period"],
            horizon=1.0,
            initial_flow=start,
            steps_per_phase=5,
        )

    return ExperimentPlan.from_axes(
        "pigou-T", build, base_seed=base_seed, update_period=list(periods)
    )


class TestPlan:
    def test_from_axes_builds_cartesian_cases(self):
        plan = pigou_plan(periods=(0.1, 0.2, 0.4))
        assert len(plan) == 3
        assert [case.parameters["update_period"] for case in plan.cases] == [0.1, 0.2, 0.4]
        assert len(plan.seeds) == 3

    def test_seeds_are_deterministic_and_distinct(self):
        first = pigou_plan(base_seed=7)
        second = pigou_plan(base_seed=7)
        assert first.seeds == second.seeds
        assert len(set(first.seeds)) == len(first.seeds)
        assert pigou_plan(base_seed=8).seeds != first.seeds

    def test_case_seed_depends_on_parameters(self):
        assert case_seed(0, 0, {"T": 0.1}) != case_seed(0, 0, {"T": 0.2})
        assert case_seed(0, 0, {"T": 0.1}) == case_seed(0, 0, {"T": 0.1})

    def test_random_starts_reproducible(self):
        first = pigou_plan(random_start=True)
        second = pigou_plan(random_start=True)
        for a, b in zip(first.cases, second.cases):
            np.testing.assert_array_equal(a.initial_flow.values(), b.initial_flow.values())

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(base_seed=-1.5), "base_seed must be an integer, got -1.5"),
            (dict(base_seed=float("nan")), "base_seed must be an integer"),
            (dict(seeds=[3, 1.5]), r"seeds\[1\] must be a non-negative integer, got 1.5"),
            (dict(seeds=[-2, 3]), r"seeds\[0\] must be a non-negative integer, got -2"),
        ],
    )
    def test_non_integer_seeds_are_rejected_naming_the_field(self, overrides, message):
        cases = pigou_plan(periods=(0.1, 0.2)).cases
        with pytest.raises(ValueError, match=message):
            ExperimentPlan(name="bad", cases=cases, **overrides)

    def test_subset_preserves_seeds(self):
        plan = pigou_plan(periods=(0.1, 0.2, 0.4))
        subset = plan.subset([2, 0])
        assert subset.seeds == [plan.seeds[2], plan.seeds[0]]
        assert len(subset) == 2


def one_case_rows(cases, row_builder):
    """Each case's row from its own one-case run: the reference of every fusion."""
    return [run_cases([case], row_builder).rows[0] for case in cases]


def mixed_cases():
    """Two networks and policies: one batchable pair plus two singletons."""
    pig = pigou_network(degree=1)
    bra = braess_network()
    pig_policy = replicator_policy(pig)
    bra_policy = uniform_policy(bra)
    return [
        SweepCase({"case": 0}, pig, pig_policy, 0.1, 1.0, steps_per_phase=5),
        SweepCase({"case": 1}, pig, pig_policy, 0.2, 1.0, steps_per_phase=5),
        SweepCase({"case": 2}, bra, bra_policy, 0.1, 1.0, steps_per_phase=5),
        SweepCase({"case": 3}, bra, bra_policy, 0.15, 1.0, steps_per_phase=5, stale=False),
    ]


class TestRunner:
    def test_group_key_batches_compatible_cases(self):
        cases = mixed_cases()
        assert group_key(cases[0]) == group_key(cases[1])
        assert group_key(cases[0]) != group_key(cases[2])
        # Same network/policy but fresh info must not batch with stale.
        assert group_key(cases[2]) != group_key(cases[3])

    def test_rows_match_one_case_runs(self):
        builder = convergence_row_builder(0.2, 0.1)
        rows = run_cases(mixed_cases(), builder).rows
        assert rows == one_case_rows(mixed_cases(), builder)

    @pytest.mark.parametrize("engine", ["batch", "serial", "processes", "gpu"])
    def test_unknown_engine_rejected(self, engine):
        with pytest.raises(ValueError, match="engine"):
            run_cases(mixed_cases(), convergence_row_builder(0.2, 0.1), engine=engine)

    def test_rows_come_back_in_case_order(self):
        """Fused groups run before lone cases, yet rows keep case order."""
        pair, lone = mixed_cases()[:2], mixed_cases()[2:]
        cases = [lone[0], pair[0], lone[1], pair[1]]
        builder = convergence_row_builder(0.2, 0.1)
        rows = run_cases(cases, builder).rows
        assert [row["case"] for row in rows] == [2, 0, 3, 1]
        assert rows == one_case_rows(cases, builder)

    def test_fresh_fluid_cases_fuse_and_match_one_case_runs(self):
        network = braess_network()
        policy = uniform_policy(network)
        cases = [
            SweepCase({"case": i}, network, policy, period, 1.0, steps_per_phase=5, stale=False)
            for i, period in enumerate((0.1, 0.15, 0.25))
        ]
        assert len({group_key(case) for case in cases}) == 1
        builder = convergence_row_builder(0.2, 0.1)
        rows = run_cases(cases, builder).rows
        assert rows == one_case_rows(cases, builder)

    def test_accepts_one_shot_case_iterator(self):
        cases = mixed_cases()
        result = run_cases(iter(cases), convergence_row_builder(0.2, 0.1))
        assert len(result) == len(cases)

    def test_case_rows_merge_parameters(self):
        case = mixed_cases()[0]
        trajectory = _run_batch_group([case])[0]
        rows = _case_rows(case, trajectory, lambda t: {"phases": len(t.phases)})
        assert rows == [{"case": 0, "phases": len(trajectory.phases)}]
        multi = _case_rows(case, trajectory, lambda t: [{"k": 1}, {"k": 2}])
        assert multi == [{"case": 0, "k": 1}, {"case": 0, "k": 2}]

    def test_multi_row_builder_expands_rows(self):
        def rows_per_delta(trajectory):
            return [{"delta": delta, "phases": len(trajectory.phases)} for delta in (0.1, 0.2)]

        result = run_cases(mixed_cases()[:2], rows_per_delta)
        assert len(result) == 4
        assert result.column("delta") == [0.1, 0.2, 0.1, 0.2]
        assert result.rows[0]["case"] == 0 and result.rows[2]["case"] == 1

    def test_same_topology_different_networks_fuse_into_family_batch(self):
        """Pigou variants with different coefficients share one batch group."""
        networks = [pigou_network(degree=d, constant=c) for d, c in [(1, 1.0), (2, 0.8), (1, 1.3)]]
        cases = [
            SweepCase(
                {"case": i}, network, replicator_policy(network), 0.1 + 0.05 * i, 1.0,
                steps_per_phase=5,
            )
            for i, network in enumerate(networks)
        ]
        assert len({group_key(case) for case in cases}) == 1
        builder = convergence_row_builder(0.2, 0.1)
        assert run_cases(cases, builder).rows == one_case_rows(cases, builder)

    @pytest.mark.parametrize("stale", [True, False], ids=["stale", "fresh"])
    def test_paper_sweep_family_with_two_policies_runs_stacked(self, stale, monkeypatch):
        """two-links-steep (alpha = 4) and pigou-quadratic (alpha = 2) fuse into
        one family with two policy objects: the rows evaluate one stacked
        migration rule per table build (no per-row loop) and equal their
        one-row runs bit for bit."""
        from repro.core.migration import MigrationRule
        from repro.instances import get_instance

        cases = []
        for name, alpha in (("two-links-steep", 4.0), ("pigou-quadratic", 2.0)):
            network = get_instance(name)
            policy = scaled_policy(alpha)
            period = policy.safe_update_period(network)
            for seed in (1, 2):
                start = FlowVector.random(network, np.random.default_rng(seed))
                cases.append(
                    SweepCase(
                        {"instance": name}, network, policy, period, 6 * period,
                        initial_flow=start, stale=stale, steps_per_phase=5,
                    )
                )
        assert len({group_key(case) for case in cases}) == 1
        calls = []
        original = MigrationRule.matrix

        def counted(self, blocks, latencies):
            calls.append(len(latencies))
            return original(self, blocks, latencies)

        monkeypatch.setattr(MigrationRule, "matrix", counted)
        batched = run_cases(cases, lambda t: {"flows": t.flow_matrix()})
        # Every table build covers every row still in its phase in one call:
        # all four at each of the six phase starts and, stale, at every build
        # (a fresh row that ends its phase early leaves the sub-batch).
        assert calls.count(4) >= 6 and (not stale or set(calls) == {4})
        for case, row in zip(cases, batched.rows):
            alone = simulate(
                case.network, case.policy, update_period=case.update_period,
                horizon=case.horizon, initial_flow=case.initial_flow, stale=stale,
            )
            assert np.array_equal(row["flows"], alone.flow_matrix())

    def test_family_rows_use_member_networks(self):
        """Row builders must see each case's own network on the family path."""
        networks = [pigou_network(degree=1, constant=c) for c in (0.7, 1.2)]
        cases = [
            SweepCase({"case": i}, network, scaled_policy(1.0), 0.2, 0.6, steps_per_phase=4)
            for i, network in enumerate(networks)
        ]
        result = run_cases(cases, lambda t: {"network_id": id(t.network)})
        assert result.column("network_id") == [id(n) for n in networks]

    def test_batch_rejects_initial_flow_from_foreign_network(self):
        """The engine's per-row network validation must survive batching."""
        networks = [pigou_network(degree=1, constant=c) for c in (0.7, 1.2)]
        foreign = FlowVector.uniform(pigou_network(degree=1, constant=0.9))
        cases = [
            SweepCase(
                {"case": i}, network, scaled_policy(1.0), 0.2, 0.6,
                initial_flow=foreign if i == 0 else None, steps_per_phase=4,
            )
            for i, network in enumerate(networks)
        ]
        with pytest.raises(ValueError, match="different network"):
            run_cases(cases, lambda t: {})


def stop_when_plan():
    """A two-link beta family sweep with a per-case distance stop condition."""
    networks = [two_link_network(beta=beta) for beta in (3.0, 5.0)]
    policy = scaled_policy(0.5)
    cases = [
        SweepCase(
            {"case": i},
            network,
            policy,
            0.1,
            30.0,
            initial_flow=FlowVector(network, [0.9, 0.1]),
            steps_per_phase=5,
            stop_when=distance_stop(np.array([[0.5, 0.5]]), tolerance=1e-3),
        )
        for i, network in enumerate(networks)
    ]
    return ExperimentPlan(name="stop-when", cases=cases)


class TestStopWhenThreading:
    """SweepCase.stop_when must work end to end from a plan (ROADMAP item)."""

    def builder(self, trajectory):
        return {
            "phases": len(trajectory.phases),
            "final": trajectory.final_flow.values().tolist(),
        }

    def test_run_plan_stop_phases_match_direct_simulator_runs(self):
        plan = stop_when_plan()
        batched = run_plan(plan, self.builder).rows
        assert batched == one_case_rows(plan.cases, self.builder)
        for case, row in zip(plan.cases, batched):
            direct = simulate(
                case.network,
                case.policy,
                update_period=case.update_period,
                horizon=case.horizon,
                initial_flow=case.initial_flow,
                stop_when=case.stop_when,
            )
            assert row["phases"] == len(direct.phases)
            assert row["final"] == direct.final_flow.values().tolist()
            # The condition genuinely stopped the run early.
            assert len(direct.phases) < case.horizon / case.update_period

    def test_family_group_with_per_member_conditions(self):
        """Per-case conditions authored for each case's own network stop at
        per-member phases inside a fused different-coefficient family batch
        and agree with the one-case runs (the documented row-0 contract)."""
        from repro.batch import equilibrium_gap_stop

        betas = (3.0, 8.0)
        networks = [two_link_network(beta=beta) for beta in betas]
        policy = scaled_policy(0.5)
        cases = [
            SweepCase(
                {"beta": beta}, network, policy, 0.1, 30.0,
                initial_flow=FlowVector(network, [0.9, 0.1]), steps_per_phase=5,
                stop_when=equilibrium_gap_stop(network, delta=0.05),
            )
            for beta, network in zip(betas, networks)
        ]
        assert len({group_key(case) for case in cases}) == 1
        batched = run_cases(cases, self.builder).rows
        assert batched == one_case_rows(cases, self.builder)
        # Both members stop early, at genuinely different per-member phases
        # (the steeper instance drives larger migration probabilities, so it
        # closes the same latency gap in fewer phases).
        assert batched[1]["phases"] < batched[0]["phases"] < 300

    def test_mixed_group_stops_only_flagged_rows(self):
        network = two_link_network(beta=4.0)
        policy = scaled_policy(0.5)
        start = FlowVector(network, [0.9, 0.1])
        stop = distance_stop(np.array([[0.5, 0.5]]), tolerance=1e-3)
        cases = [
            SweepCase(
                {"case": i}, network, policy, 0.1, 20.0, initial_flow=start,
                steps_per_phase=5, stop_when=stop if i == 0 else None,
            )
            for i in range(2)
        ]
        rows = run_cases(cases, self.builder).rows
        assert rows[0]["phases"] < rows[1]["phases"] == 200


class TestAgentsMethod:
    """The runner's finite-population backend (method="agents")."""

    def agent_cases(self, stale=True):
        network = pigou_network(degree=1)
        policy = replicator_policy(network, exploration=1e-3)
        return [
            SweepCase(
                {"case": i}, network, policy, 0.2, 2.0, method="agents",
                num_agents=60 + 30 * i, seed=100 + i, stale=stale,
            )
            for i in range(3)
        ]

    def builder(self, trajectory):
        return {
            "phases": len(trajectory.phases),
            "final": trajectory.final_flow.values().tolist(),
            "policy": trajectory.policy_name,
        }

    def test_agent_cases_fuse_into_one_group(self):
        cases = self.agent_cases()
        assert len({group_key(case) for case in cases}) == 1
        # Agent cases never group with fluid cases of the same network.
        fluid = SweepCase({}, cases[0].network, cases[0].policy, 0.2, 2.0)
        assert group_key(fluid) != group_key(cases[0])

    def test_scenario_cases_fuse_and_match_one_case_runs(self):
        """Agent cases with (different) scenarios fuse like any other case."""
        from repro.scenarios import LinkIncident, Scenario
        from repro.telemetry import telemetry_session

        def cases():
            edge = pigou_network(degree=1).edges[1]
            built = self.agent_cases()
            for i, case in enumerate(built[:2]):
                case.scenario = Scenario(
                    incidents=[LinkIncident(edge, 0.4 * (i + 1), 1.6, capacity_factor=0.3)]
                )
            return built

        assert len({group_key(case) for case in cases()}) == 1
        with telemetry_session() as tele:
            fused = run_cases(cases(), self.builder).rows
        assert tele.metrics.flatten()["runner.batch_groups"] == 1
        assert fused == one_case_rows(cases(), self.builder)
        assert fused[0] != run_cases([self.agent_cases()[0]], self.builder).rows[0]

    @pytest.mark.parametrize("stale", [True, False], ids=["stale", "fresh"])
    def test_fused_rows_match_one_case_runs(self, stale):
        rows = run_cases(self.agent_cases(stale), self.builder).rows
        assert rows == one_case_rows(self.agent_cases(stale), self.builder)

    @pytest.mark.parametrize("seed", [102.0, np.int64(102)], ids=["float", "numpy"])
    def test_whole_number_seed_runs_as_that_seed(self, seed):
        """A seed given as a whole-valued float or numpy integer is the same seed."""
        cases = self.agent_cases()
        cases[2].seed = seed
        as_given = run_cases(cases, self.builder).rows
        assert as_given == run_cases(self.agent_cases(), self.builder).rows
        cases[2].seed = 103
        assert as_given[2] != run_cases(cases, self.builder).rows[2]

    def test_rows_match_direct_scalar_agent_runs(self):
        cases = self.agent_cases()
        rows = run_cases(cases, self.builder).rows
        for case, row in zip(cases, rows):
            direct = simulate_agents(
                case.network, case.policy, num_agents=case.num_agents,
                update_period=case.update_period, horizon=case.horizon,
                seed=case.seed,
            )
            assert row["final"] == direct.final_flow.values().tolist()
            assert row["policy"] == direct.policy_name

    def test_explicit_zero_num_agents_reaches_the_validator(self):
        case = self.agent_cases()[0]
        case.num_agents = 0
        with pytest.raises(ValueError, match="num_agents"):
            run_cases([case], self.builder)
        with pytest.raises(ValueError, match=r"num_agents\[0\]"):
            run_cases([case, self.agent_cases()[1]], self.builder)

    def test_agent_cases_thread_stop_when_through_fused_groups(self):
        """An agent case with stop_when stops at the same phase fused or alone."""
        stop = distance_stop(np.array([[0.5, 0.5]]), tolerance=0.2)
        cases = self.agent_cases()
        cases[0].stop_when = stop
        fused = run_cases(cases, self.builder).rows
        assert fused == one_case_rows(cases, self.builder)
        plain = run_cases(self.agent_cases(), self.builder).rows
        # The stopping case ended early; the untouched cases are unaffected.
        assert fused[0]["phases"] < plain[0]["phases"]
        assert fused[1:] == plain[1:]


class TestPersistence:
    def test_to_csv_and_jsonl_round_trip(self, tmp_path):
        result = SweepResult()
        result.append({"T": 0.1, "bad": 3})
        result.append({"T": 0.2, "bad": 1, "extra": "x"})
        csv_path = tmp_path / "rows.csv"
        jsonl_path = tmp_path / "rows.jsonl"
        result.to_csv(csv_path)
        result.to_jsonl(jsonl_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "T,bad,extra"
        assert lines[1].startswith("0.1,3")
        parsed = [json.loads(line) for line in jsonl_path.read_text().splitlines()]
        assert parsed == [{"T": 0.1, "bad": 3}, {"T": 0.2, "bad": 1, "extra": "x"}]

    def test_run_plan_persists_and_tags_seeds(self, tmp_path):
        plan = pigou_plan()
        csv_path = tmp_path / "plan.csv"
        jsonl_path = tmp_path / "plan.jsonl"
        result = run_plan(
            plan,
            convergence_row_builder(0.2, 0.1),
            csv_path=csv_path,
            jsonl_path=jsonl_path,
            include_seed=True,
        )
        assert csv_path.exists() and jsonl_path.exists()
        assert result.column("seed") == plan.seeds
        header = csv_path.read_text().splitlines()[0]
        assert "seed" in header.split(",")


class TestRunnerTelemetry:
    """The runner's progress-event stream and sweep-level span."""

    def collect_events(self):
        from repro.telemetry import telemetry_session

        events = []
        with telemetry_session(
            progress=lambda name, attrs: events.append((name, dict(attrs)))
        ) as tele:
            run_cases(mixed_cases(), convergence_row_builder(0.2, 0.1))
        return events, tele

    def test_lone_cases_emit_case_started_and_finished(self):
        events, tele = self.collect_events()
        names = [name for name, _ in events]
        # Cases 2 and 3 are alone in their groups; the fused pair reports
        # only its completions.
        started = [attrs for name, attrs in events if name == "case_started"]
        assert [attrs["case"] for attrs in started] == [2, 3]
        assert names.count("case_finished") == 4
        finished = [attrs for name, attrs in events if name == "case_finished"]
        lone = [attrs for attrs in finished if attrs["case"] in (2, 3)]
        assert all(attrs["seconds"] >= 0 for attrs in lone)
        assert all("method" in attrs and "update_period" in attrs for attrs in finished)
        assert tele.metrics.counter("runner.cases_completed").value == 4

    def test_fused_groups_report_their_sizes(self):
        events, tele = self.collect_events()
        fused = [attrs for name, attrs in events if name == "batch_fused"]
        assert [group["cases"] for group in fused] == [2]
        assert fused[0]["method"] == "fluid" and fused[0]["stale"] is True
        histogram = tele.metrics.histogram("runner.batch_group_size")
        assert histogram.count == 1
        assert histogram.maximum == 2
        assert tele.metrics.counter("runner.batch_groups").value == 1

    def test_sweep_span_wraps_the_run(self):
        _, tele = self.collect_events()
        sweeps = [r for r in tele.tracer.records() if r["name"] == "sweep"]
        assert len(sweeps) == 1
        assert sweeps[0]["attrs"] == {
            "cases": 4,
            "engine": "auto",
            "instance": "-",
        }
        # Every engine_run span nests under the sweep span.
        runs = [r for r in tele.tracer.records() if r["name"] == "engine_run"]
        assert runs and all(r["parent"] == sweeps[0]["id"] for r in runs)

    def test_merge_metrics_adds_prefixed_columns_without_overwriting(self):
        result = SweepResult()
        result.append({"T": 0.1, "phases": 9, "tele_kept": "original"})
        result.merge_metrics({"runner.cases_completed": 2.0, "kept": "new"})
        row = result.rows[0]
        assert row["tele_runner.cases_completed"] == 2.0
        assert row["tele_kept"] == "original"


class TestSweepCli:
    def test_parses_sweep_options(self):
        args = build_parser().parse_args(
            ["sweep", "braess", "--policy", "uniform", "--periods", "0.1,0.2",
             "--method", "agents"]
        )
        assert args.command == "sweep"
        assert args.periods == "0.1,0.2"
        assert args.method == "agents"

    @pytest.mark.parametrize("option", [["--engine", "batch"], ["--processes", "2"]])
    def test_sweep_has_no_dispatch_options(self, option, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "braess", *option])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_simulate_accepts_method(self, capsys):
        code = main(
            ["simulate", "pigou-linear", "--policy", "uniform", "--period", "0.2",
             "--horizon", "2", "--method", "fluid"]
        )
        assert code == 0
        assert "Trajectory" in capsys.readouterr().out

    def test_sweep_runs_and_writes_outputs(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        jsonl_path = tmp_path / "sweep.jsonl"
        code = main(
            ["sweep", "pigou-linear", "--policy", "replicator",
             "--periods", "0.1,0.2", "--horizon", "2",
             "--csv", str(csv_path), "--jsonl", str(jsonl_path)]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Sweep of pigou-linear" in output
        assert csv_path.exists()
        rows = [json.loads(line) for line in jsonl_path.read_text().splitlines()]
        assert len(rows) == 2
        assert {row["T"] for row in rows} == {0.1, 0.2}

    def test_sweep_end_to_end_artifacts_parse_with_cases_and_seeds(self, tmp_path, capsys):
        """`repro sweep` artifacts must round-trip and carry the expected
        case grid and deterministic seeds (satellite regression)."""
        csv_path = tmp_path / "sweep.csv"
        jsonl_path = tmp_path / "sweep.jsonl"
        periods = [0.1, 0.2]
        code = main(
            ["sweep", "pigou-linear", "--policy", "replicator",
             "--periods", "0.1,0.2", "--horizon", "1",
             "--include-seed", "--csv", str(csv_path), "--jsonl", str(jsonl_path)]
        )
        assert code == 0
        loaded_jsonl = SweepResult.from_jsonl(jsonl_path)
        loaded_csv = SweepResult.from_csv(csv_path)
        assert len(loaded_jsonl) == len(loaded_csv) == len(periods)
        # JSONL preserves types; CSV comes back as strings of the same values.
        assert loaded_jsonl.column("T") == periods
        assert [float(value) for value in loaded_csv.column("T")] == periods
        for row in loaded_jsonl.rows:
            assert {"instance", "T", "seed", "phases", "bad_phases"} <= set(row)
            assert row["instance"] == "pigou-linear"
        # The seeds are the deterministic per-case seeds of the CLI's plan.
        grid = [{"instance": "pigou-linear", "update_period": period} for period in periods]
        expected_seeds = [case_seed(0, i, params) for i, params in enumerate(grid)]
        assert loaded_jsonl.column("seed") == expected_seeds
        assert [int(value) for value in loaded_csv.column("seed")] == expected_seeds

    def test_sweep_fuses_multiple_same_topology_instances(self, tmp_path, capsys):
        jsonl_path = tmp_path / "family.jsonl"
        code = main(
            ["sweep", "pigou-linear,pigou-quadratic", "--policy", "uniform",
             "--periods", "0.1", "--horizon", "1",
             "--jsonl", str(jsonl_path)]
        )
        assert code == 0
        rows = SweepResult.from_jsonl(jsonl_path).rows
        assert [row["instance"] for row in rows] == ["pigou-linear", "pigou-quadratic"]
        # The family batch must agree with each instance's sweep on its own.
        alone = []
        for name in ("pigou-linear", "pigou-quadratic"):
            path = tmp_path / f"{name}.jsonl"
            assert main(
                ["sweep", name, "--policy", "uniform", "--periods", "0.1",
                 "--horizon", "1", "--jsonl", str(path)]
            ) == 0
            alone.extend(SweepResult.from_jsonl(path).rows)
        assert rows == alone

    def test_sweep_rejects_bad_periods(self, capsys):
        assert main(["sweep", "braess", "--periods", "0.1,-0.2"]) == 2
        assert main(["sweep", "braess", "--periods", "abc"]) == 2
