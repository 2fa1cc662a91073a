"""Self-test of the benchmark (not collected by pytest; run it directly).

1. A smoke-size run (one job) of every workload, with and without tracing,
   emits exactly the metrics ``BENCHMARK.json`` names, with their units, and
   passes its output checks.
2. Deliberately corrupted outputs (a NaN row, lost mass) fail the checks, so
   ``failed_frac`` rises above 0.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def smoke_runs(benchmark: dict) -> None:
    for workload in benchmark["workloads"]:
        name = workload["name"]
        for trace, declared in ((0, benchmark["end_to_end"]), (1, benchmark["per_layer"])):
            command = benchmark["command"] + [
                "--workload", name, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
            ]
            completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
            expect(completed.returncode == 0, f"{name} trace={trace}: exit {completed.returncode}\n{completed.stderr}")
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            expect(
                set(result) == {"correct", "attempted", "failed", "metrics"},
                f"{name}: result keys {sorted(result)}",
            )
            expect(result["correct"] and result["failed"] == 0, f"{name}: failed checks\n{completed.stdout}")
            expect(result["attempted"] >= 1, f"{name}: no checks attempted")
            units = {metric["name"]: metric["unit"] for metric in declared}
            emitted = {key: value["unit"] for key, value in result["metrics"].items()}
            expect(emitted == units, f"{name} trace={trace}: metrics/units {emitted} != {units}")
            for key, value in result["metrics"].items():
                expect(isinstance(value["value"], (int, float)), f"{name}: {key} is not a number")
            print(f"ok  {name:<15} trace={trace}  {len(emitted)} metrics, {result['attempted']} checks")


def failed_frac(workload, inputs, outputs) -> float:
    checks = workload.check(inputs, outputs)
    return sum(not ok for _name, ok in checks) / len(checks)


def corrupted_outputs_fail() -> None:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import numpy as np

    import workloads

    def nan_row(name, outputs):
        if name == "paper-sweep":
            outputs.rows[0]["_flows"][-1, 0] = np.nan
        elif name == "sf-equilibrium":
            outputs["fw"].edge_flows[0] = np.nan
        else:
            outputs.flows[0, -1, 0] = np.nan

    def lost_mass(name, outputs):
        if name == "paper-sweep":
            outputs.rows[1]["_flows"][-1] *= 0.9
        elif name == "sf-equilibrium":
            outputs["fw"].edge_flows[:] *= 0.9
        else:
            outputs.flows[1, -1] *= 0.9

    for name, workload in workloads.WORKLOADS.items():
        inputs = workload.setup(SEED)
        for corrupt in (nan_row, lost_mass):
            outputs = workload.job(inputs)
            expect(failed_frac(workload, inputs, outputs) == 0.0, f"{name}: clean outputs fail")
            corrupt(name, outputs)
            fraction = failed_frac(workload, inputs, outputs)
            expect(fraction > 0.0, f"{name}: {corrupt.__name__} went unnoticed")
            print(f"ok  {name:<15} {corrupt.__name__}: failed_frac {fraction:.3f}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    smoke_runs(benchmark)
    corrupted_outputs_fail()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
