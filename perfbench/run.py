"""The repository benchmark: one workload per fresh process, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

A run imports ``repro`` from ``src/``, times fresh interpreters importing
the same, builds the workload's inputs from ``--seed`` several times
(``setup_s`` is the median import plus the median set-up), then repeats the
workload's job, a closed loop with one caller, until ``--seconds`` have been
measured.  While each import, set-up and job runs, a ``SpeedProbe`` samples
the host's speed in band, and the step's time is scaled to a quiet host's
speed (see ``README.md``).  Every job's outputs are checked, untimed.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced jobs and reports the per-layer metrics of the traced
ones (see ``README.md``).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in its own process and prints one
combined table.  BLAS and OpenMP are pinned to one thread before numpy loads.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import os  # noqa: E402

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from typing import Callable, Dict, List, Optional, Sequence, Tuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKLOAD_NAMES = ("paper-sweep", "sf-incident", "city-cg", "sf-equilibrium")
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
CHILD_TIMEOUT_S = 900
PROBE_INTERVAL_S = 0.02
PROBE_MIN_SAMPLES = 20
PROBE_PYTHON_LOOPS = 400
PROBE_ARRAY_SIZE = 262_144

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("row_phases_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


def environment() -> Dict[str, object]:
    """nproc, CPU model, interpreter and library versions, and the git commit."""
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": git_commit(),
    }


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
            return handle.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def interpreter_kernel() -> Callable[[], float]:
    """A probe kernel of dict updates in the interpreter, about 50 us."""

    def kernel() -> float:
        table: Dict[int, int] = {}
        begin = time.process_time()
        for index in range(PROBE_PYTHON_LOOPS):
            key = index & 63
            table[key] = table.get(key, 0) + (index ^ key)
        return time.process_time() - begin

    return kernel


def array_kernel() -> Callable[[], float]:
    """A probe kernel of one pass over a 2 MiB array, about 300 us."""
    import numpy as np

    array = np.ones(PROBE_ARRAY_SIZE)

    def kernel() -> float:
        begin = time.process_time()
        array.sum()
        return time.process_time() - begin

    return kernel


# Kernel name -> (kernel factory, the kernel's seconds on a quiet host of the
# kind the benchmark was built on); scaled times read as seconds at that speed.
PROBE_KERNELS: Dict[str, Tuple[Callable[[], Callable[[], float]], float]] = {
    "interpreter": (interpreter_kernel, 5.0e-5),
    "arrays": (array_kernel, 3.0e-4),
}
# Imports and set-ups (path growth, reference solves) are interpreter-bound.
SETUP_MIX = (("interpreter", 1.0),)


def children_cpu_time() -> float:
    """CPU seconds of the child processes waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


@dataclass
class Timing:
    wall_s: float
    cpu_s: float
    scaled_s: float
    slowdown: float
    samples: int


class SpeedProbe:
    """The host's speed while one step runs, sampled in band.

    Neighbours on a shared host slow the same job by up to 2x, in stretches
    of a second to minutes, and the guest cannot see it: the job's CPU time
    grows with its wall time (see ``README.md``).  Every
    ``PROBE_INTERVAL_S`` of the step's wall time a SIGALRM handler runs each
    kernel of ``mix`` once and records its CPU time, so the samples cover the
    same moments as the step.  The slowdown is the weighted sum of each
    kernel's mean time over its quiet-host time; the scaled time is the
    step's CPU time, less the kernels run inside it, over the slowdown.
    CPU time, not wall time, so that other processes in the guest taking
    turns with the step do not count.  No ``repro`` code runs in a kernel.
    """

    def __init__(self, mix: Sequence[Tuple[str, float]]) -> None:
        self.kernels = [
            (PROBE_KERNELS[name][0](), weight, PROBE_KERNELS[name][1]) for name, weight in mix
        ]
        self.samples: List[List[float]] = [[] for _ in self.kernels]

    def _sample(self, _signum: int = 0, _frame: object = None) -> None:
        for (kernel, _weight, _reference), samples in zip(self.kernels, self.samples):
            samples.append(kernel())

    def measure(self, step: Callable[[], object], in_process: bool = True) -> Tuple[object, Timing]:
        """Run ``step`` under the probe.  Pass ``in_process=False`` for a step
        that waits on a child process: its CPU time is the child's, and the
        kernels run beside it, so they are not taken off that time."""
        cpu_clock = time.process_time if in_process else children_cpu_time
        for samples in self.samples:
            samples.clear()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        begin, cpu_begin = time.perf_counter(), cpu_clock()
        try:
            result = step()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed, cpu = time.perf_counter() - begin, cpu_clock() - cpu_begin
        inside = sum(map(sum, self.samples)) if in_process else 0.0
        count = len(self.samples[0])
        # A step shorter than a few intervals is probed right after it.
        while len(self.samples[0]) < PROBE_MIN_SAMPLES:
            self._sample()
        slowdown = sum(
            weight * statistics.fmean(samples) / reference
            for (_kernel, weight, reference), samples in zip(self.kernels, self.samples)
        )
        return result, Timing(elapsed, cpu, (cpu - inside) / slowdown, slowdown, count)


def import_step() -> None:
    """A fresh interpreter that imports what a run imports.

    One import per process is too few to time steadily, so the set-up metric
    takes the median of several.
    """
    command = [sys.executable, "-c", f"import sys; sys.path[:0] = {[SRC, HERE]!r}; import workloads"]
    subprocess.run(command, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)


def series(timings: Sequence[Timing], field: str, spec: str = ".3f") -> str:
    return ", ".join(format(getattr(timing, field), spec) for timing in timings)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path[:0] = [SRC, HERE]
    import workloads

    import_s = time.perf_counter() - PROCESS_START
    workload = workloads.WORKLOADS[name]
    setup_probe = SpeedProbe(SETUP_MIX)
    imports = [setup_probe.measure(import_step, in_process=False)[1] for _ in range(IMPORT_REPEATS)]
    setups: List[Timing] = []
    for _ in range(SETUP_REPEATS):
        inputs, timing = setup_probe.measure(lambda: workload.setup(seed))
        setups.append(timing)
    setup_s = statistics.median(t.scaled_s for t in imports) + statistics.median(
        t.scaled_s for t in setups
    )

    tracer = None
    if trace:
        import layers
        from tracer import LayerTracer

        tracer = LayerTracer()
    probe = SpeedProbe(workload.calibration)
    untraced: List[Timing] = []
    traced: List[Timing] = []
    totals: Dict[str, List[float]] = {}
    values: Dict[str, float] = {}
    unattributed = 0.0
    work: List[int] = []
    attempted = 0
    failures: List[str] = []
    measure_start = time.perf_counter()
    while True:
        tracing = tracer is not None and len(traced) < len(untraced)
        gc.collect()
        if tracing:
            tracer.reset()
            layers.install(tracer)
        try:
            outputs, timing = probe.measure(lambda: workload.job(inputs))
        finally:
            if tracing:
                tracer.uninstall()
        if tracing:
            traced.append(timing)
            unattributed += timing.wall_s - tracer.top_level_wrapped
            for key, stat in tracer.stats.items():
                entry = totals.setdefault(key, [0, 0.0, 0.0])
                entry[0] += stat.calls
                entry[1] += stat.busy
                entry[2] += stat.self_time
            layers.merge_values(values, tracer.values)
        else:
            untraced.append(timing)
            work.append(workload.work(outputs))
        checks = workload.check(inputs, outputs)
        attempted += len(checks)
        job = len(untraced) + len(traced)
        failures.extend(f"job {job}: {check}" for check, ok in checks if not ok)
        del outputs
        # Start another job only if it should end near the deadline, so a
        # run measures about ``seconds`` whatever the job length.
        typical = statistics.median(t.wall_s for t in untraced + traced)
        done = time.perf_counter() - measure_start + typical / 2 > seconds
        if done and (tracer is None or traced):
            break

    # The median scaled job: robust to the few jobs the probe tracks poorly.
    # Every wall time, scaled time and slowdown is printed.
    run_s = statistics.median(t.scaled_s for t in untraced)
    env = environment()
    report: Dict[str, object] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env,
        "import_s": import_s,
        "probe_mix": {"set-up": SETUP_MIX, "job": workload.calibration},
        "fresh_imports": [asdict(t) for t in imports],
        "setup_runs": [asdict(t) for t in setups],
        "untraced_jobs": [asdict(t) for t in untraced],
        "traced_jobs": [asdict(t) for t in traced],
        "attempted": attempted,
        "failed_checks": failures,
    }
    print(f"workload {name}  seed {seed}  why: {workload.why}")
    print("environment: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(
        f"imports: this process {import_s:.3f} s, {len(imports)} fresh ({series(imports, 'wall_s')} s; "
        f"scaled {series(imports, 'scaled_s')} s); set-up runs: {len(setups)} "
        f"({series(setups, 'wall_s')} s; scaled {series(setups, 'scaled_s')} s)"
    )
    print(
        f"untraced jobs: {len(untraced)} (wall {series(untraced, 'wall_s')} s; "
        f"CPU {series(untraced, 'cpu_s')} s; scaled {series(untraced, 'scaled_s')} s)"
        + (f"; traced jobs: {len(traced)}" if trace else "")
    )
    for label, mix, timings in (
        ("set-up", SETUP_MIX, imports + setups),
        ("job", workload.calibration, untraced + traced),
    ):
        kernels = " + ".join(f"{weight:g} x {kernel}" for kernel, weight in mix)
        slowdowns = [t.slowdown for t in timings]
        print(
            f"{label} host slowdown ({kernels}): median {statistics.median(slowdowns):.3f} of "
            f"{len(slowdowns)} ({min(slowdowns):.3f} to {max(slowdowns):.3f}), "
            f"median {statistics.median(t.samples for t in timings):g} samples in band"
        )
    if trace:
        traced_jobs = len(traced)
        traced_wall = statistics.fmean(t.wall_s for t in traced)
        metrics = layers.per_layer_metrics(
            totals,
            values,
            traced_jobs,
            statistics.median(t.scaled_s for t in traced),
            run_s,
            unattributed / traced_jobs,
        )
        table = layers.layer_table(totals, traced_jobs, traced_wall, unattributed / traced_jobs)
        report["layer_table"] = table
        report["missing_patch_targets"] = tracer.missing
        print(f"layer table (mean of {traced_jobs} traced jobs of {traced_wall:.3f} s):")
        print(f"  {'layer':<24} {'self_s':>10} {'share':>8} {'calls':>12}")
        for row in table:
            print(
                f"  {row['layer']:<24} {fmt(row['self_s'], '.4f'):>10} "
                f"{fmt(row['share'], '.1%'):>8} {fmt(row['calls'], '.0f'):>12}"
            )
        print(f"per-layer metrics (per traced job, mean of {traced_jobs}):")
        for metric, unit in layers.PER_LAYER:
            print(f"  {metric:<32} {fmt(metrics[metric], '.6g'):>14} {unit}")
        if tracer.missing:
            print("patch targets not found (their metrics read n/a): " + ", ".join(tracer.missing))
        # The JSON line carries every per-layer metric; an uncalled layer reads 0.
        json_metrics = {
            metric: {"value": metrics[metric] if metrics[metric] is not None else 0.0, "unit": unit}
            for metric, unit in layers.PER_LAYER
        }
    else:
        values_e2e = {
            "setup_s": setup_s,
            "run_s": run_s,
            "row_phases_per_s": statistics.median(
                units / t.scaled_s for units, t in zip(work, untraced)
            ),
            "peak_rss_mb": peak_rss_mb(),
        }
        print("end-to-end metrics:")
        for metric, unit in END_TO_END:
            print(f"  {metric:<18} {values_e2e[metric]:>14.6g} {unit}")
        print(
            f"  {'failed_frac':<18} {len(failures) / attempted:>14.6g} -    "
            f"({len(failures)} of {attempted} checks failed)"
        )
        print(
            f"run_s is the median of {len(untraced)} scaled jobs (median wall "
            f"{statistics.median(t.wall_s for t in untraced):.4f} s); setup_s the median of "
            f"{len(imports)} scaled fresh imports plus the median of {len(setups)} scaled set-ups"
        )
        json_metrics = {
            metric: {"value": values_e2e[metric], "unit": unit} for metric, unit in END_TO_END
        }
    for failure in failures[:20]:
        print(f"FAILED CHECK {failure}")
    report["metrics"] = json_metrics
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1, default=str)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": json_metrics,
            }
        )
    )
    return 0


def fmt(value: Optional[float], spec: str) -> str:
    return "n/a" if value is None else format(value, spec)


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run every workload in a fresh process and print one combined table."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
        ]
        completed = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        if completed.returncode != 0:
            status = completed.returncode
            continue
        results[name] = json.loads(completed.stdout.strip().splitlines()[-1])
        with open(os.path.join(RESULTS, f"{name}-seed{seed}-trace{int(trace)}.json")) as handle:
            results[name]["report"] = json.load(handle)
    names = list(results)
    print()
    if trace:
        print("layer x workload: self seconds per job / share of the mean traced job / calls per job")
        layer_names = [row["layer"] for row in results[names[0]]["report"]["layer_table"]] if names else []
        print(f"{'layer':<24}" + "".join(f"{n:>30}" for n in names))
        for index, layer in enumerate(layer_names):
            cells = []
            for name in names:
                row = results[name]["report"]["layer_table"][index]
                cells.append(
                    f"{fmt(row['self_s'], '.3f')}/{fmt(row['share'], '.0%')}/{fmt(row['calls'], '.0f')}"
                )
            print(f"{layer:<24}" + "".join(f"{c:>30}" for c in cells))
        for metric in ("trace.overhead", "trace.unattributed_s"):
            print(
                f"{metric:<24}"
                + "".join(f"{results[n]['metrics'][metric]['value']:>30.4f}" for n in names)
            )
    else:
        print(f"{'metric':<20}{'unit':<6}" + "".join(f"{n:>16}" for n in names))
        for metric, unit in END_TO_END:
            print(
                f"{metric:<20}{unit:<6}"
                + "".join(f"{results[n]['metrics'][metric]['value']:>16.4f}" for n in names)
            )
        print(
            f"{'failed_frac':<20}{'-':<6}"
            + "".join(f"{results[n]['failed'] / results[n]['attempted']:>16.4f}" for n in names)
        )
        print(f"{'jobs (run count)':<26}" + "".join(
            f"{len(results[n]['report']['untraced_jobs']):>16}" for n in names
        ))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
