"""Unified machine-readable timing records for the benchmark harness.

Every benchmark used to hand-roll ``time.perf_counter()`` pairs and print
its own ad-hoc numbers; CI then scraped free-text tables.  This module is
the one shared replacement (re-exported by ``benchmarks/conftest.py``):

    from repro.telemetry.bench import bench_timer

    with bench_timer("bench_fluid_limit", "batched sweep",
                     engine="agents-batch", instance="two-links",
                     cases=16) as timer:
        result = simulate_agent_batch(...)
    print(timer.seconds, timer.rate)   # rate = cases / seconds

Each timed block emits one record of the ``repro-bench/1`` schema::

    {"schema": "repro-bench/1", "bench": ..., "section": ...,
     "engine": ..., "instance": ..., "cases": N,
     "seconds": ..., "rate": ..., ...extra}

Records accumulate in-process (:func:`collected_records`) and, when the
``REPRO_BENCH_RECORDS`` environment variable names a file, append to that
JSONL file -- that is what the CI smoke jobs upload as artifacts and
aggregate into the engine x instance throughput matrix
(:func:`throughput_matrix_rows` / ``repro report --bench``).
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional, Sequence

from ..analysis.reporting import render_table
from .jsonl import read_jsonl

__all__ = [
    "BENCH_SCHEMA",
    "RECORDS_ENV",
    "BenchTimer",
    "bench_timer",
    "emit_record",
    "collected_records",
    "clear_records",
    "load_records",
    "throughput_matrix_rows",
    "render_throughput_matrix",
    "gap_matrix_rows",
    "render_gap_matrix",
]

BENCH_SCHEMA = "repro-bench/1"
RECORDS_ENV = "REPRO_BENCH_RECORDS"

_records: List[Dict[str, Any]] = []


class BenchTimer:
    """Context manager timing one benchmark block and emitting its record."""

    def __init__(
        self,
        bench: str,
        section: str,
        engine: str = "-",
        instance: str = "-",
        cases: int = 1,
        **extra: Any,
    ):
        self.bench = bench
        self.section = section
        self.engine = engine
        self.instance = instance
        self.cases = cases
        self.extra = extra
        self.seconds = 0.0
        self._begin = 0.0

    @property
    def rate(self) -> float:
        """Cases per second of the timed block.

        ``nan`` before exit, on a zero-elapsed block (timer granularity), or
        when the block timed zero items -- never a division error or a
        misleading infinite rate.
        """
        if self.seconds <= 0 or self.cases <= 0:
            return float("nan")
        return self.cases / self.seconds

    def __enter__(self) -> "BenchTimer":
        self._begin = time.perf_counter()
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        self.seconds = time.perf_counter() - self._begin
        if exc_type is None:
            emit_record(self.record())

    def record(self) -> Dict[str, Any]:
        return {
            "schema": BENCH_SCHEMA,
            "bench": self.bench,
            "section": self.section,
            "engine": self.engine,
            "instance": self.instance,
            "cases": self.cases,
            "seconds": self.seconds,
            "rate": self.rate,
            **self.extra,
        }


def bench_timer(
    bench: str,
    section: str,
    engine: str = "-",
    instance: str = "-",
    cases: int = 1,
    **extra: Any,
) -> BenchTimer:
    """Return a :class:`BenchTimer`; the conventional entry point."""
    return BenchTimer(bench, section, engine=engine, instance=instance, cases=cases, **extra)


def emit_record(record: Dict[str, Any]) -> None:
    """Collect one record in-process, append it to the records file, and
    ledger it when a run ledger is configured."""
    _records.append(record)
    path = os.environ.get(RECORDS_ENV)
    if path:
        with open(path, "a") as handle:
            handle.write(json.dumps(record, default=str) + "\n")
    from .ledger import record_bench

    record_bench(record)


def collected_records() -> List[Dict[str, Any]]:
    """Return the records emitted by this process so far."""
    return list(_records)


def clear_records() -> None:
    """Forget the in-process records (tests use this for isolation)."""
    _records.clear()


def load_records(path) -> List[Dict[str, Any]]:
    """Load a JSONL bench-records file, skipping records of other schemas.

    A line that is not a JSON object raises ``ValueError`` naming the file
    and line.
    """
    return [record for record in read_jsonl(path) if record.get("schema") == BENCH_SCHEMA]


def throughput_matrix_rows(
    records: Sequence[Dict[str, Any]]
) -> List[Dict[str, object]]:
    """Pivot records into an engine x instance throughput matrix.

    One row per engine; one column per instance holding the best observed
    rate (cases/second) of that engine on that instance.  Repeated
    measurements keep the fastest, which is the usual benchmarking
    convention for throughput.
    """
    instances: List[str] = []
    best: Dict[str, Dict[str, float]] = {}
    for record in records:
        engine = str(record.get("engine", "-"))
        instance = str(record.get("instance", "-"))
        rate = record.get("rate")
        if rate is None or rate != rate:
            continue
        if instance not in instances:
            instances.append(instance)
        row = best.setdefault(engine, {})
        row[instance] = max(row.get(instance, float("-inf")), float(rate))
    rows: List[Dict[str, object]] = []
    for engine in sorted(best):
        row: Dict[str, object] = {"engine": engine}
        for instance in instances:
            if instance in best[engine]:
                row[instance] = best[engine][instance]
        rows.append(row)
    return rows


def render_throughput_matrix(
    records: Sequence[Dict[str, Any]],
    title: str = "engine x instance throughput (cases/sec, best of run)",
) -> str:
    """Render the matrix as an aligned table (the CI job-summary artifact)."""
    rows = throughput_matrix_rows(records)
    if not rows:
        return f"{title}\n(no bench records)"
    columns = ["engine"]
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    return render_table(rows, columns=columns, title=title)


def gap_matrix_rows(records: Sequence[Dict[str, Any]]) -> List[Dict[str, object]]:
    """Pivot solver records into a method x instance gap-vs-time matrix.

    Solver benchmarks (``bench_solvers``, the tracking ground truth) emit
    records carrying ``method``, ``gap`` and ``seconds``; each cell reports
    the best (smallest) relative gap that method reached on that instance
    and the wall time of that run, as ``gap @ seconds``.  Records without a
    ``method`` or ``gap`` field (throughput records) are skipped.
    """
    instances: List[str] = []
    best: Dict[str, Dict[str, tuple]] = {}
    for record in records:
        method = record.get("method")
        gap = record.get("gap")
        if method is None or gap is None or gap != gap:
            continue
        instance = str(record.get("instance", "-"))
        seconds = float(record.get("seconds", float("nan")))
        if instance not in instances:
            instances.append(instance)
        row = best.setdefault(str(method), {})
        current = row.get(instance)
        if current is None or float(gap) < current[0]:
            row[instance] = (float(gap), seconds)
    rows: List[Dict[str, object]] = []
    for method in sorted(best):
        row: Dict[str, object] = {"method": method}
        for instance in instances:
            if instance in best[method]:
                gap, seconds = best[method][instance]
                row[instance] = f"{gap:.2e} @ {seconds:.2f}s"
        rows.append(row)
    return rows


def render_gap_matrix(
    records: Sequence[Dict[str, Any]],
    title: str = "method x instance relative gap (best gap @ wall time)",
) -> str:
    """Render the solver gap matrix as an aligned table."""
    rows = gap_matrix_rows(records)
    if not rows:
        return f"{title}\n(no solver records)"
    columns = ["method"]
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    return render_table(rows, columns=columns, title=title)
