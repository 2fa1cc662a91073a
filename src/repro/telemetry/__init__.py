"""Telemetry: structured tracing, metrics and profiling hooks for every engine.

The subsystem is zero-dependency and off by default: engines fetch the
active session with :func:`get_telemetry`, which returns a shared no-op
object unless a :func:`telemetry_session` is active, so instrumented hot
paths cost nothing measurable when tracing is disabled and never change
numerical results either way.

* :mod:`~repro.telemetry.tracer` -- nested spans with wall time and
  attribute bags, plus the no-op :class:`NullTracer` default;
* :mod:`~repro.telemetry.metrics` -- the counter/gauge/histogram/series
  registry engines update at phase boundaries;
* :mod:`~repro.telemetry.runtime` -- the active-session plumbing
  (:func:`get_telemetry`, :func:`telemetry_session`) and JSONL export;
* :mod:`~repro.telemetry.report` -- renders a trace into per-engine /
  per-phase timing and throughput tables (the ``repro report`` command);
* :mod:`~repro.telemetry.bench` -- the unified machine-readable timing
  records of the benchmark harness (one schema, reused by CI);
* :mod:`~repro.telemetry.ledger` -- the persistent append-only run ledger
  capturing every engine run and bench record across processes;
* :mod:`~repro.telemetry.compare` -- cross-run regression comparison over
  traces, bench records and ledgers (the ``repro compare`` command);
* :mod:`~repro.telemetry.profiler` -- the opt-in wall-clock sampling
  profiler attributing time to span stacks and code locations;
* :mod:`~repro.telemetry.jsonl` -- the one JSONL line reader behind every
  loader, naming the file and line of a bad record.
"""

from .bench import BenchTimer, bench_timer, emit_record, load_records, render_throughput_matrix
from .compare import (
    CompareError,
    compare_bench_records,
    compare_traces,
    load_comparable,
    render_comparison_report,
)
from .ledger import (
    LEDGER_ENV,
    config_fingerprint,
    ledger_dir,
    load_ledger,
    record_bench,
    record_session,
    set_ledger_dir,
)
from .metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    Series,
)
from .profiler import SamplingProfiler, profile_rows
from .report import TraceFormatError, load_trace, render_trace_report
from .runtime import (
    NULL_TELEMETRY,
    Telemetry,
    get_telemetry,
    set_telemetry,
    telemetry_session,
)
from .tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "BenchTimer",
    "bench_timer",
    "emit_record",
    "load_records",
    "render_throughput_matrix",
    "CompareError",
    "compare_bench_records",
    "compare_traces",
    "load_comparable",
    "render_comparison_report",
    "LEDGER_ENV",
    "config_fingerprint",
    "ledger_dir",
    "load_ledger",
    "record_bench",
    "record_session",
    "set_ledger_dir",
    "Counter",
    "Gauge",
    "Histogram",
    "Series",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "SamplingProfiler",
    "profile_rows",
    "TraceFormatError",
    "load_trace",
    "render_trace_report",
    "Telemetry",
    "NULL_TELEMETRY",
    "get_telemetry",
    "set_telemetry",
    "telemetry_session",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
]
